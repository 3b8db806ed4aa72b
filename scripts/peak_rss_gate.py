#!/usr/bin/env python3
"""Runs a command and fails if its peak resident set exceeds a bound.

Usage:
  peak_rss_gate.py --max-mb MB -- COMMAND [ARGS...]

The command's peak RSS is read from getrusage(RUSAGE_CHILDREN).ru_maxrss
(KiB on Linux) once it exits, and printed as `peak_rss_mb=<value>` on
stderr. Exit: the command's own code if it failed, 1 if it succeeded above
the bound, 0 otherwise, 2 on usage errors.
"""

import argparse
import resource
import subprocess
import sys


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-mb", required=True, type=float)
    p.add_argument("command", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        p.error("missing COMMAND")

    code = subprocess.run(cmd).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak_rss_mb={peak_mb:.1f} bound_mb={args.max_mb:.1f}",
          file=sys.stderr)
    if code != 0:
        return code
    if peak_mb > args.max_mb:
        print(f"peak_rss_gate: {peak_mb:.1f} MB exceeds {args.max_mb:.1f} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
