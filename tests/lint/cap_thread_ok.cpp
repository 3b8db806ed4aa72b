// nf-lint fixture: the same shard-context -> engine-thread call as
// cap_thread_pos.cpp with the finding suppressed (pretend this phase runs
// in a single-shard replay harness where no merge races exist). nf-lint
// must report nothing for nf-cap-thread.
#include <cstdint>

#include "common/capability.h"

namespace fixture {

class Recorder {
 public:
  NF_ENGINE_THREAD void admit(std::uint64_t bytes) { total_ += bytes; }

 private:
  std::uint64_t total_ = 0;
};

class Phase {
 public:
  NF_SHARD_CONTEXT void on_flat(std::uint64_t bytes) {
    // nf-lint: nf-cap-thread-ok (single-shard replay harness, no races)
    recorder_.admit(bytes);
  }

 private:
  Recorder recorder_;
};

}  // namespace fixture
