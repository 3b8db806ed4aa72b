#include "net/codec.h"

#include <bit>
#include <cstring>
#include <limits>

namespace nf::net {
namespace {

using Pair = std::pair<ItemId, std::uint64_t>;

// The reference LEB128 loop, checked byte by byte. It decodes a payload's
// last few bytes and any varint longer than 8 bytes.
std::uint64_t read_varint_checked(const std::uint8_t*& p,
                                  const std::uint8_t* end) {
  std::uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    ensure(p != end, "truncated varint");
    ensure(shift < 64, "over-long varint");
    const std::uint8_t byte = *p++;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
}

// Reads one varint at `p`, advancing it. With at least 10 bytes left (the
// longest valid varint) one 8-byte load finds the terminator: ctz over the
// inverted continuation bits gives the length, and three mask-and-shift
// steps pack the 7-bit groups. Longer varints and payload tails take the
// checked loop, so every error is the checked loop's.
inline std::uint64_t read_varint(const std::uint8_t*& p,
                                 const std::uint8_t* end) {
  if constexpr (std::endian::native == std::endian::little) {
    if (end - p >= 10) {
      std::uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      const std::uint64_t stops = ~word & 0x8080808080808080ull;
      if (stops != 0) {
        p += (std::countr_zero(stops) >> 3) + 1;
        // Keep the bytes up to and including the terminator.
        std::uint64_t x = word & (stops ^ (stops - 1)) & 0x7F7F7F7F7F7F7F7Full;
        x = (x & 0x007F007F007F007Full) | ((x & 0x7F007F007F007F00ull) >> 1);
        x = (x & 0x00003FFF00003FFFull) | ((x & 0x3FFF00003FFF0000ull) >> 2);
        return (x & 0x000000000FFFFFFFull) | ((x & 0x0FFFFFFF00000000ull) >> 4);
      }
    }
  }
  return read_varint_checked(p, end);
}

// Reads a message's leading element count, bounded by the bytes left at
// `min_bytes` per element, so a corrupt count fails as ProtocolError rather
// than as a huge reserve().
std::uint64_t read_count(const std::uint8_t*& p, const std::uint8_t* end,
                         std::uint64_t min_bytes) {
  const std::uint64_t count = read_varint(p, end);
  ensure(count <= static_cast<std::uint64_t>(end - p) / min_bytes,
         "element count exceeds payload");
  return count;
}

// Walks an encoded pair run in order. Checks that ids strictly ascend and
// that exactly `count()` pairs fill the payload.
class PairReader {
 public:
  explicit PairReader(std::span<const std::uint8_t> in)
      : p_(in.data()), end_(in.data() + in.size()) {
    count_ = read_count(p_, end_, 2);
    remaining_ = count_;
    if (remaining_ == 0) ensure(p_ == end_, "trailing bytes after pair list");
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  Pair next() {
    const std::uint64_t id = prev_ + read_varint(p_, end_);
    // A zero or wrapping delta after the first pair breaks the order.
    ensure(id > prev_ || remaining_ == count_,
           "pair ids not strictly ascending");
    prev_ = id;
    const Pair pair{ItemId(id), read_varint(p_, end_)};
    if (--remaining_ == 0) ensure(p_ == end_, "trailing bytes after pair list");
    return pair;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::uint64_t count_ = 0;
  std::uint64_t remaining_ = 0;
  std::uint64_t prev_ = 0;
};

// The one slab varint writer: runs `emit(put)` twice, first to total the
// varint sizes, then to write them into exactly that many slab bytes
// through a plain pointer.
template <typename Emit>
void put_varints_exact(PayloadWriter& w, Emit emit) {
  std::size_t size = 0;
  emit([&size](std::uint64_t v) { size += varint_size(v); });
  std::uint8_t* out = w.append_raw(size);
  emit([&out](std::uint64_t v) { out = write_varint(out, v); });
}

std::uint8_t* write_fixed64(std::uint8_t* out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    *out++ = static_cast<std::uint8_t>(bits >> shift);
  }
  return out;
}

double read_fixed64(const std::uint8_t*& p, const std::uint8_t* end) {
  ensure(end - p >= 8, "truncated fixed64");
  std::uint64_t bits = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    bits |= static_cast<std::uint64_t>(*p++) << shift;
  }
  return std::bit_cast<double>(bits);
}

}  // namespace

void put_varint(Bytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t get_varint(std::span<const std::uint8_t> in,
                         std::size_t& offset) {
  ensure(offset < in.size(), "truncated varint");
  const std::uint8_t* p = in.data() + offset;
  const std::uint64_t value = read_varint(p, in.data() + in.size());
  offset = static_cast<std::size_t>(p - in.data());
  return value;
}

Bytes encode_sorted_ids(std::span<const std::uint64_t> ids) {
  Bytes out;
  put_varint(out, ids.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    require(i == 0 || ids[i] >= prev, "ids must be sorted ascending");
    put_varint(out, ids[i] - prev);
    prev = ids[i];
  }
  return out;
}

std::vector<std::uint64_t> decode_sorted_ids(
    std::span<const std::uint8_t> in) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  const std::uint64_t count = read_count(p, end, 1);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    prev += read_varint(p, end);
    out.push_back(prev);
  }
  ensure(p == end, "trailing bytes after id list");
  return out;
}

Bytes encode_pairs(const ValueMap<ItemId, std::uint64_t>& map) {
  Bytes out;
  put_varint(out, map.size());
  std::uint64_t prev = 0;
  for (const auto& [id, value] : map) {
    put_varint(out, id.value() - prev);
    put_varint(out, value);
    prev = id.value();
  }
  return out;
}

ValueMap<ItemId, std::uint64_t> decode_pairs(
    std::span<const std::uint8_t> in) {
  ValueMap<ItemId, std::uint64_t> out;
  merge_pairs_from(in, out);
  return out;
}

void merge_pairs_from(std::span<const std::uint8_t> in,
                      ValueMap<ItemId, std::uint64_t>& acc) {
  PairReader run(in);
  acc.merge_add_run(run.count(), [&run] { return run.next(); });
}

Bytes encode_aggregates(std::span<const std::uint64_t> values) {
  Bytes out;
  put_varint(out, values.size());
  for (std::uint64_t v : values) put_varint(out, v);
  return out;
}

std::vector<std::uint64_t> decode_aggregates(
    std::span<const std::uint8_t> in) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  const std::uint64_t count = read_count(p, end, 1);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(read_varint(p, end));
  ensure(p == end, "trailing bytes after aggregate vector");
  return out;
}

FloodFrame decode_flood_frame(std::span<const std::uint8_t> in,
                              std::uint32_t max_ttl) {
  std::size_t offset = 0;
  const std::uint64_t ttl = get_varint(in, offset);
  ensure(ttl < max_ttl, "flood ttl exceeds the phase bound");
  return {static_cast<std::uint32_t>(ttl), in.subspan(offset)};
}

Bytes encode_aggregates_fixed32(std::span<const std::uint64_t> values) {
  Bytes out;
  put_varint(out, values.size());
  for (std::uint64_t v : values) {
    const auto clamped = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        v, std::numeric_limits<std::uint32_t>::max()));
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<std::uint8_t>(clamped >> shift));
    }
  }
  return out;
}

void encode_sorted_ids_to(PayloadWriter& w,
                          std::span<const std::uint64_t> ids) {
  put_varints_exact(w, [ids](auto put) {
    put(ids.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      require(i == 0 || ids[i] >= prev, "ids must be sorted ascending");
      put(ids[i] - prev);
      prev = ids[i];
    }
  });
}

void encode_pairs_to(PayloadWriter& w,
                     const ValueMap<ItemId, std::uint64_t>& map) {
  put_varints_exact(w, [&map](auto put) {
    put(map.size());
    std::uint64_t prev = 0;
    for (const auto& [id, value] : map) {
      put(id.value() - prev);
      put(value);
      prev = id.value();
    }
  });
}

void encode_aggregates_to(PayloadWriter& w,
                          std::span<const std::uint64_t> values) {
  put_varints_exact(w, [values](auto put) {
    put(values.size());
    for (std::uint64_t v : values) put(v);
  });
}

void add_aggregates_from(std::span<const std::uint8_t> in,
                         std::span<std::uint64_t> acc) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(in, offset);
  ensure(count == acc.size(), "aggregate vector width mismatch");
  const std::uint8_t* __restrict bytes = in.data();
  std::uint64_t* __restrict out = acc.data();
  std::uint64_t i = 0;
  while (i < count) {
    // SWAR fast path: one 8-byte load tests the continuation bits of the
    // next 8 lanes at once. Group aggregates are mostly small (sparse item
    // sets, values < 128), so runs of single-byte varints dominate and the
    // widening add below autovectorizes — the scalar get_varint loop only
    // runs where a multi-byte value breaks the run.
    if (i + 8 <= count && offset + 8 <= in.size()) {
      std::uint64_t word;
      std::memcpy(&word, bytes + offset, sizeof(word));
      if ((word & 0x8080808080808080ull) == 0) {
        for (std::size_t k = 0; k < 8; ++k) out[i + k] += bytes[offset + k];
        offset += 8;
        i += 8;
        continue;
      }
    }
    out[i++] += get_varint(in, offset);
  }
  ensure(offset == in.size(), "trailing bytes after aggregate vector");
}

std::uint64_t pair_count(std::span<const std::uint8_t> in) {
  const std::uint8_t* p = in.data();
  return read_count(p, p + in.size(), 2);
}

void encode_maintenance_to(PayloadWriter& w, const MaintenanceMsg& msg) {
  w.put_varint(static_cast<std::uint8_t>(msg.tag));  // one byte: tag < 128
  if (msg.tag != MaintenanceTag::kHeartbeat) return;
  w.put_varint(msg.seq);
  w.put_varint(msg.depth);
}

MaintenanceMsg decode_maintenance(std::span<const std::uint8_t> in) {
  ensure(!in.empty(), "empty maintenance message");
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  MaintenanceMsg msg;
  const std::uint8_t tag = *p++;
  ensure(tag <= static_cast<std::uint8_t>(MaintenanceTag::kDetach),
         "unknown maintenance tag");
  msg.tag = static_cast<MaintenanceTag>(tag);
  if (msg.tag == MaintenanceTag::kHeartbeat) {
    msg.seq = read_varint(p, end);
    const std::uint64_t depth = read_varint(p, end);
    ensure(depth <= std::numeric_limits<std::uint32_t>::max(),
           "heartbeat depth beyond 32 bits");
    msg.depth = static_cast<std::uint32_t>(depth);
  }
  ensure(p == end, "trailing bytes after maintenance message");
  return msg;
}

void encode_share_to(PayloadWriter& w, std::span<const double> x,
                     double count, double weight) {
  std::uint8_t* out = w.append_raw((x.size() + 2) * 8);
  for (const double v : x) out = write_fixed64(out, v);
  write_fixed64(write_fixed64(out, count), weight);
}

void add_share_from(std::span<const std::uint8_t> in, std::span<double> x,
                    double& count, double& weight) {
  ensure(in.size() == (x.size() + 2) * 8, "push-sum share size mismatch");
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  for (double& v : x) v += read_fixed64(p, end);
  count += read_fixed64(p, end);
  weight += read_fixed64(p, end);
}

void encode_map_share_to(PayloadWriter& w, const ValueMap<ItemId, double>& x,
                         double count, double weight) {
  w.put_varint(x.size());
  std::uint64_t prev = 0;
  for (const auto& [id, v] : x) {
    w.put_varint(id.value() - prev);
    write_fixed64(w.append_raw(8), v);
    prev = id.value();
  }
  write_fixed64(write_fixed64(w.append_raw(16), count), weight);
}

void merge_map_share_from(std::span<const std::uint8_t> in,
                          ValueMap<ItemId, double>& x, double& count,
                          double& weight) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  ensure(in.size() >= 16, "truncated push-sum share");
  // Count and weight sit in the last 16 bytes; every entry takes at least
  // one id byte and eight value bytes.
  const std::uint8_t* const entries_end = end - 16;
  const std::uint64_t n = read_count(p, entries_end, 9);
  if (n == 0) ensure(p == entries_end, "push-sum share size mismatch");
  std::uint64_t prev = 0;
  std::uint64_t taken = 0;
  x.merge_add_run(n, [&] {
    const std::uint64_t id = prev + read_varint(p, entries_end);
    ensure(id > prev || taken == 0, "share ids not strictly ascending");
    prev = id;
    const std::pair<ItemId, double> entry(ItemId(id),
                                          read_fixed64(p, entries_end));
    // Checked before the merge commits, so a bad share changes nothing.
    if (++taken == n) ensure(p == entries_end, "push-sum share size mismatch");
    return entry;
  });
  const std::uint8_t* tail = entries_end;
  count += read_fixed64(tail, end);
  weight += read_fixed64(tail, end);
}

void encode_route_to(PayloadWriter& w, std::span<const PeerId> route) {
  w.put_varint(route.size());
  for (const PeerId peer : route) w.put_varint(peer.value());
}

RouteFrame decode_route(std::span<const std::uint8_t> in) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  RouteFrame frame;
  frame.count = read_count(p, end, 1);
  const std::uint8_t* const ids = p;
  for (std::uint64_t i = 0; i < frame.count; ++i) {
    frame.last_offset = static_cast<std::size_t>(p - ids);
    const std::uint64_t id = read_varint(p, end);
    ensure(id <= std::numeric_limits<std::uint32_t>::max(),
           "peer id beyond 32 bits");
    frame.last = PeerId(static_cast<std::uint32_t>(id));
  }
  frame.ids = {ids, p};
  frame.rest = {p, end};
  return frame;
}

}  // namespace nf::net
