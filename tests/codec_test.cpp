#include "net/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <limits>

#include "common/hashing.h"
#include "common/rng.h"

namespace nf::net {
namespace {

TEST(VarintTest, KnownEncodings) {
  Bytes out;
  put_varint(out, 0);
  put_varint(out, 1);
  put_varint(out, 127);
  put_varint(out, 128);
  put_varint(out, 300);
  EXPECT_EQ(out, (Bytes{0x00, 0x01, 0x7F, 0x80, 0x01, 0xAC, 0x02}));
}

TEST(VarintTest, SizesMatchEncoding) {
  const std::uint64_t cases[] = {
      0, 1, 127, 128, 16383, 16384, std::uint64_t{1} << 40,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : cases) {
    Bytes out;
    put_varint(out, v);
    EXPECT_EQ(out.size(), varint_size(v)) << v;
  }
  // Every width boundary of the branch-free size formula.
  for (int bits = 1; bits < 64; ++bits) {
    for (std::uint64_t v : {(std::uint64_t{1} << bits) - 1,
                            std::uint64_t{1} << bits}) {
      Bytes out;
      put_varint(out, v);
      EXPECT_EQ(out.size(), varint_size(v)) << v;
    }
  }
}

TEST(VarintTest, DecodesAtEveryDistanceFromTheEnd) {
  // The decoder takes its one-load fast path only with 10 bytes left, so
  // place each width of varint at every distance from the end of input.
  for (int bits = 0; bits <= 64; ++bits) {
    const std::uint64_t v =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    for (std::size_t pad = 0; pad <= 12; ++pad) {
      Bytes in;
      put_varint(in, v);
      in.insert(in.end(), pad, 0x00);
      std::size_t offset = 0;
      EXPECT_EQ(get_varint(in, offset), v) << bits << " pad " << pad;
      EXPECT_EQ(offset, varint_size(v));
    }
  }
}

TEST(VarintTest, RoundTripFuzz) {
  Rng rng(1);
  Bytes out;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes: shift a random value by a random amount.
    const std::uint64_t v = rng() >> rng.below(64);
    values.push_back(v);
    put_varint(out, v);
  }
  std::size_t offset = 0;
  for (std::uint64_t expected : values) {
    EXPECT_EQ(get_varint(out, offset), expected);
  }
  EXPECT_EQ(offset, out.size());
}

TEST(VarintTest, TruncatedInputThrows) {
  Bytes out;
  put_varint(out, 1ull << 40);
  out.pop_back();
  std::size_t offset = 0;
  EXPECT_THROW((void)get_varint(out, offset), ProtocolError);
}

TEST(VarintTest, OverlongInputThrows) {
  const Bytes evil(11, 0x80);  // 11 continuation bytes > 64 bits
  std::size_t offset = 0;
  EXPECT_THROW((void)get_varint(evil, offset), ProtocolError);
}

TEST(SortedIdsTest, RoundTrip) {
  const std::vector<std::uint64_t> ids{3, 7, 8, 100, 100000, 1ull << 50};
  EXPECT_EQ(decode_sorted_ids(encode_sorted_ids(ids)), ids);
}

TEST(SortedIdsTest, EmptyAndSingle) {
  const std::vector<std::uint64_t> none;
  EXPECT_TRUE(decode_sorted_ids(encode_sorted_ids(none)).empty());
  const std::vector<std::uint64_t> one{42};
  EXPECT_EQ(decode_sorted_ids(encode_sorted_ids(one)), one);
}

TEST(SortedIdsTest, DenseIdsCompressWell) {
  // Heavy-group ids 0..99: deltas of ~1 cost 1 byte each.
  std::vector<std::uint64_t> dense(100);
  for (std::uint64_t i = 0; i < 100; ++i) dense[i] = i;
  const Bytes encoded = encode_sorted_ids(dense);
  EXPECT_LT(encoded.size(), 110u);  // vs 400 bytes at 4 bytes/id
}

TEST(SortedIdsTest, UnsortedInputRejected) {
  const std::vector<std::uint64_t> bad{5, 3};
  EXPECT_THROW((void)encode_sorted_ids(bad), InvalidArgument);
}

TEST(SortedIdsTest, TrailingGarbageRejected) {
  const std::vector<std::uint64_t> ids{1, 2};
  Bytes b = encode_sorted_ids(ids);
  b.push_back(0x00);
  EXPECT_THROW((void)decode_sorted_ids(b), ProtocolError);
}

TEST(PairsTest, RoundTripFuzz) {
  Rng rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    ValueMap<ItemId, std::uint64_t> map;
    const std::uint64_t n = rng.below(200);
    for (std::uint64_t i = 0; i < n; ++i) {
      map.add(ItemId(hash64(i, static_cast<std::uint64_t>(iter))),
              rng.between(1, 1000000));
    }
    EXPECT_EQ(decode_pairs(encode_pairs(map)), map);
  }
}

using Map = ValueMap<ItemId, std::uint64_t>;

// A pair run built by hand from (id delta, value) steps, so tests can write
// runs the encoder never would.
Bytes pair_run(std::initializer_list<std::pair<std::uint64_t, std::uint64_t>>
                   steps) {
  Bytes out;
  put_varint(out, steps.size());
  for (const auto& [delta, value] : steps) {
    put_varint(out, delta);
    put_varint(out, value);
  }
  return out;
}

TEST(PairsTest, FirstPairMayHaveIdZero) {
  EXPECT_EQ(decode_pairs(pair_run({{0, 7}, {1, 1}})),
            Map::from_unsorted({{ItemId(0), 7}, {ItemId(1), 1}}));
}

TEST(PairsTest, ZeroDeltaAfterFirstPairRejected) {
  // Ids 5, 5: a repeated id used to be summed quietly into one entry.
  EXPECT_THROW((void)decode_pairs(pair_run({{5, 1}, {0, 2}})), ProtocolError);
}

TEST(PairsTest, WrappingDeltaRejected) {
  // Ids 2^64-1, then +2 wraps to 1: used to be re-sorted into {1, 2^64-1}.
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)decode_pairs(pair_run({{top, 1}, {2, 1}})),
               ProtocolError);
  EXPECT_THROW((void)decode_pairs(pair_run({{3, 1}, {top, 1}})),
               ProtocolError);
}

TEST(PairsTest, CountBeyondPayloadRejected) {
  // A count the payload cannot hold fails before anything is reserved.
  Bytes b;
  put_varint(b, std::uint64_t{1} << 60);
  put_varint(b, 1);
  put_varint(b, 1);
  EXPECT_THROW((void)decode_pairs(b), ProtocolError);
}

// --- merge_pairs_from: the fused Phase-2 decode-merge ----------------------

constexpr std::uint64_t kVarintEdges[] = {
    0,
    127,
    128,
    (std::uint64_t{1} << 56) - 1,
    std::uint64_t{1} << 56,
    std::uint64_t{1} << 63,
    std::numeric_limits<std::uint64_t>::max()};

std::uint64_t edge_or_random(Rng& rng) {
  if (rng.below(2) == 0) {
    return kVarintEdges[rng.below(std::size(kVarintEdges))];
  }
  return rng() >> rng.below(64);
}

// A random map of up to `n` entries whose id deltas and values are drawn
// from the varint edge values as often as from random magnitudes.
Map random_edge_map(Rng& rng, std::uint64_t n) {
  std::vector<std::pair<ItemId, std::uint64_t>> pairs;
  std::uint64_t id = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t delta = edge_or_random(rng);
    if (i > 0) {
      if (delta == 0) delta = 1;
      if (delta > std::numeric_limits<std::uint64_t>::max() - id) break;
    }
    id += delta;
    pairs.emplace_back(ItemId(id), edge_or_random(rng));
  }
  return Map::from_unsorted(std::move(pairs));
}

// Merging an encoded run must equal merge_add of the decoded map.
void expect_merge_matches(const Map& acc, const Map& run) {
  Map expected = acc;
  expected.merge_add(run);
  Map got = acc;
  merge_pairs_from(encode_pairs(run), got);
  EXPECT_EQ(got, expected);
}

TEST(MergePairsFromTest, EmptySides) {
  Rng rng(21);
  const Map some = random_edge_map(rng, 20);
  expect_merge_matches(Map{}, Map{});
  expect_merge_matches(some, Map{});
  expect_merge_matches(Map{}, some);
}

TEST(MergePairsFromTest, MatchesMergeAddOnRandomMaps) {
  Rng rng(22);
  for (int iter = 0; iter < 500; ++iter) {
    const Map acc = random_edge_map(rng, rng.below(60));
    Map run = random_edge_map(rng, rng.below(60));
    // Half the time, share ids with the accumulator so ties get summed.
    if (iter % 2 == 0) {
      for (const auto& [id, v] : acc) {
        if (rng.below(2) == 0) run.add(id, v);
      }
    }
    expect_merge_matches(acc, run);
  }
}

TEST(MergePairsFromTest, CoversTheFastPathBoundaries) {
  // The decoder switches to its checked loop within 10 bytes of the end,
  // so a pair (two varints) straddles it within 20. Hit every encoded
  // length from 1 to 40 bytes (2 is impossible: a pair takes 2 bytes).
  Rng rng(23);
  std::vector<bool> seen(41, false);
  for (int iter = 0; iter < 20000; ++iter) {
    const Map run = random_edge_map(rng, rng.below(8));
    const std::size_t len = encode_pairs(run).size();
    if (len > 40 || seen[len]) continue;
    seen[len] = true;
    expect_merge_matches(random_edge_map(rng, rng.below(8)), run);
  }
  for (std::size_t len = 1; len <= 40; ++len) {
    if (len != 2) EXPECT_TRUE(seen[len]) << len;
  }
}

TEST(MergePairsFromTest, TruncationAndTrailingBytesThrow) {
  Rng rng(24);
  for (int iter = 0; iter < 100; ++iter) {
    const Map acc = random_edge_map(rng, rng.below(10));
    const Bytes full = encode_pairs(random_edge_map(rng, rng.below(10)));
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::span<const std::uint8_t> prefix(full.data(), cut);
      Map got = acc;
      EXPECT_THROW(merge_pairs_from(prefix, got), ProtocolError) << cut;
      EXPECT_EQ(got, acc);  // a failed merge leaves the accumulator alone
    }
    Bytes trailing = full;
    trailing.push_back(0x00);
    Map got = acc;
    EXPECT_THROW(merge_pairs_from(trailing, got), ProtocolError);
    EXPECT_EQ(got, acc);
  }
}

TEST(AggregatesTest, RoundTripAndZeroCompression) {
  std::vector<std::uint64_t> values(300, 0);
  values[7] = 12;
  values[130] = 1ull << 33;
  EXPECT_EQ(decode_aggregates(encode_aggregates(values)), values);
  // Mostly-zero vector: ~1 byte per slot instead of 4.
  EXPECT_LT(encode_aggregates(values).size(), 320u);
}

TEST(AggregatesTest, Fixed32MatchesPaperModel) {
  std::vector<std::uint64_t> values(100, 77);
  values[1] = 0x01020304;
  const Bytes encoded = encode_aggregates_fixed32(values);
  // count varint + 4 bytes per slot: the paper's sa*g.
  ASSERT_EQ(encoded.size(), varint_size(100) + 400u);
  const std::size_t slot0 = varint_size(100);
  EXPECT_EQ(Bytes(encoded.begin() + slot0, encoded.begin() + slot0 + 8),
            (Bytes{77, 0, 0, 0, 0x04, 0x03, 0x02, 0x01}));  // little-endian
}

TEST(AggregatesTest, Fixed32ClampsOverflow) {
  const std::vector<std::uint64_t> values{std::uint64_t{1} << 40,
                                          0xFFFFFFFEull};
  EXPECT_EQ(encode_aggregates_fixed32(values),
            (Bytes{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE, 0xFF, 0xFF, 0xFF}));
}

// --- Slab-writer variants (net/payload.h) ----------------------------------
//
// The flat payload path encodes through a PayloadWriter into a slab arena;
// the wire bytes must be identical to the Bytes-returning encoders or the
// kVarintDelta charged sizes (and the pipelined-vs-barriered byte-equality
// invariant) silently drift.

Bytes slab_bytes(const SlabArena& slab, PayloadRef ref) {
  const std::span<const std::uint8_t> view = slab.view(ref.offset, ref.length);
  return Bytes(view.begin(), view.end());
}

TEST(SlabWriterTest, SortedIdsMatchLegacyEncoderBytes) {
  Rng rng(3);
  SlabArena slab;
  for (int iter = 0; iter < 100; ++iter) {
    // Random sorted id lists across magnitudes, including adversarial
    // varint boundaries (2^7k ± 1) where the LEB128 width flips.
    std::vector<std::uint64_t> ids;
    const std::uint64_t n = rng.below(100);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t v = rng() >> rng.below(64);
      if (rng.below(4) == 0) {
        const std::uint64_t boundary = std::uint64_t{1}
                                       << (7 * (1 + rng.below(9)));
        v = rng.below(2) == 0 ? boundary - 1 : boundary;
      }
      ids.push_back(v);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    PayloadWriter w(slab, 0);
    encode_sorted_ids_to(w, ids);
    const PayloadRef ref = w.finish();
    EXPECT_EQ(slab_bytes(slab, ref), encode_sorted_ids(ids)) << iter;
  }
}

TEST(SlabWriterTest, PairsMatchLegacyEncoderBytes) {
  Rng rng(4);
  SlabArena slab;
  for (int iter = 0; iter < 50; ++iter) {
    ValueMap<ItemId, std::uint64_t> map;
    const std::uint64_t n = rng.below(200);
    for (std::uint64_t i = 0; i < n; ++i) {
      map.add(ItemId(hash64(i, static_cast<std::uint64_t>(iter))),
              rng() >> rng.below(64));
    }
    PayloadWriter w(slab, 0);
    encode_pairs_to(w, map);
    const PayloadRef ref = w.finish();
    EXPECT_EQ(slab_bytes(slab, ref), encode_pairs(map)) << iter;
  }
}

TEST(SlabWriterTest, PairsWithVarintEdgesMatchLegacyEncoderBytes) {
  // The slab writer sizes each message before writing it; the varint edge
  // values sit on both sides of every width change of that size.
  Rng rng(6);
  SlabArena slab;
  for (int iter = 0; iter < 200; ++iter) {
    const Map map = random_edge_map(rng, rng.below(30));
    PayloadWriter w(slab, 0);
    encode_pairs_to(w, map);
    const PayloadRef ref = w.finish();
    EXPECT_EQ(slab_bytes(slab, ref), encode_pairs(map)) << iter;
  }
}

TEST(SlabWriterTest, AggregatesMatchLegacyEncoderBytes) {
  Rng rng(5);
  SlabArena slab;
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::uint64_t> values(rng.below(400), 0);
    for (std::uint64_t& v : values) {
      if (rng.below(3) == 0) v = rng() >> rng.below(64);
    }
    PayloadWriter w(slab, 0);
    encode_aggregates_to(w, values);
    const PayloadRef ref = w.finish();
    EXPECT_EQ(slab_bytes(slab, ref), encode_aggregates(values)) << iter;
  }
}

TEST(SlabWriterTest, ConsecutiveWritesShareOneSlab) {
  SlabArena slab;
  PayloadWriter a(slab, 7);
  encode_sorted_ids_to(a, std::vector<std::uint64_t>{1, 2, 3});
  const PayloadRef ra = a.finish();
  PayloadWriter b(slab, 7);
  encode_sorted_ids_to(b, std::vector<std::uint64_t>{100, 200});
  const PayloadRef rb = b.finish();
  EXPECT_EQ(ra.slab, 7u);
  EXPECT_EQ(rb.offset, ra.offset + ra.length);  // back to back, no gaps
  EXPECT_EQ(slab_bytes(slab, ra),
            encode_sorted_ids(std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(slab_bytes(slab, rb),
            encode_sorted_ids(std::vector<std::uint64_t>{100, 200}));
}

TEST(AddAggregatesTest, AccumulatesWithoutIntermediateVector) {
  const std::vector<std::uint64_t> a{1, 0, 1ull << 40, 7};
  std::vector<std::uint64_t> acc{10, 20, 30, 40};
  add_aggregates_from(encode_aggregates(a), acc);
  EXPECT_EQ(acc, (std::vector<std::uint64_t>{11, 20, (1ull << 40) + 30, 47}));
}

TEST(AddAggregatesTest, WidthMismatchThrows) {
  const std::vector<std::uint64_t> a{1, 2, 3};
  std::vector<std::uint64_t> acc(4, 0);
  EXPECT_THROW(add_aggregates_from(encode_aggregates(a), acc), ProtocolError);
}

TEST(AddAggregatesTest, TruncatedInputThrows) {
  const std::vector<std::uint64_t> a{1, 1ull << 40};
  Bytes b = encode_aggregates(a);
  b.pop_back();
  std::vector<std::uint64_t> acc(2, 0);
  EXPECT_THROW(add_aggregates_from(b, acc), ProtocolError);
}

TEST(AddAggregatesTest, TrailingGarbageThrows) {
  const std::vector<std::uint64_t> a{1, 2};
  Bytes b = encode_aggregates(a);
  b.push_back(0x00);
  std::vector<std::uint64_t> acc(2, 0);
  EXPECT_THROW(add_aggregates_from(b, acc), ProtocolError);
}

}  // namespace
}  // namespace nf::net
