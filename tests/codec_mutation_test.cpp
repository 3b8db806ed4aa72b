// Seeded mutation test for the flat decoders (net/codec.h, including the
// control-plane codecs of maintenance, push-sum and request/reply, plus the
// heavy-group set codec in core/netfilter.h).
//
// Every decoder that reads bytes off the wire gets a corpus of valid
// encodings, which are then corrupted with bit flips, truncations, spliced
// over-long varints, edge-value counts and random tails. Each corrupted
// input must either decode or throw ProtocolError: any other exception
// fails the test, and the sanitizer build (ctest under ASan+UBSan) turns an
// out-of-bounds read or undefined shift into a failure. Every input lives in
// a heap block of exactly its own size, so the decoders' 8-byte loads
// cannot over-read into spare vector capacity unnoticed.
#include "net/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>

#include "common/ids.h"
#include "common/rng.h"
#include "core/netfilter.h"

namespace nf::net {
namespace {

using Map = ValueMap<ItemId, std::uint64_t>;

constexpr int kMutationsPerDecoder = 20000;

std::uint64_t random_magnitude(Rng& rng) { return rng() >> rng.below(64); }

// One random corruption of `in`.
Bytes mutate(Rng& rng, Bytes in) {
  switch (rng.below(6)) {
    case 0: {  // flip 1-3 bits
      if (in.empty()) break;
      for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
        const auto bit = static_cast<std::uint8_t>(1u << rng.below(8));
        in[rng.below(in.size())] ^= bit;
      }
      break;
    }
    case 1:  // truncate
      in.resize(rng.below(in.size() + 1));
      break;
    case 2: {  // splice an over-long varint: 10-11 continuation bytes
      const Bytes evil(10 + rng.below(2), 0x80);
      const auto at = static_cast<std::ptrdiff_t>(rng.below(in.size() + 1));
      in.insert(in.begin() + at, evil.begin(), evil.end());
      break;
    }
    case 3: {  // overwrite a byte with a varint edge byte
      if (in.empty()) break;
      constexpr std::uint8_t kEdges[] = {0x00, 0x7F, 0x80, 0xFF, 0x01};
      in[rng.below(in.size())] = kEdges[rng.below(std::size(kEdges))];
      break;
    }
    case 4: {  // replace the leading count with an edge-value count
      Bytes out;
      constexpr std::uint64_t kCounts[] = {0, 1, 127, 128, 1ull << 32,
                                           ~std::uint64_t{0}};
      put_varint(out, kCounts[rng.below(std::size(kCounts))]);
      std::size_t offset = 0;
      try {
        (void)get_varint(in, offset);
      } catch (const ProtocolError&) {
        offset = in.size();
      }
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(offset),
                 in.end());
      in = std::move(out);
      break;
    }
    default:  // append random bytes
      for (std::uint64_t k = 1 + rng.below(12); k > 0; --k) {
        in.push_back(static_cast<std::uint8_t>(rng()));
      }
      break;
  }
  return in;
}

// Runs `decode` over `kMutationsPerDecoder` corruptions of the corpus.
// Returns how many inputs decoded cleanly (the rest threw ProtocolError);
// callers check that enough survive for the accepting paths to be tested.
int fuzz(std::uint64_t seed, const std::vector<Bytes>& corpus,
         const std::function<void(std::span<const std::uint8_t>)>& decode) {
  Rng rng(seed);
  int decoded = 0;
  for (int i = 0; i < kMutationsPerDecoder; ++i) {
    Bytes in = corpus[rng.below(corpus.size())];
    for (std::uint64_t k = 1 + rng.below(2); k > 0; --k) in = mutate(rng, in);
    const auto exact = std::make_unique<std::uint8_t[]>(in.size());
    if (!in.empty()) std::memcpy(exact.get(), in.data(), in.size());
    try {
      decode(std::span<const std::uint8_t>(exact.get(), in.size()));
      ++decoded;
    } catch (const ProtocolError&) {
      // Rejected cleanly: the only acceptable failure.
    }
  }
  return decoded;
}

Map random_map(Rng& rng, std::uint64_t n) {
  std::vector<std::pair<ItemId, std::uint64_t>> pairs;
  for (std::uint64_t i = 0; i < n; ++i) {
    pairs.emplace_back(ItemId(random_magnitude(rng)), random_magnitude(rng));
  }
  return Map::from_unsorted(std::move(pairs));
}

std::vector<Bytes> pair_corpus(Rng& rng) {
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back(encode_pairs(random_map(rng, rng.below(30))));
  }
  return corpus;
}

TEST(CodecMutationTest, DecodePairs) {
  Rng rng(101);
  const int decoded = fuzz(1, pair_corpus(rng), [](auto in) {
    const Map m = decode_pairs(in);
    // Whatever decodes is a well-formed map: re-encoding reproduces it.
    EXPECT_EQ(decode_pairs(encode_pairs(m)), m);
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
}

TEST(CodecMutationTest, MergePairsFrom) {
  Rng rng(102);
  const Map base = random_map(rng, 50);
  const int decoded = fuzz(2, pair_corpus(rng), [&base](auto in) {
    Map acc = base;
    try {
      merge_pairs_from(in, acc);
    } catch (const ProtocolError&) {
      EXPECT_EQ(acc, base);  // a rejected run leaves the accumulator alone
      throw;
    }
    // An accepted run merges exactly as decode_pairs + merge_add would.
    Map expected = base;
    expected.merge_add(decode_pairs(in));
    EXPECT_EQ(acc, expected);
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
}

TEST(CodecMutationTest, DecodeSortedIds) {
  Rng rng(103);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::uint64_t> ids(rng.below(40));
    for (auto& id : ids) id = random_magnitude(rng);
    std::sort(ids.begin(), ids.end());
    corpus.push_back(encode_sorted_ids(ids));
  }
  const int decoded =
      fuzz(3, corpus, [](auto in) { (void)decode_sorted_ids(in); });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
}

TEST(CodecMutationTest, AddAggregatesFrom) {
  // Group-sum rows as Phase 1 ships them: mostly small, some wide values.
  Rng rng(104);
  constexpr std::size_t kWidth = 24;
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::uint64_t> row(kWidth);
    for (auto& v : row) {
      v = rng.below(4) == 0 ? random_magnitude(rng) : rng.below(128);
    }
    corpus.push_back(encode_aggregates(row));
  }
  const int decoded = fuzz(4, corpus, [](auto in) {
    std::vector<std::uint64_t> acc(kWidth, 0);
    add_aggregates_from(in, acc);
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
}

TEST(CodecMutationTest, DecodeAggregates) {
  Rng rng(105);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::uint64_t> row(rng.below(40));
    for (auto& v : row) {
      v = rng.below(4) == 0 ? random_magnitude(rng) : rng.below(128);
    }
    corpus.push_back(encode_aggregates(row));
  }
  const int decoded = fuzz(5, corpus, [](auto in) {
    const std::vector<std::uint64_t> row = decode_aggregates(in);
    // The accumulating decoder accepts the same input with the same sums.
    std::vector<std::uint64_t> acc(row.size(), 0);
    add_aggregates_from(in, acc);
    EXPECT_EQ(acc, row);
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
}

TEST(CodecMutationTest, DecodeFloodFrame) {
  // Flood frames as FlatFloodPhase forwards them: varint(ttl) + payload,
  // with ttl below the phase bound.
  static constexpr std::uint32_t kMaxTtl = 200;
  Rng rng(107);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    Bytes frame;
    put_varint(frame, rng.below(kMaxTtl));
    for (std::uint64_t k = rng.below(16); k > 0; --k) {
      frame.push_back(static_cast<std::uint8_t>(rng()));
    }
    corpus.push_back(std::move(frame));
  }
  const int decoded = fuzz(7, corpus, [](auto in) {
    const FloodFrame frame = decode_flood_frame(in, kMaxTtl);
    EXPECT_LT(frame.ttl, kMaxTtl);
    // The body is the input's tail, after at least the one-byte ttl.
    EXPECT_LT(frame.body.size(), in.size());
    EXPECT_EQ(frame.body.data() + frame.body.size(), in.data() + in.size());
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
}

TEST(CodecMutationTest, DecodeHeavyGroups) {
  // Heavy-group sets as the dissemination multicast and the gossip flood
  // ship them: f bitmaps of g groups, delta-coded as filter-major ids.
  constexpr std::uint32_t kFilters = 3;
  constexpr std::uint32_t kGroups = 40;
  Rng rng(106);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    core::HeavyGroupSet set;
    set.heavy.assign(kFilters, std::vector<bool>(kGroups, false));
    const std::uint64_t density = 1 + rng.below(8);
    for (auto& bitmap : set.heavy) {
      for (std::uint32_t j = 0; j < kGroups; ++j) {
        bitmap[j] = rng.below(density) == 0;
      }
    }
    corpus.push_back(core::encode_heavy_groups(set));
  }
  const int decoded = fuzz(6, corpus, [&](auto in) {
    const core::HeavyGroupSet set =
        core::decode_heavy_groups(in, kFilters, kGroups);
    ASSERT_EQ(set.heavy.size(), kFilters);
    for (const auto& bitmap : set.heavy) ASSERT_EQ(bitmap.size(), kGroups);
    // Whatever decodes is a well-formed set: re-encoding reproduces it.
    EXPECT_EQ(core::decode_heavy_groups(core::encode_heavy_groups(set),
                                        kFilters, kGroups)
                  .heavy,
              set.heavy);
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
}

// Encodes through a slab writer, the way phases do, and copies the bytes.
template <typename Encode>
Bytes slab_bytes(Encode encode) {
  SlabArena slab;
  PayloadWriter w(slab, 0);
  encode(w);
  const std::span<const std::uint8_t> out = slab.view(0, w.written());
  return Bytes(out.begin(), out.end());
}

TEST(CodecMutationTest, DecodeMaintenance) {
  Rng rng(108);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    MaintenanceMsg msg;
    msg.tag = static_cast<MaintenanceTag>(rng.below(4));
    if (msg.tag == MaintenanceTag::kHeartbeat) {
      msg.seq = random_magnitude(rng);
      msg.depth = rng.below(4) == 0 ? kInfiniteDepth
                                    : static_cast<std::uint32_t>(rng.below(64));
    }
    corpus.push_back(slab_bytes([&](PayloadWriter& w) {
      encode_maintenance_to(w, msg);
    }));
  }
  const int decoded = fuzz(8, corpus, [](auto in) {
    const MaintenanceMsg msg = decode_maintenance(in);
    const MaintenanceMsg again = decode_maintenance(
        slab_bytes([&](PayloadWriter& w) { encode_maintenance_to(w, msg); }));
    EXPECT_EQ(again.tag, msg.tag);
    EXPECT_EQ(again.seq, msg.seq);
    EXPECT_EQ(again.depth, msg.depth);
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
  // Tags past kDetach, an empty message and a tagged tail are rejected.
  for (const Bytes& bad : {Bytes{4}, Bytes{0xFF}, Bytes{}, Bytes{1, 0}}) {
    EXPECT_THROW((void)decode_maintenance(bad), ProtocolError);
  }
}

TEST(CodecMutationTest, AddShareFrom) {
  constexpr std::size_t kDim = 3;
  Rng rng(109);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> x(kDim);
    for (double& v : x) v = static_cast<double>(random_magnitude(rng)) / 3.0;
    corpus.push_back(slab_bytes([&](PayloadWriter& w) {
      encode_share_to(w, x, 0.5, 0.25);
    }));
  }
  const int decoded = fuzz(9, corpus, [](auto in) {
    std::vector<double> x(kDim, 1.0);
    double count = 1.0;
    double weight = 1.0;
    try {
      add_share_from(in, x, count, weight);
    } catch (const ProtocolError&) {
      // A rejected share leaves the accumulators alone.
      EXPECT_EQ(x, std::vector<double>(kDim, 1.0));
      EXPECT_EQ(count, 1.0);
      EXPECT_EQ(weight, 1.0);
      throw;
    }
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
  // A truncated or an over-long share is rejected.
  Bytes share = corpus.front();
  std::vector<double> x(kDim, 0.0);
  double count = 0.0;
  double weight = 0.0;
  share.pop_back();
  EXPECT_THROW(add_share_from(share, x, count, weight), ProtocolError);
  share.push_back(0);
  share.push_back(0);
  EXPECT_THROW(add_share_from(share, x, count, weight), ProtocolError);
}

TEST(CodecMutationTest, MergeMapShareFrom) {
  using Shares = ValueMap<ItemId, double>;
  const auto random_shares = [](Rng& rng, std::uint64_t n) {
    std::vector<std::pair<ItemId, double>> entries;
    for (std::uint64_t i = 0; i < n; ++i) {
      entries.emplace_back(ItemId(random_magnitude(rng)),
                           static_cast<double>(rng.below(1000)) / 8.0);
    }
    return Shares::from_unsorted(std::move(entries));
  };
  Rng rng(110);
  const Shares base = random_shares(rng, 30);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    const Shares share = random_shares(rng, rng.below(20));
    corpus.push_back(slab_bytes([&](PayloadWriter& w) {
      encode_map_share_to(w, share, 0.5, 0.125);
    }));
  }
  const int decoded = fuzz(10, corpus, [&base](auto in) {
    Shares acc = base;
    double count = 1.0;
    double weight = 1.0;
    try {
      merge_map_share_from(in, acc, count, weight);
    } catch (const ProtocolError&) {
      EXPECT_EQ(acc, base);  // a rejected share leaves the map alone
      EXPECT_EQ(count, 1.0);
      EXPECT_EQ(weight, 1.0);
      throw;
    }
    EXPECT_GE(acc.size(), base.size());
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
  // An entry count the payload cannot hold is rejected.
  Bytes huge;
  put_varint(huge, 3);
  huge.resize(huge.size() + 2 * 9 + 16);
  Shares acc;
  double count = 0.0;
  double weight = 0.0;
  EXPECT_THROW(merge_map_share_from(huge, acc, count, weight), ProtocolError);
}

TEST(CodecMutationTest, DecodeRoute) {
  // Requests (a bare route) and replies (a route, then the answer's pair
  // run), as agg::RequestPhase and agg::ReplyPhase ship them.
  Rng rng(111);
  std::vector<Bytes> corpus;
  for (int i = 0; i < 40; ++i) {
    std::vector<PeerId> route(rng.below(12));
    for (PeerId& p : route) {
      p = PeerId(static_cast<std::uint32_t>(random_magnitude(rng)));
    }
    const bool reply = rng.below(2) == 0;
    const Map answer = random_map(rng, rng.below(10));
    corpus.push_back(slab_bytes([&](PayloadWriter& w) {
      encode_route_to(w, route);
      if (reply) encode_pairs_to(w, answer);
    }));
  }
  const int decoded = fuzz(11, corpus, [](auto in) {
    const RouteFrame route = decode_route(in);
    // The frame tiles the input: count, ids, then the rest.
    EXPECT_EQ(route.rest.data() + route.rest.size(), in.data() + in.size());
    EXPECT_EQ(route.ids.data() + route.ids.size(), route.rest.data());
    EXPECT_LE(route.count, route.ids.size());
    if (!route.rest.empty()) (void)pair_count(route.rest);
  });
  EXPECT_GT(decoded, kMutationsPerDecoder / 20);
  // Route and reply counts the payload cannot hold are rejected.
  Bytes route;
  put_varint(route, 4);
  route.push_back(1);
  EXPECT_THROW((void)decode_route(route), ProtocolError);
  Bytes pairs;
  put_varint(pairs, 2);
  pairs.push_back(1);
  EXPECT_THROW((void)pair_count(pairs), ProtocolError);
}

}  // namespace
}  // namespace nf::net
