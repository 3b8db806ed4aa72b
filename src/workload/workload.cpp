#include "workload/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/hashing.h"

namespace nf::wl {

void WorkloadConfig::validate() const {
  require(num_peers >= 1, "need at least one peer");
  require(num_items >= 1, "need at least one item");
  require(instances_per_item > 0.0, "instances_per_item must be positive");
  require(alpha >= 0.0, "alpha must be non-negative");
}

ItemId item_id_for_rank(std::uint64_t rank, std::uint64_t seed) {
  return ItemId(hash64(rank, seed ^ 0x1D3A5B7C9E0F2468ull));
}

namespace {

// Sorts `keys` ascending: an LSD radix sort over the low `bits` bits in
// digits of at most 11 bits, every digit's histogram counted in one read
// pass. `scratch` is reused across calls; the sorted keys end up in `keys`.
void radix_sort(std::vector<std::uint32_t>& keys,
                std::vector<std::uint32_t>& scratch, unsigned bits) {
  constexpr unsigned kMaxDigitBits = 11;
  if (bits == 0 || keys.size() < 2) return;
  const unsigned passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned width = (bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << width;
  const std::uint32_t mask = static_cast<std::uint32_t>(radix - 1);
  std::vector<std::size_t> hist(passes * radix, 0);
  for (const std::uint32_t key : keys) {
    for (unsigned d = 0; d < passes; ++d) {
      ++hist[d * radix + ((key >> (d * width)) & mask)];
    }
  }
  scratch.resize(keys.size());
  for (unsigned d = 0; d < passes; ++d) {
    std::size_t* const count = hist.data() + d * radix;
    const unsigned shift = d * width;
    // A digit every key shares leaves the order as it is.
    if (count[(keys.front() >> shift) & mask] == keys.size()) continue;
    std::size_t offset = 0;
    for (std::size_t v = 0; v < radix; ++v) {
      const std::size_t c = count[v];
      count[v] = offset;
      offset += c;
    }
    for (const std::uint32_t key : keys) {
      scratch[count[(key >> shift) & mask]++] = key;
    }
    keys.swap(scratch);
  }
}

}  // namespace

Workload Workload::generate(const WorkloadConfig& config) {
  config.validate();
  Rng rng(config.seed);
  const ZipfDistribution zipf(config.num_items, config.alpha);
  const auto total_instances = static_cast<std::uint64_t>(
      config.instances_per_item * static_cast<double>(config.num_items));
  const std::uint32_t num_peers = config.num_peers;
  require(config.num_items <= 0xFFFFFFFFull, "num_items exceeds u32 ranks");
  const auto n = static_cast<std::uint32_t>(config.num_items);

  // Every map is built in ascending id order, so sort the items by id
  // once: by_pos[pos] is the (id, rank) of the item at position pos in id
  // order, and pos_of_rank inverts it. The rank -> id hash is a bijection,
  // so the ids are distinct and the positions unique. by_pos lives to the
  // end: copying its ids out and freeing it here left the arrays allocated
  // after it as ~26 MB of free heap under the maps (n = 10^6).
  std::vector<std::pair<ItemId, std::uint32_t>> by_pos;
  by_pos.reserve(n);
  for (std::uint32_t rank = 1; rank <= n; ++rank) {
    by_pos.emplace_back(item_id_for_rank(rank, config.seed), rank);
  }
  std::sort(by_pos.begin(), by_pos.end());
  std::vector<std::uint32_t> pos_of_rank(std::size_t{n} + 1);
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    ensure(pos == 0 || by_pos[pos - 1].first < by_pos[pos].first,
           "item ids must be distinct");
    pos_of_rank[by_pos[pos].second] = pos;
  }

  // Peers fall into buckets of 2^shift consecutive peers. Within a bucket
  // an instance is the 32-bit key (peer - first peer)·n + pos, so sorting a
  // bucket's keys groups them by peer and, within a peer, by item id. A
  // bucket spans as many peers as keep its keys within 32 bits, its
  // expected size within kBucketKeys and the shift below 32. At 2^18 keys
  // (1 MiB) a bucket sorts in cache, and freeing it barely moves glibc's
  // dynamic mmap threshold: with 2^22-key buckets the later query
  // allocations stayed on the heap and fig7_million_peers --quick peaked at
  // 736 MB instead of 597 MB.
  constexpr std::uint64_t kBucketKeys = std::uint64_t{1} << 18;
  std::uint64_t bucket_peers =
      std::min((std::uint64_t{1} << 32) / n, std::uint64_t{1} << 31);
  if (total_instances > 0) {
    bucket_peers = std::min(
        bucket_peers,
        std::max<std::uint64_t>(1, kBucketKeys * num_peers / total_instances));
  }
  const auto shift =
      static_cast<unsigned>(std::countr_zero(std::bit_floor(bucket_peers)));
  const std::uint32_t peer_mask = (std::uint32_t{1} << shift) - 1;
  std::vector<std::vector<std::uint32_t>> buckets(
      ((std::uint64_t{num_peers} - 1) >> shift) + 1);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    // Each instance lands in the bucket with probability peers/N: reserve
    // the binomial mean plus 8 sigma so the buffer practically never grows.
    const std::uint64_t first = std::uint64_t{b} << shift;
    const double p =
        static_cast<double>(std::min<std::uint64_t>(
            std::uint64_t{1} << shift, num_peers - first)) /
        num_peers;
    const double mean = static_cast<double>(total_instances) * p;
    buckets[b].reserve(static_cast<std::size_t>(
        mean + 8.0 * std::sqrt(mean * (1.0 - p)) + 1.0));
  }
  auto scatter = [&](std::uint32_t peer, std::uint32_t pos) {
    buckets[peer >> shift].push_back((peer & peer_mask) * n + pos);
  };

  // Draw each instance's (rank, peer), in the same RNG order as ever.
  std::uint64_t sampled_instances = total_instances;
  if (config.min_one_instance && total_instances >= config.num_items) {
    // One guaranteed instance per item at a random peer, so the data set
    // really contains n distinct items; the rest follow the Zipf shape.
    for (std::uint32_t rank = 1; rank <= n; ++rank) {
      scatter(static_cast<std::uint32_t>(rng.below(num_peers)),
              pos_of_rank[rank]);
    }
    sampled_instances -= config.num_items;
  }
  for (std::uint64_t i = 0; i < sampled_instances; ++i) {
    const std::uint32_t pos = pos_of_rank[zipf(rng)];
    scatter(static_cast<std::uint32_t>(rng.below(num_peers)), pos);
  }

  // Sort each bucket, then turn each peer's runs of equal keys into its
  // local map (ascending ids, so every add appends) and accumulate ground
  // truth per position.
  Workload out;
  out.local_.resize(num_peers);
  std::vector<Value> global_by_pos(n, 0);
  std::vector<std::uint32_t> scratch;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    std::vector<std::uint32_t> keys = std::move(buckets[b]);
    const std::uint32_t first = static_cast<std::uint32_t>(b) << shift;
    const std::uint32_t peers = std::min(peer_mask + 1, num_peers - first);
    radix_sort(keys, scratch,
               static_cast<unsigned>(std::bit_width(
                   std::uint64_t{peers} * n - 1)));
    std::size_t i = 0;
    for (std::uint32_t k = 0; k < peers; ++k) {
      const std::uint64_t lo = std::uint64_t{k} * n;
      std::size_t end = i;
      std::size_t distinct = 0;
      for (; end < keys.size() && keys[end] < lo + n; ++end) {
        if (end == i || keys[end] != keys[end - 1]) ++distinct;
      }
      auto& local = out.local_[first + k];
      local.reserve(distinct);
      while (i < end) {
        const std::size_t run = i;
        while (i < end && keys[i] == keys[run]) ++i;
        const auto pos = static_cast<std::uint32_t>(keys[run] - lo);
        const Value count = i - run;
        local.add(by_pos[pos].first, count);
        global_by_pos[pos] += count;
        out.total_ += count;
      }
    }
  }

  out.global_.reserve(static_cast<std::size_t>(
      std::count_if(global_by_pos.begin(), global_by_pos.end(),
                    [](Value v) { return v > 0; })));
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    if (global_by_pos[pos] > 0) {
      out.global_.add(by_pos[pos].first, global_by_pos[pos]);
    }
  }
  ensure(out.total_ == out.global_.total(), "ground truth total mismatch");
  return out;
}

Workload Workload::from_local_sets(std::vector<LocalItems> local_sets) {
  require(!local_sets.empty(), "need at least one peer");
  Workload out;
  out.local_ = std::move(local_sets);
  for (const auto& local : out.local_) {
    out.global_.merge_add(local);
  }
  out.total_ = out.global_.total();
  return out;
}

const LocalItems& Workload::local_items(PeerId p) const {
  require(p.value() < local_.size(), "peer out of range");
  return local_[p.value()];
}

Value Workload::threshold_for(double theta) const {
  require(theta > 0.0 && theta <= 1.0, "theta must be in (0,1]");
  return static_cast<Value>(
      std::ceil(theta * static_cast<double>(total_)));
}

ValueMap<ItemId, Value> Workload::frequent_items(Value threshold) const {
  ValueMap<ItemId, Value> out = global_;
  out.retain([&](ItemId, Value v) { return v >= threshold; });
  return out;
}

double Workload::avg_local_distinct() const {
  double sum = 0.0;
  for (const auto& local : local_) sum += static_cast<double>(local.size());
  return sum / static_cast<double>(local_.size());
}

double Workload::avg_global_value() const {
  if (global_.empty()) return 0.0;
  return static_cast<double>(total_) / static_cast<double>(global_.size());
}

double Workload::avg_light_value(Value threshold) const {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& [id, v] : global_) {
    if (v < threshold) {
      sum += static_cast<double>(v);
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace nf::wl
