// Flat sorted map from an id type to an accumulated value.
//
// The inner loop of every aggregation path in netFilter is "merge my
// <id, value> pairs with my children's and add values for equal ids". A
// sorted vector with a two-pointer merge is both faster and far more
// memory-frugal than a node-based map at the sizes the simulator reaches
// (10^7 instances across 10^3 peers), and it gives deterministic iteration
// order for free — which keeps runs bit-reproducible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"

namespace nf {

template <typename Id, typename Value = std::uint64_t>
class ValueMap {
 public:
  using value_type = std::pair<Id, Value>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  ValueMap() = default;

  /// Builds from unsorted pairs, combining duplicates by summing.
  static ValueMap from_unsorted(std::vector<value_type> pairs) {
    std::sort(pairs.begin(), pairs.end(),
              [](const value_type& a, const value_type& b) {
                return a.first < b.first;
              });
    ValueMap out;
    out.entries_.reserve(pairs.size());
    for (const auto& [id, v] : pairs) {
      if (!out.entries_.empty() && out.entries_.back().first == id) {
        out.entries_.back().second += v;
      } else {
        out.entries_.emplace_back(id, v);
      }
    }
    return out;
  }

  /// Adds `v` to the value of `id` (inserting if absent). An id above every
  /// held id appends in amortized O(1), so ascending input builds a map at
  /// vector speed; otherwise O(log n) lookup and O(n) insert — use
  /// `from_unsorted` or `merge_add` for bulk building out of order.
  void add(Id id, Value v) {
    if (entries_.empty() || entries_.back().first < id) {
      entries_.emplace_back(id, v);
      return;
    }
    auto it = lower_bound(id);
    if (it != entries_.end() && it->first == id) {
      it->second += v;
    } else {
      entries_.emplace(it, id, v);
    }
  }

  /// Merges `other` into this map, summing values of equal ids.
  /// Linear two-pointer merge: O(|this| + |other|).
  void merge_add(const ValueMap& other) {
    std::vector<value_type> merged;
    merged.reserve(entries_.size() + other.entries_.size());
    auto a = entries_.cbegin();
    auto b = other.entries_.cbegin();
    while (a != entries_.cend() && b != other.entries_.cend()) {
      if (a->first < b->first) {
        merged.push_back(*a++);
      } else if (b->first < a->first) {
        merged.push_back(*b++);
      } else {
        merged.emplace_back(a->first, a->second + b->second);
        ++a;
        ++b;
      }
    }
    merged.insert(merged.end(), a, entries_.cend());
    merged.insert(merged.end(), b, other.entries_.cend());
    entries_ = std::move(merged);
  }

  /// As merge_add(), but the other side is a run of `count` entries that
  /// `next()` yields one at a time in strictly ascending id order. The
  /// caller validates that order, typically while decoding the run straight
  /// off the wire (net::merge_pairs_from), so no intermediate map is built.
  /// The result is written into a fresh buffer reserved to size() + count,
  /// exactly as merge_add() does; if `next()` throws, the map is unchanged.
  template <typename Next>
  void merge_add_run(std::size_t count, Next next) {
    std::vector<value_type> merged;
    merged.reserve(entries_.size() + count);
    auto a = entries_.cbegin();
    const auto a_end = entries_.cend();
    std::size_t taken = 0;
    if (count != 0) {
      value_type b = next();
      while (a != a_end) {
        if (a->first < b.first) {
          merged.push_back(*a++);
          continue;
        }
        if (a->first == b.first) {
          merged.emplace_back(b.first, a->second + b.second);
          ++a;
        } else {
          merged.push_back(b);
        }
        if (++taken == count) break;
        b = next();
      }
      if (a == a_end && taken < count) {
        merged.push_back(b);
        while (++taken < count) merged.push_back(next());
      }
    }
    merged.insert(merged.end(), a, a_end);
    entries_ = std::move(merged);
  }

  [[nodiscard]] Value value_of(Id id) const {
    auto it = lower_bound(id);
    return (it != entries_.end() && it->first == id) ? it->second : Value{};
  }

  [[nodiscard]] bool contains(Id id) const {
    auto it = lower_bound(id);
    return it != entries_.end() && it->first == id;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const { return entries_.cbegin(); }
  [[nodiscard]] const_iterator end() const { return entries_.cend(); }

  /// Sum of all values.
  [[nodiscard]] Value total() const {
    Value t{};
    for (const auto& [id, v] : entries_) t += v;
    return t;
  }

  /// Multiplies every value by `factor` in place.
  void scale(Value factor) {
    for (auto& e : entries_) e.second *= factor;
  }

  /// Removes every entry for which `pred(id, value)` is false.
  template <typename Pred>
  void retain(Pred pred) {
    std::erase_if(entries_, [&](const value_type& e) {
      return !pred(e.first, e.second);
    });
  }

  void reserve(std::size_t n) { entries_.reserve(n); }
  void clear() { entries_.clear(); }

  friend bool operator==(const ValueMap&, const ValueMap&) = default;

 private:
  [[nodiscard]] auto lower_bound(Id id) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const value_type& e, Id key) { return e.first < key; });
  }
  [[nodiscard]] auto lower_bound(Id id) const {
    return std::lower_bound(
        entries_.cbegin(), entries_.cend(), id,
        [](const value_type& e, Id key) { return e.first < key; });
  }

  std::vector<value_type> entries_;
};

}  // namespace nf
