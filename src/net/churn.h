// Churn schedules: scripted peer failures, departures and (re)joins.
//
// The paper assumes stable peers are recruited so that churn during a
// netFilter run is rare (§III-A), but the hierarchy must survive it
// (§III-A.3). A ChurnSchedule is a deterministic script of liveness flips
// that the engine applies at round boundaries; tests and the churn ablation
// bench build schedules by hand or randomly from a seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"

namespace nf::net {

enum class ChurnEventType : std::uint8_t { kFail, kJoin };

struct ChurnEvent {
  std::uint64_t round;
  ChurnEventType type;
  PeerId peer;
};

class ChurnSchedule {
 public:
  ChurnSchedule() = default;

  void fail_at(std::uint64_t round, PeerId peer) {
    events_.push_back({round, ChurnEventType::kFail, peer});
  }
  void join_at(std::uint64_t round, PeerId peer) {
    events_.push_back({round, ChurnEventType::kJoin, peer});
  }

  /// Events scheduled for exactly `round`, in insertion order.
  [[nodiscard]] std::vector<ChurnEvent> events_at(std::uint64_t round) const {
    std::vector<ChurnEvent> out;
    for (const auto& e : events_) {
      if (e.round == round) out.push_back(e);
    }
    return out;
  }

  [[nodiscard]] const std::vector<ChurnEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

 private:
  std::vector<ChurnEvent> events_;
};

}  // namespace nf::net
