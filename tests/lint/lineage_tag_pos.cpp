// nf-lint fixture: the lineage half of nf-envelope-discipline must fire —
// the kNoLineage references and the hand-written envelope lineage
// assignment — because this file declares a Phase component (one derived
// through agg::PushSumPhase, as the sparse push-sum is). Sends inside
// Phase components must carry their causal tags via ctx.cause() / an
// explicit parents span; the engine stamps ids in canonical merge order.
// Never compiled; lexed by tools/nf-lint only.
#include <cstdint>

namespace obs {
using LineageId = std::uint64_t;
inline constexpr LineageId kNoLineage = 0;
}  // namespace obs

namespace net {
struct Phase {};
struct Packet {
  std::uint64_t lineage = 0;
};
struct Ctx {
  Packet out;
  void send(std::uint32_t, std::uint64_t) {}
};
}  // namespace net

namespace agg {
// An intermediate base: its subclasses are Phase components too.
struct PushSumPhase : net::Phase {};
}  // namespace agg

namespace fixture {

class UntaggedForwarder : public agg::PushSumPhase {
 public:
  void on_round(net::Ctx& ctx) {
    parent_ = obs::kNoLineage;  // hand-rolls "no parent"
    ctx.out.lineage = 42;  // stamps an id the engine owns
    ctx.send(1, 64);
  }

 private:
  obs::LineageId parent_ = 0;
};

}  // namespace fixture
