// nf-lint fixture: the same Phase component as lineage_tag_pos.cpp with
// every site suppressed (pretend this is a runtime-internal shim that
// legitimately owns lineage stamping). nf-lint must report nothing for
// nf-envelope-discipline.
#include <cstdint>

namespace obs {
using LineageId = std::uint64_t;
// nf-lint: nf-envelope-discipline-ok (the definition)
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

class RuntimeShim : public agg::PushSumPhase {
 public:
  void on_round(net::Ctx& ctx) {
    parent_ = obs::kNoLineage;  // nf-lint: nf-envelope-discipline-ok
    ctx.out.lineage = 42;  // nf-lint: nf-envelope-discipline-ok
    ctx.send(1, 64);
  }

 private:
  obs::LineageId parent_ = 0;
};

}  // namespace fixture
