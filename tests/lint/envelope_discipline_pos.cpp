// nf-lint fixture: nf-envelope-discipline must fire three times — the
// direct send_flat_tagged call, the raw Envelope construction, and the
// kNoSession reference — because this file declares a Phase component.
// Never compiled; lexed by tools/nf-lint only.
#include <cstdint>
#include <vector>

namespace net {
struct Phase {};
struct Envelope {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};
inline constexpr std::uint32_t kNoSession = 0xFFFFFFFFu;
struct Ctx {
  void send_flat_tagged(std::uint32_t, std::uint64_t, std::uint32_t,
                        std::uint32_t) {}
  std::vector<Envelope> queue;
};
}  // namespace net

namespace fixture {

class RogueBroadcast : public net::Phase {
 public:
  void on_round(net::Ctx& ctx) {
    ctx.send_flat_tagged(1, 64, 7, 0);  // hand-threads session/phase ids
    ctx.queue.push_back(net::Envelope{0, 1});  // bypasses the mux tags
    session_ = net::kNoSession;  // detaches traffic from its session
  }

 private:
  std::uint32_t session_ = 0;
};

}  // namespace fixture
