// nf-lint fixture: the same Phase component as envelope_discipline_pos.cpp
// with every site suppressed (pretend this is a runtime-internal shim that
// legitimately owns its tags). nf-lint must report nothing for
// nf-envelope-discipline.
#include <cstdint>
#include <vector>

namespace net {
struct Phase {};
struct Envelope {  // nf-lint: nf-envelope-discipline-ok (the definition)
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};
// nf-lint: nf-envelope-discipline-ok (the definition)
inline constexpr std::uint32_t kNoSession = 0xFFFFFFFFu;
struct Ctx {
  // nf-lint: nf-envelope-discipline-ok (declaration, not a call site)
  void send_flat_tagged(std::uint32_t, std::uint64_t, std::uint32_t,
                        std::uint32_t) {}
  std::vector<Envelope> queue;
};
}  // namespace net

namespace fixture {

class RuntimeShim : public net::Phase {
 public:
  void on_round(net::Ctx& ctx) {
    // nf-lint: nf-envelope-discipline-ok (the shim owns its tags)
    ctx.send_flat_tagged(1, 64, 7, 0);
    // nf-lint: nf-envelope-discipline-ok (control traffic, untagged by design)
    ctx.queue.push_back(net::Envelope{0, 1});
    session_ = net::kNoSession;  // nf-lint: nf-envelope-discipline-ok
  }

 private:
  std::uint32_t session_ = 0;
};

}  // namespace fixture
