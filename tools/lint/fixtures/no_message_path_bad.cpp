// Known-bad fixture: a party and a transport keeping the copying Message
// delivery path alive next to the zero-copy one must trip no-message-path.
#include <cstdint>
#include <vector>

namespace lsa::runtime {
struct Message {
  std::uint32_t sender = 0;
  std::vector<std::uint32_t> payload;
};
}  // namespace lsa::runtime

namespace fx {
class LegacyParty {
 public:
  // BAD: a second delivery entry that takes a materialized payload copy
  void handle(const lsa::runtime::Message& m) { last_ = m.payload; }

 private:
  std::vector<std::uint32_t> last_;
};

class LegacyTransport {
 public:
  // BAD: a send entry that needs the caller to build a Message first
  void send(const lsa::runtime::Message& m) { queue_.push_back(m); }

 private:
  std::vector<lsa::runtime::Message> queue_;
};
}  // namespace fx
