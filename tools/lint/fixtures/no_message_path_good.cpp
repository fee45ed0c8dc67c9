// Known-good fixture: one delivery entry taking a view that aliases the
// frame buffer. Mentioning Message in a comment or a string literal is
// not naming the type; no-message-path must stay silent here.
#include <cstdint>
#include <span>
#include <vector>

namespace fx {
struct FrameView {
  std::uint32_t sender = 0;
  std::span<const std::uint32_t> payload;
};

class Party {
 public:
  // Banks the payload straight into an owned row: the single copy.
  void handle_view(const FrameView& f) {
    row_.assign(f.payload.begin(), f.payload.end());
  }
  [[nodiscard]] const char* describe() const {
    return "no Message materializes here";
  }

 private:
  std::vector<std::uint32_t> row_;
};
}  // namespace fx
