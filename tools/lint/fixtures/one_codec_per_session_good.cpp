// Known-good fixture: parties hold the session's one codec through a
// shared const pointer. Accessors returning a reference, a factory
// returning the pointer, and a local codec inside a function body are not
// data members; one-codec-per-session must stay silent here.
#include <cstddef>
#include <memory>

namespace lsa::coding {
template <class F>
class MaskCodec {
 public:
  MaskCodec(std::size_t n, std::size_t u, std::size_t t, std::size_t d) {}
};
}  // namespace lsa::coding

namespace fx {
struct Fp {};
using SessionCodec = lsa::coding::MaskCodec<Fp>;

inline std::shared_ptr<const SessionCodec> session_codec(std::size_t n) {
  return std::make_shared<const SessionCodec>(n, n, 0, 1);
}

inline std::size_t probe(std::size_t n) {
  SessionCodec probe_codec{n, n, 0, 1};  // a local, gone on return
  (void)probe_codec;
  return n;
}

class SharingDevice {
 public:
  explicit SharingDevice(std::shared_ptr<const SessionCodec> codec)
      : codec_(std::move(codec)) {}
  [[nodiscard]] const SessionCodec& codec() const { return *codec_; }
  [[nodiscard]] const lsa::coding::MaskCodec<Fp>& raw() const {
    return *codec_;
  }

 private:
  std::shared_ptr<const lsa::coding::MaskCodec<Fp>> codec_;
};
}  // namespace fx
