// Known-bad fixture: parties that each build their own copy of the
// session's encoding matrix must trip one-codec-per-session — spelled
// directly, through the runtime alias, and through an in-file alias.
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
using LocalCodec = lsa::coding::MaskCodec<Fp>;

class CopyingDevice {
 public:
  explicit CopyingDevice(std::size_t n) : codec_(n, n, 0, 1) {}

 private:
  // BAD: one N x U matrix per party
  lsa::coding::MaskCodec<Fp> codec_;
};

class CopyingServer {
  // BAD: the same copy behind the runtime alias
  SessionCodec codec_{4, 3, 1, 8};
};

class AliasedDevice {
  // BAD: the same copy behind an in-file alias
  const LocalCodec codec_ = LocalCodec(4, 3, 1, 8);
};
}  // namespace fx
