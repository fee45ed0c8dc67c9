// Heap-allocation pins for hot paths. This binary replaces the global
// operator new with a counting one, so it stays a dedicated test: every
// heap block the process requests between two reads of the counter is
// visible here.
//
//   * a passing lsa::require builds nothing, even with a message longer
//     than libstdc++'s 15-character short-string buffer;
//   * after warm-up, a steady-state send_row -> try_recv -> release cycle
//     on a ConcurrentRouter allocates nothing: frames cycle through the
//     buffer pool's freelist and mailboxes are fixed circular queues.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "common/error.h"
#include "transport/concurrent_router.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
// Escapes a heap pointer so the optimizer cannot elide its new/delete pair.
std::vector<int>* volatile g_sink = nullptr;
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using lsa::field::Fp32;
using lsa::runtime::MsgType;
using lsa::transport::ConcurrentRouter;
using lsa::transport::Inbound;
using rep = Fp32::rep;

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(Alloc, CounterSeesHeapBlocks) {
  // The counter must be live, or the zero checks below prove nothing.
  const auto before = allocs();
  g_sink = new std::vector<int>(100);
  delete g_sink;
  g_sink = nullptr;
  EXPECT_GE(allocs() - before, 2u);
}

TEST(Alloc, PassingRequireBuildsNothing) {
  volatile bool ok = true;  // opaque to the optimizer
  const auto before = allocs();
  for (int k = 0; k < 100; ++k) {
    lsa::require(ok, "a contract message longer than fifteen characters");
    lsa::require<lsa::ProtocolError>(ok, "router: endpoint out of range");
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(Alloc, SteadyStateRouterCycleAllocatesNothing) {
  ConcurrentRouter router(3);
  const std::vector<rep> payload(64, 7);
  Inbound in;
  auto cycle = [&] {
    router.send_row(MsgType::kMaskedModel, 0, 1, 0,
                    std::span<const rep>(payload));
    const bool got = router.try_recv(1, in);
    in.buf.reset();
    return got;
  };
  for (int k = 0; k < 16; ++k) ASSERT_TRUE(cycle());  // warm the pool
  const auto before = allocs();
  int delivered = 0;
  for (int k = 0; k < 1000; ++k) delivered += cycle() ? 1 : 0;
  const auto during = allocs() - before;
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(during, 0u);
}

}  // namespace
