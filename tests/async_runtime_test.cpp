// Asynchronous LightSecAgg as distributed state machines (App. F through
// the wire-format router): mixed-staleness aggregation, delayed-user and
// crash semantics, share lifecycle, multi-cycle operation, the per-cycle
// arrival bound the serial drive's mailboxes are sized for, and the
// manifest checks (future updates, zero or out-of-range weights, shares a
// device does not hold).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "field/random_field.h"
#include "quant/staleness.h"
#include "runtime/async_machines.h"

namespace {

using Fp = lsa::runtime::AsyncNetwork::Fp;
using rep = Fp::rep;
using Arrival = lsa::runtime::AsyncNetwork::Arrival;

constexpr std::size_t kN = 10, kT = 2, kU = 7, kD = 32;
constexpr std::size_t kBufferK = 4;
constexpr std::uint64_t kCg = 1u << 6;

lsa::protocol::Params make_params() {
  lsa::protocol::Params p;
  p.num_users = kN;
  p.privacy = kT;
  p.dropout = kN - kU;
  p.target_survivors = kU;
  p.model_dim = kD;
  return p;
}

std::vector<rep> random_update(std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  return lsa::field::uniform_vector<Fp>(kD, rng);
}

/// Runs `fn`, expecting a ProtocolError whose message contains `what`.
template <class Fn>
void expect_protocol_error(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no ProtocolError; expected \"" << what << "\"";
  } catch (const lsa::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

/// Plaintext reference: sum_b w_b * update_b with the same quantized
/// staleness weights the protocol uses.
std::vector<rep> expected_weighted_sum(
    const std::vector<Arrival>& arrivals, std::uint64_t now,
    const lsa::quant::StalenessPolicy& policy) {
  std::vector<rep> out(kD, Fp::zero);
  for (const auto& a : arrivals) {
    const auto w = lsa::quant::quantized_staleness_weight(
        policy, now - a.born_round, kCg);
    lsa::field::axpy_inplace<Fp>(std::span<rep>(out), Fp::from_u64(w),
                                 std::span<const rep>(a.update));
  }
  return out;
}

TEST(AsyncRuntime, UniformStalenessMatchesPlainWeightedSum) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 3);

  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, /*born_round=*/5, random_update(100 + b)});
  }
  const auto out = net.run_cycle(/*now=*/5, arrivals);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 5, constant));
  EXPECT_EQ(out.weight_sum, kBufferK * kCg);  // s(0) = 1 exactly
}

TEST(AsyncRuntime, MixedStalenessPolyWeighting) {
  // Updates born at rounds 2, 4, 7, 8 aggregated at round 8 with
  // Poly(alpha=1): weights c_g/(1+tau), tau in {6, 4, 1, 0} — the exact
  // App. F.3.3 combination of shares generated in different rounds.
  lsa::quant::StalenessPolicy poly{
      lsa::quant::StalenessKind::kPolynomial, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, poly, kCg, 5);

  std::vector<Arrival> arrivals{{1, 2, random_update(201)},
                                {3, 4, random_update(202)},
                                {5, 7, random_update(203)},
                                {8, 8, random_update(204)}};
  const auto out = net.run_cycle(/*now=*/8, arrivals);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 8, poly));
  // Weight sum: 64/7 + 64/5 + 64/2 + 64 -> llround: 9 + 13 + 32 + 64.
  EXPECT_EQ(out.weight_sum, 9u + 13u + 32u + 64u);
}

TEST(AsyncRuntime, ContributorCrashAfterUploadStillIncluded) {
  // The async "delayed user": its masked update is buffered, then it
  // crashes. The surviving users' weighted shares still cancel its mask.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 7);

  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, 3, random_update(300 + b)});
  }
  const auto out =
      net.run_cycle(/*now=*/4, arrivals, /*crash_before_recovery=*/{0, 1});
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 4, constant));
}

TEST(AsyncRuntime, TooFewReachableUsersAborts) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 9);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, 1, random_update(400 + b)});
  }
  // Crash 4 users: only 6 < U = 7 can respond.
  EXPECT_THROW((void)net.run_cycle(1, arrivals, {0, 1, 2, 3}),
               lsa::ProtocolError);
}

TEST(AsyncRuntime, CycleAtTheArrivalBoundMatchesPlainWeightedSum) {
  // max(N, K) = N arrivals: every user contributes in one cycle, which
  // fills each mailbox to the bound the router was sized for.
  lsa::quant::StalenessPolicy poly{
      lsa::quant::StalenessKind::kPolynomial, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, poly, kCg, 17);
  ASSERT_EQ(net.max_arrivals(), kN);
  std::vector<Arrival> arrivals;
  for (std::size_t u = 0; u < kN; ++u) {
    arrivals.push_back({u, /*born_round=*/6 + u % 3, random_update(800 + u)});
  }
  const auto out = net.run_cycle(/*now=*/8, arrivals);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 8, poly));
}

TEST(AsyncRuntime, OversizedCycleThrowsBeforeSending) {
  // Past max(N, K) arrivals the cycle is rejected up front, with nothing
  // sent. At queue_capacity() + 1 arrivals the server's mailbox would
  // overflow and the single-threaded drive would block forever on
  // backpressure, with nobody left to drain it.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 19);
  std::vector<Arrival> arrivals;
  for (const std::size_t count :
       {net.max_arrivals() + 1, net.router().queue_capacity() + 1}) {
    arrivals.clear();
    for (std::size_t b = 0; b < count; ++b) {
      arrivals.push_back({b % kN, 1, random_update(900 + b)});
    }
    EXPECT_THROW((void)net.run_cycle(1, arrivals), lsa::ProtocolError)
        << count << " arrivals";
    EXPECT_EQ(net.router().frames_sent(), 0u);
    EXPECT_EQ(net.server().buffered(), 0u);
  }

  // The network stays usable for a cycle within the bound.
  arrivals.resize(kBufferK);
  const auto out = net.run_cycle(1, arrivals);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 1, constant));
}

TEST(AsyncRuntime, SharesAreConsumedAfterAggregation) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 11);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, 2, random_update(500 + b)});
  }
  (void)net.run_cycle(2, arrivals);
  // Every user's store must be empty: all manifested shares were consumed.
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(net.user(j).stored_shares(), 0u) << "user " << j;
  }
}

TEST(AsyncRuntime, MultipleCyclesWithInterleavedTimestamps) {
  lsa::quant::StalenessPolicy poly{
      lsa::quant::StalenessKind::kPolynomial, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, poly, kCg, 13);

  for (std::uint64_t cycle = 0; cycle < 3; ++cycle) {
    const std::uint64_t now = 10 * (cycle + 1);
    std::vector<Arrival> arrivals;
    for (std::size_t b = 0; b < kBufferK; ++b) {
      arrivals.push_back({(2 * b + cycle) % kN, now - b,
                          random_update(600 + 10 * cycle + b)});
    }
    const auto out = net.run_cycle(now, arrivals);
    EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, now, poly))
        << "cycle " << cycle;
  }
}

TEST(AsyncRuntime, ResultBroadcastReachesEveryUser) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 15);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b + 2, 6, random_update(700 + b)});
  }
  const auto out = net.run_cycle(6, arrivals);
  for (std::size_t j = 0; j < kN; ++j) {
    ASSERT_TRUE(net.user(j).last_result().has_value()) << j;
    EXPECT_EQ(*net.user(j).last_result(), out.weighted_sum) << j;
  }
}

TEST(AsyncRuntime, SameUserTwiceInOneCycleMatchesPlainWeightedSum) {
  // One user's updates born at rounds 10 and 11 sit in the same buffer:
  // its two timestamped masks live in separate per-round banks and both
  // cancel in the one-shot weighted recovery.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), /*buffer_k=*/2, constant,
                                 kCg, 21);
  std::vector<Arrival> arrivals{{1, 10, random_update(1001)},
                                {1, 11, random_update(1002)}};
  const auto out = net.run_cycle(/*now=*/12, arrivals);
  EXPECT_EQ(out.weighted_sum, expected_weighted_sum(arrivals, 12, constant));
  EXPECT_EQ(out.weight_sum, 2 * kCg);
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(net.user(j).stored_shares(), 0u) << "user " << j;
  }
}

TEST(AsyncRuntime, AllWeightsRoundingToZeroThrows) {
  // Poly(alpha=4) at tau = 100: s(tau) = 101^-4 ~ 1e-8, and c_g * s
  // rounds to 0 for every update. Surfaced, never a division by zero.
  lsa::quant::StalenessPolicy poly{
      lsa::quant::StalenessKind::kPolynomial, 4.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, poly, /*c_g=*/2,
                                 23);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, 0, random_update(1100 + b)});
  }
  expect_protocol_error([&] { (void)net.run_cycle(/*now=*/100, arrivals); },
                        "all weights rounded to zero");
}

TEST(AsyncRuntime, UpdateBornAfterNowThrows) {
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 25);
  std::vector<Arrival> arrivals;
  for (std::size_t b = 0; b < kBufferK; ++b) {
    arrivals.push_back({b, /*born_round=*/5 + b, random_update(1200 + b)});
  }
  expect_protocol_error([&] { (void)net.run_cycle(/*now=*/6, arrivals); },
                        "update from future");
}

TEST(AsyncRuntime, StalenessWeightBeyondWireRangeThrowsBeforeManifest) {
  // c_g = 2^33 with constant staleness makes every weight 2^33 > p. The
  // manifest carries weights as field elements, so such a weight must be
  // refused before anything is broadcast: truncated to 32 bits it would
  // silently zero the weighted sum, and in [p, 2^32) every user's frame
  // parse would fail mid-cycle.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant,
                                 /*c_g=*/1ull << 33, 27);
  for (std::size_t b = 0; b < kBufferK; ++b) {
    const auto update = random_update(1300 + b);
    net.user(b).submit_update(/*born_round=*/4, update);
  }
  net.pump();
  const auto sent = net.router().frames_sent();
  expect_protocol_error([&] { net.server().begin_recovery(/*now=*/4); },
                        "staleness weight exceeds wire range");
  EXPECT_EQ(net.router().frames_sent(), sent);  // no manifest went out
}

TEST(AsyncRuntime, ManifestNamingAnUnheldShareThrows) {
  // User 2 shared its mask for born round 3; a manifest that claims its
  // update was born at round 4 names a share no device holds.
  lsa::quant::StalenessPolicy constant{
      lsa::quant::StalenessKind::kConstant, 1.0};
  lsa::runtime::AsyncNetwork net(make_params(), kBufferK, constant, kCg, 29);
  net.user(2).submit_update(/*born_round=*/3, random_update(1400));
  net.pump();
  ASSERT_EQ(net.user(0).stored_shares(), 1u);

  const std::vector<rep> manifest{/*user=*/2, /*born_round=*/4,
                                  /*weight=*/1};
  net.router().send_row(lsa::runtime::MsgType::kBufferManifest,
                        /*sender=*/kN, /*receiver=*/0, /*round=*/4,
                        std::span<const rep>(manifest));
  expect_protocol_error([&] { net.pump(); }, "missing timestamped share");
}

}  // namespace
