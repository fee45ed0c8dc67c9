// Distributed runtime: wire format, router fault hooks, and LightSecAgg
// as communicating state machines (including the "delayed user" semantics
// the orchestrated implementation does not model).
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "field/random_field.h"
#include "runtime/machines.h"

namespace {

using namespace lsa::runtime;
using lsa::field::Fp32;
using rep = Fp32::rep;

TEST(Wire, SerializeDeserializeRoundTrip) {
  Message m;
  m.type = MsgType::kAggregatedShares;
  m.sender = 7;
  m.receiver = 12;
  m.round = 0xdeadbeefULL;
  m.payload = {0, 1, 4294967290u, 42};
  const auto frame = serialize(m);
  const auto back = deserialize(frame);
  EXPECT_EQ(back.type, m.type);
  EXPECT_EQ(back.sender, m.sender);
  EXPECT_EQ(back.receiver, m.receiver);
  EXPECT_EQ(back.round, m.round);
  EXPECT_EQ(back.payload, m.payload);
}

TEST(Wire, CorruptionIsDetected) {
  Message m;
  m.payload = {1, 2, 3};
  auto frame = serialize(m);
  frame[kHeaderBytes + 1] ^= 0x40;  // flip a payload bit
  EXPECT_THROW((void)deserialize(frame), lsa::ProtocolError);
}

TEST(Wire, TruncationIsDetected) {
  Message m;
  m.payload = {1, 2, 3};
  auto frame = serialize(m);
  frame.pop_back();
  EXPECT_THROW((void)deserialize(frame), lsa::ProtocolError);
}

TEST(Wire, NonCanonicalElementsRejected) {
  Message m;
  m.payload = {4294967295u};  // >= q = 2^32 - 5
  auto frame = serialize(m);
  EXPECT_THROW((void)deserialize(frame), lsa::ProtocolError);
}

lsa::protocol::Params net_params(std::size_t n, std::size_t t,
                                 std::size_t u, std::size_t d) {
  lsa::protocol::Params p;
  p.num_users = n;
  p.privacy = t;
  p.dropout = n - u;
  p.target_survivors = u;
  p.model_dim = d;
  return p;
}

std::vector<std::vector<rep>> random_models(std::size_t n, std::size_t d,
                                            std::uint64_t seed) {
  lsa::common::Xoshiro256ss rng(seed);
  std::vector<std::vector<rep>> models(n);
  for (auto& m : models) m = lsa::field::uniform_vector<Fp32>(d, rng);
  return models;
}

std::vector<rep> sum_of(const std::vector<std::vector<rep>>& models,
                        const std::vector<std::uint32_t>& users) {
  std::vector<rep> s(models[0].size(), Fp32::zero);
  for (auto u : users) {
    lsa::field::add_inplace<Fp32>(std::span<rep>(s),
                                  std::span<const rep>(models[u]));
  }
  return s;
}

TEST(NetworkRound, NoDropsAggregatesEveryone) {
  Network net(net_params(6, 2, 4, 24), 5);
  auto models = random_models(6, 24, 6);
  auto result = net.run_round(0, models, {});
  std::vector<std::uint32_t> all = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(result, sum_of(models, all));
  // Every live user received the broadcast result.
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(net.user(i).last_result().has_value());
    EXPECT_EQ(*net.user(i).last_result(), result);
  }
}

TEST(NetworkRound, DelayedUsersAreStillIncluded) {
  // Users 1 and 4 crash AFTER their masked models arrive: the aggregate
  // must still include them — their masks are recovered from the encoded
  // shares the others hold. This is Theorem 1's "delayed, not dropped"
  // worst case, which the state-machine runtime models for real.
  Network net(net_params(7, 2, 5, 16), 7);
  auto models = random_models(7, 16, 8);
  auto result = net.run_round(0, models, {1, 4});
  std::vector<std::uint32_t> everyone = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(result, sum_of(models, everyone));
  // The crashed users never saw the result.
  EXPECT_FALSE(net.user(1).last_result().has_value());
  EXPECT_TRUE(net.user(0).last_result().has_value());
}

TEST(NetworkRound, TooManyCrashesFailLoudly) {
  Network net(net_params(6, 1, 5, 8), 9);
  auto models = random_models(6, 8, 10);
  // 5 = U survivors needed, but 2 crash -> only 4 responders.
  EXPECT_THROW((void)net.run_round(0, models, {0, 1}), lsa::ProtocolError);
}

TEST(NetworkRound, MultipleRoundsWithFreshMasksAndRejoins) {
  Network net(net_params(5, 1, 4, 12), 11);
  for (std::uint64_t round = 0; round < 4; ++round) {
    // The previous round's casualty rejoins (cross-device users churn).
    for (std::size_t i = 0; i < 5; ++i) net.router().revive(i);
    auto models = random_models(5, 12, 100 + round);
    auto result = net.run_round(round, models, {round % 5});
    // Crashed user is still included (delayed semantics).
    std::vector<std::uint32_t> all = {0, 1, 2, 3, 4};
    EXPECT_EQ(result, sum_of(models, all)) << "round " << round;
  }
  // Share stores must not grow without bound: users that crashed mid-
  // recovery keep at most the retention window's worth of stale shares
  // (purged at the next round start), everyone else is fully consumed.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_LE(net.user(i).stored_shares(),
              2 * 5 * lsa::runtime::UserDevice::kShareRetentionRounds)
        << "user " << i;
  }
}

TEST(NetworkRound, ServerSeesOnlyMaskedUniformLookingData) {
  // Capture frames to the server during upload; payloads must differ from
  // the raw models (they are masked) — a wire-level privacy smoke check.
  lsa::protocol::Params p = net_params(4, 1, 3, 32);
  Network net(p, 13);
  auto models = random_models(4, 32, 14);

  bool saw_raw_model = false;
  net.router().set_fault_hook([&](std::span<std::uint8_t> frame) {
    Message m = deserialize(frame);
    if (m.type == MsgType::kMaskedModel) {
      if (m.payload == models[m.sender]) saw_raw_model = true;
    }
    return true;
  });
  (void)net.run_round(0, models, {});
  EXPECT_FALSE(saw_raw_model);
}

}  // namespace
