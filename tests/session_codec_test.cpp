// One MaskCodec per session: every party of a sync or async session (and
// of the serial reference drives) holds the same immutable codec, and a
// party refuses a codec built for other (N, U, T, d).
#include <gtest/gtest.h>

#include <memory>

#include "runtime/async_machines.h"
#include "runtime/machines.h"
#include "server/aggregation_server.h"
#include "transport/concurrent_router.h"

namespace {

using lsa::runtime::SessionCodec;

lsa::protocol::Params small_params() {
  lsa::protocol::Params p;
  p.num_users = 8;
  p.privacy = 2;
  p.dropout = 3;
  p.target_survivors = 5;
  p.model_dim = 16;
  p.validate_and_resolve();
  return p;
}

/// True when every one of the n users exposes the server's codec object.
template <class Drive>
bool users_share_server_codec(Drive& drive, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (&drive.user(i).codec() != &drive.server().codec()) return false;
  }
  return true;
}

TEST(SessionCodec, EveryPartyOfASessionSharesOneCodec) {
  const auto p = small_params();
  const std::size_t n = p.num_users;

  lsa::server::Session sync_a(lsa::server::SessionConfig{.params = p});
  lsa::server::Session sync_b(lsa::server::SessionConfig{.params = p});
  EXPECT_TRUE(users_share_server_codec(sync_a, n));
  // Per session, not per process: the decode-plan cache stays the
  // session's own.
  EXPECT_NE(&sync_a.server().codec(), &sync_b.server().codec());

  lsa::server::AsyncSessionConfig acfg;
  acfg.params = p;
  acfg.buffer_k = 3;
  lsa::server::AsyncSession async_a(acfg);
  lsa::server::AsyncSession async_b(acfg);
  EXPECT_TRUE(users_share_server_codec(async_a, n));
  EXPECT_NE(&async_a.server().codec(), &async_b.server().codec());

  lsa::runtime::Network net(p, /*seed=*/1);
  EXPECT_TRUE(users_share_server_codec(net, n));

  lsa::runtime::AsyncNetwork anet(p, /*buffer_k=*/3, {}, /*c_g=*/64,
                                  /*seed=*/1);
  EXPECT_TRUE(users_share_server_codec(anet, n));
}

TEST(SessionCodec, PartiesRejectMismatchedCodec) {
  const auto p = small_params();
  const std::size_t n = p.num_users, u = p.target_survivors,
                    t = p.privacy, d = p.model_dim;
  lsa::transport::ConcurrentRouter router(n + 1);
  const std::shared_ptr<const SessionCodec> wrong[] = {
      std::make_shared<const SessionCodec>(n + 1, u, t, d),
      std::make_shared<const SessionCodec>(n, u + 1, t, d),
      std::make_shared<const SessionCodec>(n, u, t + 1, d),
      std::make_shared<const SessionCodec>(n, u, t, d + 1),
      nullptr,
  };
  for (const auto& codec : wrong) {
    EXPECT_THROW(lsa::runtime::UserDevice(0, p, codec, 1, router),
                 lsa::ConfigError);
    EXPECT_THROW(lsa::runtime::AggregationServer(p, codec, router),
                 lsa::ConfigError);
    EXPECT_THROW(lsa::runtime::AsyncUserDevice(0, p, codec, 1, router),
                 lsa::ConfigError);
    EXPECT_THROW(
        lsa::runtime::AsyncAggregationServer(p, codec, 3, {}, 64, router),
        lsa::ConfigError);
  }
  // The matching codec is accepted by all four.
  const auto codec = lsa::runtime::session_codec(p);
  EXPECT_NO_THROW(lsa::runtime::UserDevice(0, p, codec, 1, router));
  EXPECT_NO_THROW(lsa::runtime::AggregationServer(p, codec, router));
  EXPECT_NO_THROW(lsa::runtime::AsyncUserDevice(0, p, codec, 1, router));
  EXPECT_NO_THROW(
      lsa::runtime::AsyncAggregationServer(p, codec, 3, {}, 64, router));
}

}  // namespace
