#include <gtest/gtest.h>

#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "sim/world.hpp"

namespace spider {
namespace {

std::vector<Site> geo_sites() {
  return {Site{Region::Virginia, 0}, Site{Region::Oregon, 0}, Site{Region::Ireland, 0},
          Site{Region::Tokyo, 0}};
}

template <typename MakeClient>
std::pair<KvReply, Duration> run_write(World& world, MakeClient& client, const std::string& key,
                                       const std::string& value,
                                       Duration timeout = 30 * kSecond) {
  KvReply out;
  Duration lat = -1;
  client.write(kv_put(key, to_bytes(value)), [&](Bytes result, Duration l) {
    out = kv_decode_reply(result);
    lat = l;
  });
  Time deadline = world.now() + timeout;
  while (lat < 0 && world.now() < deadline) world.queue().run_next();
  return {out, lat};
}

template <typename MakeClient>
std::pair<KvReply, Duration> run_weak_read(World& world, MakeClient& client,
                                           const std::string& key,
                                           Duration timeout = 30 * kSecond) {
  KvReply out;
  Duration lat = -1;
  client.weak_read(kv_get(key), [&](Bytes result, Duration l) {
    out = kv_decode_reply(result);
    lat = l;
  });
  Time deadline = world.now() + timeout;
  while (lat < 0 && world.now() < deadline) world.queue().run_next();
  return {out, lat};
}

/// Submits an op the KV app cannot decode (unknown opcode), then a valid
/// put. Every replica must cache the same rejection reply so the client's
/// one outstanding op is answered and its next op is not stuck behind it.
template <typename Client>
void expect_malformed_op_rejected(World& world, Client& client) {
  Bytes bad_result;
  Duration bad_lat = -1;
  client.write(Bytes{0x07}, [&](Bytes result, Duration l) {
    bad_result = std::move(result);
    bad_lat = l;
  });
  Time deadline = world.now() + 30 * kSecond;
  while (bad_lat < 0 && world.now() < deadline) world.queue().run_next();
  ASSERT_GE(bad_lat, 0) << "malformed op got no reply quorum";
  EXPECT_FALSE(kv_decode_reply(bad_result).ok);

  auto [reply, lat] = run_write(world, client, "k", "v");
  ASSERT_GE(lat, 0) << "the op after the malformed one never completed";
  EXPECT_TRUE(reply.ok);
}

// ----------------------------------------------------------------- BFT

TEST(BaselineBft, WriteCompletesOverWan) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = run_write(world, *client, "k", "v");
  ASSERT_TRUE(reply.ok);
  // Full consensus over wide-area links: order of a WAN round trip.
  EXPECT_GT(lat, 60 * kMillisecond);
  EXPECT_LT(lat, 400 * kMillisecond);
}

TEST(BaselineBft, StateConsistentAcrossReplicas) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Oregon, 0});
  ASSERT_TRUE(run_write(world, *client, "k", "v").first.ok);
  world.run_for(2 * kSecond);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    KvReply r = kv_decode_reply(sys.replica(i).app().execute_readonly(kv_get("k")));
    EXPECT_TRUE(r.ok) << i;
  }
}

TEST(BaselineBft, WeakReadNeedsWanQuorum) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = run_weak_read(world, *client, "nope");
  EXPECT_FALSE(reply.ok);
  // f+1 matching replies require at least the second-closest replica
  // (Oregon, 68 ms RTT) — weak reads are NOT local in flat BFT (Fig. 8b).
  EXPECT_GT(lat, 60 * kMillisecond);
}

TEST(BaselineBft, SequentialWritesSucceed) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Tokyo, 0});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(run_write(world, *client, "k" + std::to_string(i), "v").first.ok) << i;
  }
}

TEST(BaselineBft, CrashedFollowerTolerated) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  world.net().set_node_down(sys.replica(3).id(), true);
  auto client = sys.make_client(Site{Region::Virginia, 0});
  EXPECT_TRUE(run_write(world, *client, "k", "v").first.ok);
}

TEST(BaselineBft, LeaderCrashCausesWanViewChange) {
  World world(1);
  BftConfig cfg{geo_sites()};
  cfg.request_timeout = kSecond;
  cfg.view_change_timeout = 2 * kSecond;
  BftSystem sys(world, cfg);
  world.net().set_node_down(sys.replica(0).id(), true);
  auto client = sys.make_client(Site{Region::Ireland, 0});
  auto [reply, lat] = run_write(world, *client, "k", "v");
  EXPECT_TRUE(reply.ok);
  EXPECT_GE(sys.replica(1).consensus().view(), 1u);
}

TEST(BaselineBft, Spider0EConfiguration) {
  // Spider-0E: the agreement group executes requests itself, placed in
  // Virginia AZs (paper Figure 9a).
  World world(1);
  std::vector<Site> azs = {Site{Region::Virginia, 0}, Site{Region::Virginia, 1},
                           Site{Region::Virginia, 2}, Site{Region::Virginia, 3}};
  BftSystem sys(world, BftConfig{azs});
  auto near = sys.make_client(Site{Region::Virginia, 0});
  auto far = sys.make_client(Site{Region::Tokyo, 0});
  auto [r1, lat_near] = run_write(world, *near, "a", "1");
  auto [r2, lat_far] = run_write(world, *far, "b", "2");
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_LT(lat_near, 30 * kMillisecond);
  EXPECT_GT(lat_far, 150 * kMillisecond);  // dominated by client WAN RTT
}

TEST(BaselineBft, MalformedOpIsRejectedWithoutStallingExecution) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  expect_malformed_op_rejected(world, *client);
  world.run_for(2 * kSecond);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_EQ(sys.replica(i).executed_seq(), 2u) << i;
    EXPECT_EQ(sys.replica(i).app().snapshot(), sys.replica(0).app().snapshot()) << i;
  }
}

TEST(BaselineBft, DirectStrongReadFallsBackToOrdering) {
  // Flat-BFT strong reads first query every replica directly and need 2f+1
  // matching replies. With one replica cut off from the client and another
  // corrupting its replies that quorum never forms, so after
  // kDirectReadFallbackRetries attempts the read must go through ordering.
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(run_write(world, *client, "k", "v").first.ok);
  world.run_for(2 * kSecond);
  ASSERT_EQ(sys.replica(0).executed_seq(), 1u);

  const NodeId cid = client->id();
  const NodeId cut = sys.replica(3).id();
  world.net().set_link_filter([cid, cut](NodeId from, NodeId to) {
    return !((from == cid && to == cut) || (from == cut && to == cid));
  });
  sys.replica(2).corrupt_replies = true;

  const std::uint64_t retries_before = client->retries();
  const Time fired = world.now();
  KvReply out;
  Duration lat = -1;
  Time done_at = 0;
  client->fire(OpKind::StrongRead, kv_get("k"), [&](Bytes result, Duration l) {
    out = kv_decode_reply(result);
    lat = l;
    done_at = world.now();
  });
  Time deadline = world.now() + 120 * kSecond;
  while (lat < 0 && world.now() < deadline) world.queue().run_next();
  ASSERT_GE(lat, 0) << "strong read never completed";
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(to_string(out.value), "v");
  // Every direct attempt but the last was a retransmission.
  EXPECT_GE(client->retries() - retries_before, SpiderClient::kDirectReadFallbackRetries - 1);
  // The read was ordered: it took a sequence number at the correct replicas.
  EXPECT_EQ(sys.replica(0).executed_seq(), 2u);
  EXPECT_EQ(sys.replica(1).executed_seq(), 2u);
  // A fire()d op reports sojourn latency, direct attempts included.
  EXPECT_EQ(lat, done_at - fired);
  EXPECT_GT(lat, 2 * kSecond);
}

// ----------------------------------------------------------------- BFT-WV

TEST(BaselineBftWv, WeightedVotingOrders) {
  World world(1);
  std::vector<Site> sites = geo_sites();
  sites.push_back(Site{Region::SaoPaulo, 0});
  BftConfig cfg{sites};
  cfg.weights = {2, 2, 1, 1, 1};  // WHEAT: Vmax on Virginia and Oregon
  cfg.quorum_weight = 5;
  BftSystem sys(world, cfg);
  auto client = sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = run_write(world, *client, "k", "v");
  ASSERT_TRUE(reply.ok);
  // Fast quorum V(2)+O(2)+I(1): not slower than plain BFT.
  EXPECT_LT(lat, 400 * kMillisecond);
}

// ----------------------------------------------------------------- HFT

TEST(BaselineHft, WriteCompletes) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = run_write(world, *client, "k", "v");
  ASSERT_TRUE(reply.ok);
  EXPECT_GT(lat, 30 * kMillisecond);   // wide-area accept exchange
  EXPECT_LT(lat, 500 * kMillisecond);
}

TEST(BaselineHft, AllSitesExecute) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Ireland, 0});
  ASSERT_TRUE(run_write(world, *client, "k", "v").first.ok);
  world.run_for(2 * kSecond);
  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    KvReply r = kv_decode_reply(sys.replica(s, 0).app().execute_readonly(kv_get("k")));
    EXPECT_TRUE(r.ok) << "site " << s;
  }
}

TEST(BaselineHft, WeakReadsAreLocal) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Tokyo, 0});
  auto [reply, lat] = run_weak_read(world, *client, "nope");
  EXPECT_FALSE(reply.ok);
  EXPECT_LT(lat, 5 * kMillisecond);  // answered by the local site (Fig. 8b)
}

TEST(BaselineHft, RemoteSiteSlowerThanLeaderSite) {
  World world(1);
  HftSystem sys(world, HftConfig{});  // leader site Virginia
  auto va = sys.make_client(Site{Region::Virginia, 0});
  auto tk = sys.make_client(Site{Region::Tokyo, 0});
  auto [r1, lat_va] = run_write(world, *va, "a", "1");
  auto [r2, lat_tk] = run_write(world, *tk, "b", "2");
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_LT(lat_va, lat_tk);
}

TEST(BaselineHft, SequentialWritesFromMultipleSites) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto va = sys.make_client(Site{Region::Virginia, 0});
  auto ir = sys.make_client(Site{Region::Ireland, 0});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(run_write(world, *va, "va" + std::to_string(i), "v").first.ok);
    ASSERT_TRUE(run_write(world, *ir, "ir" + std::to_string(i), "v").first.ok);
  }
  world.run_for(2 * kSecond);
  // Same total order everywhere: all sites executed all 6 writes.
  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    EXPECT_EQ(sys.replica(s, 1).executed_seq(), 6u) << "site " << s;
  }
}

TEST(BaselineHft, ConcurrentSubmissionBothOrdered) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto va = sys.make_client(Site{Region::Virginia, 0});
  auto tk = sys.make_client(Site{Region::Tokyo, 0});
  int done = 0;
  va->write(kv_put("a", to_bytes(std::string("1"))), [&](Bytes, Duration) { ++done; });
  tk->write(kv_put("b", to_bytes(std::string("2"))), [&](Bytes, Duration) { ++done; });
  Time deadline = world.now() + 30 * kSecond;
  while (done < 2 && world.now() < deadline) world.queue().run_next();
  EXPECT_EQ(done, 2);
}

TEST(BaselineHft, MalformedOpIsRejectedWithoutStallingExecution) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  expect_malformed_op_rejected(world, *client);
  world.run_for(2 * kSecond);
  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    EXPECT_EQ(sys.replica(s, 1).executed_seq(), 2u) << "site " << s;
    EXPECT_EQ(sys.replica(s, 1).app().snapshot(), sys.replica(0, 1).app().snapshot())
        << "site " << s;
  }
}

}  // namespace
}  // namespace spider
