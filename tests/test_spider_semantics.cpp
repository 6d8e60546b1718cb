// Consistency-semantics tests matching the paper's Appendix A.7.9:
// weak-read staleness windows, strong-read placeholders (Lemma A.35),
// client failover between execution groups, and linearizability of
// interleaved multi-client histories (E-Safety II).
#include <gtest/gtest.h>

#include "sim/world.hpp"
#include "spider/system.hpp"
#include "tests/support/drive.hpp"

namespace spider {
namespace {

SpiderTopology topo_small() {
  SpiderTopology t;
  t.exec_regions = {Region::Virginia, Region::Tokyo};
  t.ka = 4;
  t.ke = 4;
  t.ag_win = 16;
  t.commit_capacity = 8;
  t.client_retry = kSecond;
  return t;
}

struct Fx {
  World world;
  SpiderSystem sys;
  explicit Fx(SpiderTopology t = topo_small(), std::uint64_t seed = 3) : world(seed), sys(world, std::move(t)) {}

  // Thin wrappers over the shared deadline-bounded drive helpers.
  KvReply write(SpiderClient& c, const std::string& k, const std::string& v) {
    drive::KvOutcome out = drive::blocking_write(world, c, k, v, 30 * kSecond);
    return KvReply{out.ok, std::move(out.value)};
  }
  KvReply weak(SpiderClient& c, const std::string& k) {
    drive::KvOutcome out = drive::blocking_weak_read(world, c, k, 30 * kSecond);
    return KvReply{out.ok, std::move(out.value)};
  }
  KvReply strong(SpiderClient& c, const std::string& k) {
    drive::KvOutcome out = drive::blocking_strong_read(world, c, k, 30 * kSecond);
    return KvReply{out.ok, std::move(out.value)};
  }
};

TEST(SpiderSemantics, WeakReadsMayBeStaleButConverge) {
  Fx f;
  auto writer = f.sys.make_client(Site{Region::Virginia, 0});
  auto reader = f.sys.make_client(Site{Region::Tokyo, 0});
  ASSERT_TRUE(f.write(*writer, "x", "new").ok);

  // Immediately after the Virginia write completes, the Tokyo group may not
  // have processed the Execute yet: a weak read is allowed to miss it
  // (one-copy serializability, not linearizability).
  KvReply immediate = f.weak(*reader, "x");
  // Either outcome is legal; what must NOT happen is a wrong value.
  if (immediate.ok) {
    EXPECT_EQ(to_string(immediate.value), "new");
  }

  // After propagation, the value is visible (convergence).
  f.world.run_for(2 * kSecond);
  KvReply later = f.weak(*reader, "x");
  EXPECT_TRUE(later.ok);
  EXPECT_EQ(to_string(later.value), "new");
}

TEST(SpiderSemantics, StrongReadNeverStale) {
  Fx f;
  auto writer = f.sys.make_client(Site{Region::Virginia, 0});
  auto reader = f.sys.make_client(Site{Region::Tokyo, 0});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.write(*writer, "x", std::to_string(i)).ok);
    // Strong reads are ordered after the write: always the latest value.
    KvReply r = f.strong(*reader, "x");
    ASSERT_TRUE(r.ok) << i;
    EXPECT_EQ(to_string(r.value), std::to_string(i));
  }
}

TEST(SpiderSemantics, StrongReadPlaceholdersKeepGroupsAligned) {
  Fx f;
  auto writer = f.sys.make_client(Site{Region::Virginia, 0});
  auto tokyo_reader = f.sys.make_client(Site{Region::Tokyo, 0});
  ASSERT_TRUE(f.write(*writer, "k", "v").ok);
  ASSERT_TRUE(f.strong(*tokyo_reader, "k").ok);  // ordered, executed in Tokyo only
  ASSERT_TRUE(f.write(*writer, "k2", "v2").ok);  // later write: all groups
  f.world.run_for(2 * kSecond);

  // Lemma A.35: all groups consumed the same sequence numbers (the read's
  // placeholder advanced Virginia too), so the later write landed at the
  // same position everywhere and states converge.
  GroupId va = f.sys.nearest_group(Region::Virginia);
  GroupId tk = f.sys.nearest_group(Region::Tokyo);
  EXPECT_EQ(f.sys.exec(va, 0).executed_seq(), f.sys.exec(tk, 0).executed_seq());
  EXPECT_EQ(to_string(kv_decode_reply(
                          f.sys.exec(va, 0).app().execute_readonly(kv_get("k2"))).value),
            "v2");
}

TEST(SpiderSemantics, ClientFailoverToAnotherGroup) {
  Fx f;
  auto client = f.sys.make_client(Site{Region::Tokyo, 0});
  GroupId tokyo = client->group().group;
  ASSERT_TRUE(f.write(*client, "pre", "1").ok);

  // More than fe replicas of the Tokyo group become unavailable: the
  // client switches to a different execution group and continues (§3.1).
  for (std::size_t i = 0; i < 2; ++i) {
    f.world.net().set_node_down(f.sys.exec(tokyo, i).id(), true);
  }
  GroupId va = f.sys.nearest_group(Region::Virginia);
  client->switch_group(f.sys.group_info(va));
  KvReply w = f.write(*client, "post", "2");
  EXPECT_TRUE(w.ok);
  KvReply r = f.weak(*client, "pre");  // state is global: the old write is there
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(to_string(r.value), "1");
}

TEST(SpiderSemantics, InterleavedClientsLinearizable) {
  Fx f;
  auto a = f.sys.make_client(Site{Region::Virginia, 0});
  auto b = f.sys.make_client(Site{Region::Tokyo, 0});

  // a and b alternate increments on the same key via read-modify-write at
  // the application level is not possible with a blind KV store, so we
  // check the weaker but still strict property: after any prefix of
  // completed writes, a strong read returns the value of the *last*
  // completed write (real-time order respected — E-Safety II).
  ASSERT_TRUE(f.write(*a, "x", "a1").ok);
  ASSERT_TRUE(f.write(*b, "x", "b1").ok);
  EXPECT_EQ(to_string(f.strong(*a, "x").value), "b1");
  ASSERT_TRUE(f.write(*a, "x", "a2").ok);
  EXPECT_EQ(to_string(f.strong(*b, "x").value), "a2");
}

TEST(SpiderSemantics, RetriedWriteExecutedAtMostOnce) {
  // E-Validity II: a client retry (same counter) must not double-execute.
  Fx f;
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(f.write(*client, "ctr", "1").ok);
  SeqNr before = f.sys.exec(f.sys.nearest_group(Region::Virginia), 0).executed_seq();

  // Manually re-deliver the previous request wire by bumping the retry
  // timer: simplest equivalent is issuing an identical op and verifying the
  // sequence number advanced exactly once per op.
  ASSERT_TRUE(f.write(*client, "ctr", "1").ok);
  SeqNr after = f.sys.exec(f.sys.nearest_group(Region::Virginia), 0).executed_seq();
  EXPECT_EQ(after, before + 1);  // one op -> exactly one slot
}

TEST(SpiderSemantics, WriteSubmittedFromCallbackExecutesOnce) {
  // Closed-loop callers chain the next op from the previous op's completion
  // callback (ShardedClient's mget/mput re-split does too). The chained op
  // must be ordered and executed once, not once per lane restart.
  Fx f;
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  int done = 0;
  client->write(kv_put("a", to_bytes(std::string("1"))), [&](Bytes, Duration) {
    ++done;
    client->write(kv_put("b", to_bytes(std::string("2"))), [&](Bytes, Duration) { ++done; });
  });
  ASSERT_TRUE(drive::run_until(f.world, [&] { return done == 2; }, 30 * kSecond));
  f.world.run_for(5 * kSecond);
  for (GroupId g : f.sys.group_ids()) {
    for (std::size_t i = 0; i < f.sys.group_size(g); ++i) {
      EXPECT_EQ(f.sys.exec(g, i).executed_seq(), 2u) << "group " << g << " replica " << i;
    }
  }
}

TEST(SpiderSemantics, WeakReadSubmittedFromCallbackSendsOneFanOutPerAttempt) {
  Fx f;
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  const NodeId cid = client->id();
  std::size_t requests = 0;
  f.world.net().set_link_filter([&](NodeId from, NodeId) {
    if (from == cid) ++requests;
    return true;
  });
  int done = 0;
  client->weak_read(kv_get("a"), [&](Bytes, Duration) {
    ++done;
    client->weak_read(kv_get("b"), [&](Bytes, Duration) { ++done; });
  });
  ASSERT_TRUE(drive::run_until(f.world, [&] { return done == 2; }, 30 * kSecond));
  f.world.run_for(10 * kSecond);
  EXPECT_EQ(requests, client->group().members.size() * (2 + client->retries()));
}

TEST(SpiderSemantics, WeakReadsServedDuringAgreementOutage) {
  // Paper §3.1: if > fa agreement replicas are unresponsive, ordering
  // stalls but weakly consistent reads keep working in every region.
  Fx f;
  auto client = f.sys.make_client(Site{Region::Tokyo, 0});
  ASSERT_TRUE(f.write(*client, "k", "v").ok);
  f.world.run_for(kSecond);

  for (std::size_t i = 0; i < f.sys.agreement_size(); ++i) {
    f.world.net().set_node_down(f.sys.agreement(i).id(), true);
  }
  KvReply r = f.weak(*client, "k");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(to_string(r.value), "v");
}

}  // namespace
}  // namespace spider
