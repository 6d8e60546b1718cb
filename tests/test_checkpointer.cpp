#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "sim/world.hpp"
#include "spider/checkpointer.hpp"

namespace spider {
namespace {

/// Group of 3 hosts (f=1) each with a checkpoint component. The trusted
/// set is shared and extensible, mirroring how the real replicas register
/// members of newly added groups (add_checkpoint_peers).
struct CkptFixture {
  World world{1};
  std::vector<std::unique_ptr<ComponentHost>> hosts;
  std::vector<std::unique_ptr<Checkpointer>> cps;
  std::vector<std::vector<std::pair<SeqNr, Bytes>>> stable;
  std::shared_ptr<std::set<NodeId>> trusted = std::make_shared<std::set<NodeId>>();

  explicit CkptFixture(std::uint32_t n = 3, std::uint32_t f = 1) {
    std::vector<NodeId> ids;
    for (std::uint32_t i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<ComponentHost>(
          world, world.allocate_id(), Site{Region::Virginia, static_cast<std::uint8_t>(i % 3)}));
      ids.push_back(hosts.back()->id());
      trusted->insert(hosts.back()->id());
    }
    stable.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::size_t idx = i;
      cps.push_back(std::make_unique<Checkpointer>(
          *hosts[i], tags::kCheckpoint, ids, f,
          [this, idx](SeqNr s, BytesView state) {
            stable[idx].emplace_back(s, to_bytes(state));
          },
          [t = trusted](NodeId id) { return t->count(id) > 0; }));
    }
  }

  static Bytes state(int v) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(v));
    w.str("checkpoint-state");
    return std::move(w).take();
  }
};

/// Wire bytes of a State message for checkpoint `s` carrying `st` and a
/// proof of `entries` (signer, signature). `count` overrides the proof's
/// entry count, e.g. to claim more entries than it holds.
Bytes state_message(SeqNr s, const Bytes& st,
                    const std::vector<std::pair<NodeId, Bytes>>& entries,
                    std::optional<std::uint32_t> count = std::nullopt) {
  Writer proof;
  proof.u32(count.value_or(static_cast<std::uint32_t>(entries.size())));
  for (const auto& [signer, sig] : entries) {
    proof.u32(signer);
    proof.bytes(sig);
  }
  Writer wire;
  wire.u32(tags::kCheckpoint);
  wire.u8(3);  // State type
  wire.u64(s);
  wire.bytes(st);
  wire.bytes(proof.data());
  return std::move(wire).take();
}

/// The domain-separated bytes a group member signs to vouch for
/// checkpoint `s` with state `st`.
Bytes checkpoint_auth(SeqNr s, const Bytes& st) {
  Sha256Digest h = Sha256::hash(st);
  Writer dom;
  dom.u32(tags::kCheckpoint);
  dom.u8(1);  // Checkpoint type
  dom.u64(s);
  dom.raw(BytesView(h.data(), h.size()));
  return std::move(dom).take();
}

TEST(Checkpointer, StableAfterFPlusOneMatching) {
  CkptFixture f;
  Bytes st = CkptFixture::state(1);
  f.cps[0]->gen_cp(10, st);
  f.cps[1]->gen_cp(10, st);  // f+1 = 2 matching
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[0].size(), 1u);
  EXPECT_EQ(f.stable[0][0].first, 10u);
  EXPECT_EQ(f.stable[0][0].second, st);
  // The third replica also created nothing itself but observes 2 matching
  // checkpoint messages and pulls the state (CP-Liveness).
  ASSERT_EQ(f.stable[2].size(), 1u);
  EXPECT_EQ(f.stable[2][0].second, st);
}

TEST(Checkpointer, SingleReplicaCheckpointNotStable) {
  CkptFixture f;
  f.cps[0]->gen_cp(10, CkptFixture::state(1));
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());  // CP-Safety: need f+1
}

TEST(Checkpointer, MismatchedStatesDoNotCombine) {
  CkptFixture f;
  f.cps[0]->gen_cp(10, CkptFixture::state(1));
  f.cps[1]->gen_cp(10, CkptFixture::state(2));  // diverging snapshot
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());
  // A third matching vote resolves it.
  f.cps[2]->gen_cp(10, CkptFixture::state(1));
  f.world.run_for(kSecond);
  EXPECT_EQ(f.stable[0].size(), 1u);
  EXPECT_EQ(f.stable[0][0].second, CkptFixture::state(1));
}

TEST(Checkpointer, NewerCheckpointSupersedesOlder) {
  CkptFixture f;
  Bytes st10 = CkptFixture::state(10);
  Bytes st20 = CkptFixture::state(20);
  f.cps[0]->gen_cp(10, st10);
  f.cps[1]->gen_cp(10, st10);
  f.world.run_for(kSecond);
  f.cps[0]->gen_cp(20, st20);
  f.cps[1]->gen_cp(20, st20);
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[0].size(), 2u);
  EXPECT_EQ(f.stable[0][1].first, 20u);
  // Old checkpoints arriving late are ignored (monotonically increasing).
  f.cps[2]->gen_cp(10, st10);
  f.world.run_for(kSecond);
  EXPECT_EQ(f.stable[2].back().first, 20u);
}

TEST(Checkpointer, FetchFromGroupPeer) {
  CkptFixture f;
  Bytes st = CkptFixture::state(7);
  f.cps[0]->gen_cp(30, st);
  f.cps[1]->gen_cp(30, st);
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[2].size(), 1u);  // replica 2 already pulled it

  // A fourth, freshly joining host can fetch it too — once the existing
  // replicas trust it (in the real system: registered via the registry /
  // add_checkpoint_peers).
  auto host = std::make_unique<ComponentHost>(f.world, f.world.allocate_id(),
                                              Site{Region::Virginia, 0});
  f.trusted->insert(host->id());
  std::vector<NodeId> group;
  for (auto& h : f.hosts) group.push_back(h->id());
  group.push_back(host->id());
  std::vector<std::pair<SeqNr, Bytes>> got;
  std::vector<NodeId> trusted_group = group;
  Checkpointer joiner(
      *host, tags::kCheckpoint, group, 1,
      [&](SeqNr s, BytesView state) { got.emplace_back(s, to_bytes(state)); },
      [trusted_group](NodeId n) {
        return std::find(trusted_group.begin(), trusted_group.end(), n) != trusted_group.end();
      });
  joiner.fetch_cp(30);
  f.world.run_for(2 * kSecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 30u);
  EXPECT_EQ(got[0].second, st);
}

TEST(Checkpointer, UntrustedFetcherIsIgnored) {
  // A node outside the trusted set can neither pull state nor force the
  // group into on-demand snapshots (Fetch is dropped up front).
  CkptFixture f;
  Bytes st = CkptFixture::state(7);
  f.cps[0]->gen_cp(30, st);
  f.cps[1]->gen_cp(30, st);
  f.world.run_for(kSecond);

  auto outsider = std::make_unique<ComponentHost>(f.world, f.world.allocate_id(),
                                                  Site{Region::Virginia, 0});
  std::vector<NodeId> group;
  for (auto& h : f.hosts) group.push_back(h->id());
  group.push_back(outsider->id());
  std::vector<std::pair<SeqNr, Bytes>> got;
  Checkpointer thief(
      *outsider, tags::kCheckpoint, group, 1,
      [&](SeqNr s, BytesView state) { got.emplace_back(s, to_bytes(state)); });
  thief.fetch_cp(30);
  f.world.run_for(2 * kSecond);
  EXPECT_TRUE(got.empty());
}

TEST(Checkpointer, FetchRetriesUntilAvailable) {
  CkptFixture f;
  f.cps[2]->fetch_cp(10);  // nothing exists yet
  f.world.run_for(kSecond);
  EXPECT_TRUE(f.stable[2].empty());
  // Checkpoint appears later; the retry timer picks it up.
  Bytes st = CkptFixture::state(3);
  f.cps[0]->gen_cp(10, st);
  f.cps[1]->gen_cp(10, st);
  f.world.run_for(3 * kSecond);
  ASSERT_FALSE(f.stable[2].empty());
}

TEST(Checkpointer, ForgedStateRejected) {
  // An attacker replays a State message with a proof that does not verify
  // (signatures from untrusted nodes).
  CkptFixture f;
  ComponentHost evil(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});

  Bytes fake_state = CkptFixture::state(666);
  // Signed by the attacker (twice) — not by group members.
  Bytes sig = f.world.crypto().sign(evil.id(), checkpoint_auth(50, fake_state));
  Bytes wire = state_message(50, fake_state, {{evil.id(), sig}, {evil.id() + 1000, sig}});
  for (auto& hpt : f.hosts) evil.send_to(hpt->id(), wire);

  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());
}

TEST(Checkpointer, HostileProofCountIsDropped) {
  // Any node may send a State message. A proof claiming 2^32-1 entries but
  // holding two valid ones must be dropped as malformed, not crash the
  // receiver or size anything by the claimed count.
  CkptFixture f;
  ComponentHost evil(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  Bytes st = CkptFixture::state(77);
  Bytes auth = checkpoint_auth(50, st);
  NodeId a = f.hosts[0]->id();
  NodeId b = f.hosts[1]->id();
  Bytes wire = state_message(
      50, st, {{a, f.world.crypto().sign(a, auth)}, {b, f.world.crypto().sign(b, auth)}},
      0xFFFFFFFFu);
  for (auto& hpt : f.hosts) evil.send_to(hpt->id(), wire);

  EXPECT_NO_THROW(f.world.run_for(kSecond));
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());
  for (auto& cp : f.cps) EXPECT_EQ(cp->last_stable(), 0u);
}

TEST(Checkpointer, RepeatedSignerProofRejected) {
  // One trusted member's valid signature repeated f+1 times counts once, so
  // the proof falls short of f+1 distinct signers.
  CkptFixture f;
  ComponentHost evil(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  Bytes st = CkptFixture::state(78);
  Bytes auth = checkpoint_auth(50, st);
  NodeId member = f.hosts[0]->id();
  Bytes sig = f.world.crypto().sign(member, auth);
  Bytes repeated = state_message(50, st, {{member, sig}, {member, sig}});
  for (auto& hpt : f.hosts) evil.send_to(hpt->id(), repeated);
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());

  // Control: the same proof with a second distinct member is adopted.
  NodeId other = f.hosts[1]->id();
  Bytes distinct =
      state_message(50, st, {{member, sig}, {other, f.world.crypto().sign(other, auth)}});
  evil.send_to(f.hosts[2]->id(), distinct);
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[2].size(), 1u);
  EXPECT_EQ(f.stable[2][0].first, 50u);
  EXPECT_EQ(f.stable[2][0].second, st);
}

TEST(Checkpointer, ForgedCheckpointMessageRejected) {
  CkptFixture f;
  ComponentHost evil(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  // Not a group member: its Checkpoint messages must be ignored entirely,
  // even with a valid signature of its own key.
  Bytes st = CkptFixture::state(9);
  Sha256Digest h = Sha256::hash(st);
  Writer body;
  body.u8(1);
  body.u64(10);
  body.raw(BytesView(h.data(), h.size()));
  Writer dom;
  dom.u32(tags::kCheckpoint);
  dom.raw(body.data());
  Bytes sig = f.world.crypto().sign(evil.id(), dom.data());
  Bytes wire_body = body.data();
  wire_body.insert(wire_body.end(), sig.begin(), sig.end());
  Writer wire;
  wire.u32(tags::kCheckpoint);
  wire.raw(wire_body);
  for (auto& hpt : f.hosts) evil.send_to(hpt->id(), wire.data());

  // One honest vote + the forged one must NOT stabilize.
  f.cps[0]->gen_cp(10, st);
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());
}

TEST(Checkpointer, IdenticalStatesShareOneStableBuffer) {
  // Group members with byte-identical states share one interned buffer,
  // so the state is hashed once for the whole group.
  CkptFixture f;
  Bytes st = CkptFixture::state(5);
  for (auto& cp : f.cps) cp->gen_cp(10, st);
  f.world.run_for(kSecond);
  Payload shared = f.cps[0]->stable_state();
  ASSERT_EQ(shared.to_bytes(), st);
  for (auto& cp : f.cps) {
    EXPECT_EQ(cp->last_stable(), 10u);
    EXPECT_TRUE(cp->stable_state().shares_buffer_with(shared));
    EXPECT_EQ(cp->last_generated().second, Sha256::hash(st));
  }
  EXPECT_EQ(shared.digest_computations(), 1u);
}

TEST(Checkpointer, ForgerTamperedStateNeverSharesACorrectBuffer) {
  CkptFixture f;
  f.cps[2]->forge_checkpoints = true;
  Bytes st = CkptFixture::state(6);
  for (auto& cp : f.cps) cp->gen_cp(10, st);
  f.world.run_for(kSecond);

  Payload shared = f.cps[0]->stable_state();
  ASSERT_EQ(shared.to_bytes(), st);
  EXPECT_TRUE(f.cps[1]->stable_state().shares_buffer_with(shared));
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(f.stable[i].size(), 1u);
    EXPECT_EQ(f.stable[i][0].second, st);
  }
  // Only the genuine state was interned; the tampered copy the forger
  // voted for and certified never entered the table.
  EXPECT_EQ(f.world.interned_states(), 1u);
  // The forger adopts the group's correct checkpoint from its genuine copy.
  EXPECT_EQ(f.cps[2]->last_stable(), 10u);
  EXPECT_EQ(f.cps[2]->stable_state().to_bytes(), st);
}

TEST(Checkpointer, CrashOfBufferCreatorKeepsSurvivorsStateFetchable) {
  CkptFixture f;
  Bytes st = CkptFixture::state(8);
  for (auto& cp : f.cps) cp->gen_cp(20, st);  // member 0 creates the buffer
  f.world.run_for(kSecond);
  ASSERT_TRUE(f.cps[1]->stable_state().shares_buffer_with(f.cps[0]->stable_state()));

  // Crash = the process is destroyed along with its handles on the buffer.
  f.cps[0].reset();
  f.hosts[0].reset();
  Payload survivor = f.cps[1]->stable_state();
  EXPECT_TRUE(survivor.shares_buffer_with(f.cps[2]->stable_state()));
  EXPECT_EQ(survivor.to_bytes(), st);
  EXPECT_EQ(survivor.digest(), Sha256::hash(st));

  // A freshly joining replica still fetches it from the survivors.
  auto host = std::make_unique<ComponentHost>(f.world, f.world.allocate_id(),
                                              Site{Region::Virginia, 0});
  f.trusted->insert(host->id());
  std::vector<NodeId> group{f.hosts[1]->id(), f.hosts[2]->id(), host->id()};
  std::vector<std::pair<SeqNr, Bytes>> got;
  Checkpointer joiner(
      *host, tags::kCheckpoint, group, 1,
      [&](SeqNr s, BytesView state) { got.emplace_back(s, to_bytes(state)); },
      [t = f.trusted](NodeId n) { return t->count(n) > 0; });
  joiner.fetch_cp(20);
  f.world.run_for(2 * kSecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 20u);
  EXPECT_EQ(got[0].second, st);
}

TEST(Checkpointer, LastStableTracksDeliveries) {
  CkptFixture f;
  EXPECT_EQ(f.cps[0]->last_stable(), 0u);
  Bytes st = CkptFixture::state(1);
  f.cps[0]->gen_cp(8, st);
  f.cps[1]->gen_cp(8, st);
  f.world.run_for(kSecond);
  EXPECT_EQ(f.cps[0]->last_stable(), 8u);
  EXPECT_EQ(f.cps[2]->last_stable(), 8u);
}

}  // namespace
}  // namespace spider
