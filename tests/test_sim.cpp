#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "common/serde.hpp"
#include "sim/component.hpp"
#include "sim/node.hpp"
#include "sim/world.hpp"
#include "spider/messages.hpp"
#include "tests/support/counting_crypto.hpp"

namespace spider {
namespace {

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, FifoAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(10, [&] { order.push_back(2); });
  q.schedule_at(10, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, Cancel) {
  EventQueue q;
  bool fired = false;
  auto id = q.schedule_at(10, [&] { fired = true; });
  q.cancel(id);
  q.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto id = q.schedule_at(10, [] {});
  q.run_all();
  q.cancel(id);  // must not crash
}

TEST(EventQueue, RunUntilAdvancesClock) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] { count++; });
  q.schedule_at(100, [&] { count++; });
  q.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(q.now(), 50);
  q.run_until(100);
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run_all();
  Time fired_at = -1;
  q.schedule_at(5, [&] { fired_at = q.now(); });
  q.run_all();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventQueue, EventsScheduleEvents) {
  EventQueue q;
  std::vector<Time> times;
  q.schedule_at(10, [&] {
    times.push_back(q.now());
    q.schedule_after(5, [&] { times.push_back(q.now()); });
  });
  q.run_all();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(EventQueue, FifoTieBreakSurvivesCancelChurn) {
  // The heap's (time, id) order must reproduce exact scheduling order at
  // equal timestamps even when interleaved cancels punch holes into the
  // heap (tombstones must never perturb the survivors' relative order).
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.schedule_at(10, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 200; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  q.run_all();
  std::vector<int> expect;
  for (int i = 1; i < 200; i += 2) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, CancelledEntriesDoNotAccumulate) {
  // Lazy deletion must be bounded: cancelling almost everything compacts
  // the heap, so tombstones can never exceed ~half the slots.
  EventQueue q;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(q.schedule_at(100 + i, [] {}));
  }
  for (int i = 0; i < 9900; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.pending(), 100u);
  EXPECT_LE(q.heap_slots(), 2 * q.pending() + 64)
      << "cancel leak: dead entries lingering in the heap";

  // The survivors still fire.
  std::size_t n = 0;
  while (q.run_next()) ++n;
  EXPECT_EQ(n, 100u);
}

TEST(EventQueue, CancelOfStaleIdNeverKillsALaterEvent) {
  // Ids carry a per-cell generation: once an id fires, cancelling it is a
  // permanent no-op — it can never alias a later event, not even one that
  // reuses the same cell (EventId = generation << 32 | slot).
  EventQueue q;
  auto stale = q.schedule_at(10, [] {});
  q.run_all();
  bool fired = false;
  auto later = q.schedule_at(20, [&] { fired = true; });
  EXPECT_EQ(later & 0xffffffffu, stale & 0xffffffffu) << "the fired event's cell is reused";
  EXPECT_NE(later, stale);
  q.cancel(stale);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.cancelled_total(), 0u);
  q.run_all();
  EXPECT_TRUE(fired);

  // The same holds for a cell freed by a cancel.
  auto cancelled = q.schedule_at(30, [] {});
  q.cancel(cancelled);
  bool reused_fired = false;
  auto reuse = q.schedule_at(40, [&] { reused_fired = true; });
  EXPECT_EQ(reuse & 0xffffffffu, cancelled & 0xffffffffu);
  q.cancel(cancelled);
  EXPECT_EQ(q.cancelled_total(), 1u);
  q.run_all();
  EXPECT_TRUE(reused_fired);
}

TEST(EventQueue, NeverIssuedHandlesAreNoops) {
  EventQueue q;
  int fired = 0;
  auto id = q.schedule_at(10, [&] { ++fired; });
  const std::size_t pending = q.pending();
  const std::uint64_t cancelled = q.cancelled_total();
  q.cancel(EventQueue::kInvalidEvent);
  q.cancel(~0ull);
  q.cancel(id + (1ull << 32));  // the live event's slot, a wrong generation
  EXPECT_EQ(q.pending(), pending);
  EXPECT_EQ(q.cancelled_total(), cancelled);
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, MoveOnlyAndFullSizeCallablesRun) {
  // Callables are stored inline (up to EventQueue::Fn::kInlineBytes) and
  // need only be movable.
  EventQueue q;
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  q.schedule_at(10, [&seen, p = std::move(owned)] { seen = *p; });
  struct Big {
    std::array<char, EventQueue::Fn::kInlineBytes - sizeof(int*)> pad{};
    int* out;
    void operator()() const { *out = static_cast<int>(pad.size()); }
  };
  int big = 0;
  q.schedule_at(20, Big{{}, &big});
  q.run_all();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(big, static_cast<int>(EventQueue::Fn::kInlineBytes - sizeof(int*)));
}

TEST(EventQueue, CancelFromInsideHandler) {
  EventQueue q;
  bool victim_fired = false;
  EventQueue::EventId victim = 0;
  q.schedule_at(10, [&] { q.cancel(victim); });
  victim = q.schedule_at(20, [&] { victim_fired = true; });
  bool after_fired = false;
  q.schedule_at(30, [&] { after_fired = true; });
  q.run_all();
  EXPECT_FALSE(victim_fired);
  EXPECT_TRUE(after_fired);
}

TEST(EventQueue, RunUntilSkipsCancelledHead) {
  EventQueue q;
  auto head = q.schedule_at(10, [] {});
  int fired = 0;
  q.schedule_at(40, [&] { ++fired; });
  q.cancel(head);
  q.run_until(20);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(fired, 0);
  q.run_until(50);
  EXPECT_EQ(fired, 1);
}

// ------------------------------------------------------------- Topology

TEST(Topology, RttSymmetric) {
  for (int a = 0; a < kNumRegions; ++a) {
    for (int b = 0; b < kNumRegions; ++b) {
      EXPECT_EQ(region_rtt(static_cast<Region>(a), static_cast<Region>(b)),
                region_rtt(static_cast<Region>(b), static_cast<Region>(a)));
    }
  }
}

TEST(Topology, SelfRttZero) {
  EXPECT_EQ(region_rtt(Region::Virginia, Region::Virginia), 0);
}

TEST(Topology, AzLatencies) {
  Site a{Region::Virginia, 0}, b{Region::Virginia, 1}, c{Region::Virginia, 0};
  EXPECT_EQ(one_way_latency(a, b), 600);  // inter-AZ 1.2ms RTT
  EXPECT_EQ(one_way_latency(a, c), 200);  // intra-AZ 0.4ms RTT
}

TEST(Topology, WanClassification) {
  Site va{Region::Virginia, 0}, or_{Region::Oregon, 0}, va2{Region::Virginia, 2};
  EXPECT_TRUE(is_wan(va, or_));
  EXPECT_FALSE(is_wan(va, va2));
}

TEST(Topology, CrossRegionLatencyMatchesMatrix) {
  Site va{Region::Virginia, 0}, tk{Region::Tokyo, 1};
  EXPECT_EQ(one_way_latency(va, tk), region_rtt(Region::Virginia, Region::Tokyo) / 2);
}

TEST(Topology, NamesAndCodes) {
  EXPECT_STREQ(region_name(Region::SaoPaulo), "SaoPaulo");
  EXPECT_STREQ(region_code(Region::Virginia), "V");
  EXPECT_STREQ(region_code(Region::Seoul), "SE");
}

// ------------------------------------------------------------- Node + Network

/// Test node that records inbound messages and can echo.
class EchoNode : public SimNode {
 public:
  using SimNode::SimNode;

  void on_message(NodeId from, BytesView data) override {
    received.emplace_back(from, to_bytes(data));
    received_at.push_back(now());
    if (echo) send_to(from, to_bytes(data));
    if (extra_charge > 0) charge(extra_charge);
  }

  std::vector<std::pair<NodeId, Bytes>> received;
  std::vector<Time> received_at;
  bool echo = false;
  Duration extra_charge = 0;
};

struct NetFixture {
  World world{1};
  EchoNode va;
  EchoNode tokyo;

  NetFixture()
      : va(world, world.allocate_id(), Site{Region::Virginia, 0}),
        tokyo(world, world.allocate_id(), Site{Region::Tokyo, 0}) {}
};

TEST(SimNetwork, DeliversWithWanLatency) {
  NetFixture f;
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("ping")));
  f.world.run_for(200 * kMillisecond);
  ASSERT_EQ(f.tokyo.received.size(), 1u);
  EXPECT_EQ(to_string(f.tokyo.received[0].second), "ping");
  // One-way Virginia->Tokyo is 78ms (156ms RTT); allow jitter and overhead.
  Time at = f.tokyo.received_at[0];
  EXPECT_GE(at, 78 * kMillisecond);
  EXPECT_LE(at, 82 * kMillisecond);
}

TEST(SimNetwork, RoundTripEcho) {
  NetFixture f;
  f.tokyo.echo = true;
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("ping")));
  f.world.run_for(400 * kMillisecond);
  ASSERT_EQ(f.va.received.size(), 1u);
  EXPECT_GE(f.va.received_at[0], 156 * kMillisecond);
  EXPECT_LE(f.va.received_at[0], 165 * kMillisecond);
}

TEST(SimNetwork, FifoPerPair) {
  NetFixture f;
  for (int i = 0; i < 20; ++i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    f.va.send_to(f.tokyo.id(), std::move(w).take());
  }
  f.world.run_for(200 * kMillisecond);
  ASSERT_EQ(f.tokyo.received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    Reader r(f.tokyo.received[static_cast<std::size_t>(i)].second);
    EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(i));
  }
}

TEST(SimNetwork, ByteAccounting) {
  NetFixture f;
  Bytes msg(1000, 0);
  f.va.send_to(f.tokyo.id(), msg);
  f.world.run_for(200 * kMillisecond);
  EXPECT_EQ(f.world.net().stats().wan_bytes, 1000u);
  EXPECT_EQ(f.world.net().stats().wan_msgs, 1u);
  EXPECT_EQ(f.world.net().stats().lan_bytes, 0u);
  EXPECT_EQ(f.world.net().node_stats(f.va.id()).sent_wan_bytes, 1000u);
  EXPECT_EQ(f.world.net().node_stats(f.tokyo.id()).recv_bytes, 1000u);
}

TEST(SimNetwork, LanAccounting) {
  World world{1};
  EchoNode a(world, world.allocate_id(), Site{Region::Ireland, 0});
  EchoNode b(world, world.allocate_id(), Site{Region::Ireland, 1});
  a.send_to(b.id(), Bytes(10, 0));
  world.run_for(10 * kMillisecond);
  EXPECT_EQ(world.net().stats().lan_bytes, 10u);
  EXPECT_EQ(world.net().stats().wan_bytes, 0u);
}

TEST(SimNetwork, LinkFilterDrops) {
  NetFixture f;
  f.world.net().set_link_filter(
      [&](NodeId from, NodeId) { return from != f.va.id(); });
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("dropped")));
  f.world.run_for(200 * kMillisecond);
  EXPECT_TRUE(f.tokyo.received.empty());
}

TEST(SimNetwork, DownNodeReceivesNothing) {
  NetFixture f;
  f.world.net().set_node_down(f.tokyo.id(), true);
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("x")));
  f.world.run_for(200 * kMillisecond);
  EXPECT_TRUE(f.tokyo.received.empty());
  // Recovery: node comes back and receives subsequent traffic.
  f.world.net().set_node_down(f.tokyo.id(), false);
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("y")));
  f.world.run_for(200 * kMillisecond);
  ASSERT_EQ(f.tokyo.received.size(), 1u);
  EXPECT_EQ(to_string(f.tokyo.received[0].second), "y");
}

TEST(SimNode, CpuSerializesWork) {
  World world{1};
  EchoNode sender(world, world.allocate_id(), Site{Region::Virginia, 0});
  EchoNode busy(world, world.allocate_id(), Site{Region::Virginia, 0});
  busy.extra_charge = 10 * kMillisecond;  // each message costs 10ms CPU

  for (int i = 0; i < 3; ++i) sender.send_to(busy.id(), Bytes{1});
  world.run_for(kSecond);
  ASSERT_EQ(busy.received.size(), 3u);
  // Handling is serialized: starts roughly 10ms apart.
  EXPECT_GE(busy.received_at[1] - busy.received_at[0], 10 * kMillisecond);
  EXPECT_GE(busy.received_at[2] - busy.received_at[1], 10 * kMillisecond);
  EXPECT_GE(busy.busy_time(), 30 * kMillisecond);
}

TEST(SimNode, ChargeDelaysOutputs) {
  World world{1};
  EchoNode client(world, world.allocate_id(), Site{Region::Virginia, 0});
  EchoNode server(world, world.allocate_id(), Site{Region::Virginia, 0});
  server.echo = true;
  server.extra_charge = 5 * kMillisecond;

  client.send_to(server.id(), Bytes{1});
  world.run_for(kSecond);
  ASSERT_EQ(client.received.size(), 1u);
  // Echo reply leaves only after the 5ms CPU charge.
  EXPECT_GE(client.received_at[0], 5 * kMillisecond);
}

TEST(SimNode, TimerFiresAndCancels) {
  World world{1};
  EchoNode n(world, world.allocate_id(), Site{Region::Virginia, 0});
  int fired = 0;
  n.set_timer(10 * kMillisecond, [&] { fired++; });
  auto id = n.set_timer(20 * kMillisecond, [&] { fired++; });
  n.cancel_timer(id);
  world.run_for(kSecond);
  EXPECT_EQ(fired, 1);
}

TEST(SimNode, DeterministicAcrossRuns) {
  auto run = [] {
    World world{42};
    EchoNode a(world, world.allocate_id(), Site{Region::Virginia, 0});
    EchoNode b(world, world.allocate_id(), Site{Region::Tokyo, 0});
    b.echo = true;
    for (int i = 0; i < 5; ++i) a.send_to(b.id(), Bytes{static_cast<std::uint8_t>(i)});
    world.run_for(kSecond);
    std::vector<Time> times = a.received_at;
    return times;
  };
  EXPECT_EQ(run(), run());
}

/// Opens each inbound frame [u32 tag][body][auth] through SimNode::open,
/// recording the verdict and the crypto charge it paid. Frames longer than
/// their trailer are also verified twice through check_auth_frame: once
/// over slices of the inbound buffer (the zero-copy frame-prefix path) and
/// once over detached copies (the rebuild path).
class AuthProbeNode : public SimNode {
 public:
  using SimNode::SimNode;

  void on_message(NodeId from, BytesView data) override {
    ASSERT_GE(data.size(), 4u);
    Reader r(data);
    const std::uint32_t tag_word = r.u32();
    const BytesView rest = data.subspan(4);
    const Duration before = busy_in(CpuCat::kCrypto);
    opened.push_back(open(from, tag_word, rest, is_sig).has_value());
    open_charge.push_back(busy_in(CpuCat::kCrypto) - before);

    const std::size_t auth_len = is_sig ? crypto().signature_size() : crypto().mac_size();
    if (rest.size() <= auth_len) return;
    BytesView body = rest.first(rest.size() - auth_len);
    BytesView auth = rest.subspan(body.size());
    ASSERT_NE(current_message(), nullptr);
    ASSERT_EQ(body.data(), current_message()->data() + 4);
    in_place.push_back(check_auth_frame(from, tag_word, body, auth, is_sig));
    const Bytes body_copy = to_bytes(body);
    const Bytes auth_copy = to_bytes(auth);
    detached.push_back(check_auth_frame(from, tag_word, body_copy, auth_copy, is_sig));
  }

  bool is_sig = false;
  std::vector<bool> opened;
  std::vector<Duration> open_charge;
  std::vector<bool> in_place;
  std::vector<bool> detached;
};

constexpr std::uint32_t kProbeTag = tags::kIrmc | 5u;

Bytes probe_body() { return to_bytes(std::string("authenticated body")); }

/// [tag][body] followed by `auth`, built by hand.
Bytes hand_frame(BytesView prefix, BytesView auth) {
  Writer w;
  w.raw(prefix);
  w.raw(auth);
  return std::move(w).take();
}

/// What the probe saw for one frame.
struct ProbeVerdicts {
  std::vector<bool> opened;
  std::vector<Duration> open_charge;
  std::vector<bool> in_place;
  std::vector<bool> detached;
  Duration mac_cost = 0;
  Duration verify_cost = 0;
};

/// Sends one authenticated frame to a probe node and returns its verdicts.
/// `flip` corrupts one trailer byte: 1 the first, -1 the last, 0 none.
/// `truncate` instead sends [tag] plus only the first trailer-length bytes
/// of [body][auth], a frame no longer than its trailer.
ProbeVerdicts auth_frame_verdicts(bool is_sig, int flip, bool truncate = false) {
  World world(5);
  EchoNode sender(world, world.allocate_id(), Site{Region::Virginia, 0});
  AuthProbeNode probe(world, world.allocate_id(), Site{Region::Virginia, 1});
  probe.is_sig = is_sig;

  Writer prefix;
  prefix.u32(kProbeTag);
  prefix.raw(probe_body());
  Bytes auth = is_sig ? world.crypto().sign(sender.id(), prefix.data())
                      : world.crypto().mac(sender.id(), probe.id(), prefix.data());
  if (flip > 0) auth.front() ^= 0x01;
  if (flip < 0) auth.back() ^= 0x01;
  Bytes frame = hand_frame(prefix.data(), auth);
  if (truncate) frame.resize(4 + auth.size());
  sender.send_to(probe.id(), std::move(frame));
  world.run_for(10 * kMillisecond);
  return {probe.opened, probe.open_charge, probe.in_place, probe.detached,
          world.crypto().costs().mac, world.crypto().costs().verify};
}

TEST(SimNode, CheckAuthFrameZeroCopyMatchesDetached) {
  for (bool is_sig : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "is_sig=" << is_sig);
    ProbeVerdicts v = auth_frame_verdicts(is_sig, 0);
    ASSERT_EQ(v.in_place.size(), 1u);
    ASSERT_EQ(v.detached.size(), 1u);
    EXPECT_TRUE(v.in_place[0]);
    EXPECT_TRUE(v.detached[0]);
    ASSERT_EQ(v.opened.size(), 1u);
    EXPECT_TRUE(v.opened[0]);
    EXPECT_EQ(v.open_charge[0], is_sig ? v.verify_cost : v.mac_cost);
  }
}

TEST(SimNode, CheckAuthFrameRejectsFlippedTrailerByte) {
  for (bool is_sig : {false, true}) {
    for (int flip : {1, -1}) {
      SCOPED_TRACE(::testing::Message() << "is_sig=" << is_sig << " flip=" << flip);
      ProbeVerdicts v = auth_frame_verdicts(is_sig, flip);
      ASSERT_EQ(v.in_place.size(), 1u);
      ASSERT_EQ(v.detached.size(), 1u);
      EXPECT_FALSE(v.in_place[0]);
      EXPECT_FALSE(v.detached[0]);
      // open() rejects it too, after exactly one MAC or verify charge.
      ASSERT_EQ(v.opened.size(), 1u);
      EXPECT_FALSE(v.opened[0]);
      EXPECT_EQ(v.open_charge[0], is_sig ? v.verify_cost : v.mac_cost);
    }
  }
}

TEST(SimNode, OpenDropsFrameNoLongerThanTrailerWithoutCharge) {
  for (bool is_sig : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "is_sig=" << is_sig);
    ProbeVerdicts v = auth_frame_verdicts(is_sig, 0, /*truncate=*/true);
    ASSERT_EQ(v.opened.size(), 1u);
    EXPECT_FALSE(v.opened[0]);
    EXPECT_EQ(v.open_charge[0], 0);
    EXPECT_TRUE(v.in_place.empty());
  }
}

TEST(SimNode, SealedFramesMatchHandBuiltFrames) {
  World world(5);
  EchoNode a(world, world.allocate_id(), Site{Region::Virginia, 0});
  EchoNode b(world, world.allocate_id(), Site{Region::Virginia, 1});
  Writer prefix;
  prefix.u32(kProbeTag);
  prefix.raw(probe_body());
  const CryptoCosts& c = world.crypto().costs();

  Duration before = a.busy_in(CpuCat::kCrypto);
  Payload mac_frame = a.seal_mac(kProbeTag, b.id(), probe_body());
  EXPECT_EQ(a.busy_in(CpuCat::kCrypto) - before, c.mac);
  EXPECT_EQ(mac_frame.to_bytes(),
            hand_frame(prefix.data(), world.crypto().mac(a.id(), b.id(), prefix.data())));

  before = a.busy_in(CpuCat::kCrypto);
  Payload sig_frame = a.seal_signed(kProbeTag, probe_body());
  EXPECT_EQ(a.busy_in(CpuCat::kCrypto) - before, c.sign);
  EXPECT_EQ(sig_frame.to_bytes(),
            hand_frame(prefix.data(), world.crypto().sign(a.id(), prefix.data())));
}

// ------------------------------------------------------------- Seal stamps

/// Opens every inbound frame [u32 tag][body][auth] as `is_sig` through
/// open() and records, per frame, the verdict, the modeled crypto charge
/// and the provider verdicts computed meanwhile. With `trailer` set it
/// instead asks check_auth_frame directly, splitting off that many bytes.
class StampProbeNode : public SimNode {
 public:
  using SimNode::SimNode;

  void on_message(NodeId from, BytesView data) override {
    ASSERT_GE(data.size(), 4u);
    Reader r(data);
    const std::uint32_t tag_word = r.u32();
    const BytesView rest = data.subspan(4);
    auto& counter = dynamic_cast<CountingCrypto&>(crypto());
    const Duration before = busy_in(CpuCat::kCrypto);
    const std::size_t calls = counter.calls();
    if (trailer == 0) {
      opened.push_back(open(from, tag_word, rest, is_sig).has_value());
    } else {
      ASSERT_GT(rest.size(), trailer);
      const BytesView body = rest.first(rest.size() - trailer);
      opened.push_back(check_auth_frame(from, tag_word, body, rest.subspan(body.size()), is_sig));
    }
    charge.push_back(busy_in(CpuCat::kCrypto) - before);
    provider_calls.push_back(counter.calls() - calls);
  }

  bool is_sig = false;
  std::size_t trailer = 0;
  std::vector<bool> opened;
  std::vector<Duration> charge;
  std::vector<std::size_t> provider_calls;
};

/// A sender, a second sender and three probes in one World whose provider
/// counts its verdicts.
struct StampFixture {
  World world{5, std::make_unique<CountingCrypto>(5)};
  EchoNode a{world, world.allocate_id(), Site{Region::Virginia, 0}};
  EchoNode b{world, world.allocate_id(), Site{Region::Virginia, 1}};
  StampProbeNode p{world, world.allocate_id(), Site{Region::Virginia, 2}};
  StampProbeNode q{world, world.allocate_id(), Site{Region::Ohio, 0}};
  StampProbeNode r{world, world.allocate_id(), Site{Region::Ohio, 1}};
  const CryptoCosts& costs = world.crypto().costs();

  void run() { world.run_for(50 * kMillisecond); }
};

/// Longer than a signature, so every frame below survives open()'s
/// length check whichever trailer it splits off.
Bytes long_body() { return Bytes(200, 0x5a); }

TEST(SealStamp, SealedMacAndSignedMulticastOpenWithoutProviderVerifies) {
  StampFixture f;
  f.q.is_sig = true;
  f.r.is_sig = true;
  f.a.send_to(f.p.id(), f.a.seal_mac(kProbeTag, f.p.id(), long_body()));
  const Payload multicast = f.a.seal_signed(kProbeTag, long_body());
  f.a.send_to(f.q.id(), multicast);
  f.a.send_to(f.r.id(), multicast);
  f.run();
  for (const StampProbeNode* n : {&f.p, &f.q, &f.r}) {
    ASSERT_EQ(n->opened.size(), 1u);
    EXPECT_TRUE(n->opened[0]);
    EXPECT_EQ(n->charge[0], n->is_sig ? f.costs.verify : f.costs.mac);
    EXPECT_EQ(n->provider_calls[0], 0u);
  }
}

TEST(SealStamp, ByteIdenticalCopyOpensThroughProvider) {
  StampFixture f;
  f.q.is_sig = true;
  const Payload mac = f.a.seal_mac(kProbeTag, f.p.id(), long_body());
  const Payload sig = f.a.seal_signed(kProbeTag, long_body());
  f.a.send_to(f.p.id(), Payload(mac.view()));
  f.a.send_to(f.q.id(), Payload(sig.view()));
  f.run();
  for (const StampProbeNode* n : {&f.p, &f.q}) {
    ASSERT_EQ(n->opened.size(), 1u);
    EXPECT_TRUE(n->opened[0]);
    EXPECT_EQ(n->charge[0], n->is_sig ? f.costs.verify : f.costs.mac);
    EXPECT_EQ(n->provider_calls[0], 1u);
  }
}

TEST(SealStamp, MacFrameOpenedByAnotherReceiverIsRejected) {
  StampFixture f;
  // Sealed for p, delivered to q by its sealer and re-sent to r by b.
  const Payload frame = f.a.seal_mac(kProbeTag, f.p.id(), long_body());
  f.a.send_to(f.q.id(), frame);
  f.b.send_to(f.r.id(), frame);
  f.run();
  for (const StampProbeNode* n : {&f.q, &f.r}) {
    ASSERT_EQ(n->opened.size(), 1u);
    EXPECT_FALSE(n->opened[0]);
    EXPECT_EQ(n->charge[0], f.costs.mac);
    EXPECT_EQ(n->provider_calls[0], 1u);
  }
}

TEST(SealStamp, SignedFrameResentByNonSealerIsRejected) {
  StampFixture f;
  f.q.is_sig = true;
  f.b.send_to(f.q.id(), f.a.seal_signed(kProbeTag, long_body()));
  f.run();
  ASSERT_EQ(f.q.opened.size(), 1u);
  EXPECT_FALSE(f.q.opened[0]);
  EXPECT_EQ(f.q.charge[0], f.costs.verify);
  EXPECT_EQ(f.q.provider_calls[0], 1u);
}

TEST(SealStamp, FrameOpenedAsWrongAuthKindIsRejected) {
  StampFixture f;
  f.p.is_sig = true;  // opens MACs as signatures
  f.q.is_sig = false;  // opens signatures as MACs
  f.a.send_to(f.p.id(), f.a.seal_mac(kProbeTag, f.p.id(), long_body()));
  f.a.send_to(f.q.id(), f.a.seal_signed(kProbeTag, long_body()));
  // A MAC toward NodeId 0, which no node has, carries the signature
  // marker; only its prefix length tells it from a signed frame.
  f.a.send_to(f.p.id(), f.a.seal_mac(kProbeTag, 0, long_body()));
  f.run();
  ASSERT_EQ(f.p.opened.size(), 2u);
  ASSERT_EQ(f.q.opened.size(), 1u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(f.p.opened[i]);
    EXPECT_EQ(f.p.charge[i], f.costs.verify);
    EXPECT_EQ(f.p.provider_calls[i], 1u);
  }
  EXPECT_FALSE(f.q.opened[0]);
  EXPECT_EQ(f.q.charge[0], f.costs.mac);
  EXPECT_EQ(f.q.provider_calls[0], 1u);
}

TEST(SealStamp, FlippedTrailerByteIsRejected) {
  StampFixture f;
  f.q.is_sig = true;
  Bytes mac = f.a.seal_mac(kProbeTag, f.p.id(), long_body()).to_bytes();
  Bytes sig = f.a.seal_signed(kProbeTag, long_body()).to_bytes();
  mac.back() ^= 0x01;
  sig.back() ^= 0x01;
  f.a.send_to(f.p.id(), std::move(mac));
  f.a.send_to(f.q.id(), std::move(sig));
  f.run();
  for (const StampProbeNode* n : {&f.p, &f.q}) {
    ASSERT_EQ(n->opened.size(), 1u);
    EXPECT_FALSE(n->opened[0]);
    EXPECT_EQ(n->charge[0], n->is_sig ? f.costs.verify : f.costs.mac);
    EXPECT_EQ(n->provider_calls[0], 1u);
  }
}

TEST(SealStamp, SubWindowOfSealedBufferNeverMatches) {
  StampFixture f;
  // The body is itself a frame [tag][x][16 bytes] whose trailer is no MAC.
  Writer inner;
  inner.u32(kProbeTag);
  inner.raw(Bytes(40, 0x11));
  inner.raw(Bytes(16, 0x22));
  const Payload outer = f.a.seal_mac(kProbeTag, f.p.id(), inner.data());
  f.a.send_to(f.p.id(), outer.slice(4, inner.data().size()));
  // A signed buffer cut 16 bytes into its signature, split there: the
  // window ends where a MAC frame's trailer would.
  const Payload sig = f.a.seal_signed(kProbeTag, long_body());
  f.q.is_sig = true;
  f.q.trailer = 16;
  f.a.send_to(f.q.id(), sig.slice(0, 4 + long_body().size() + 16));
  f.run();
  for (const StampProbeNode* n : {&f.p, &f.q}) {
    ASSERT_EQ(n->opened.size(), 1u);
    EXPECT_FALSE(n->opened[0]);
    EXPECT_EQ(n->provider_calls[0], 1u);
  }
}

TEST(SimNode, VerifyStatementChecksReencodedClientRequest) {
  World world(5);
  EchoNode client(world, world.allocate_id(), Site{Region::Virginia, 0});
  EchoNode replica(world, world.allocate_id(), Site{Region::Virginia, 1});
  const ClientRequest req{OpKind::Write, client.id(), 7, to_bytes(std::string("put k v"))};
  const Bytes sig = client.sign_statement(tags::kClient, req.encode());
  const Duration verify = world.crypto().costs().verify;

  // The verifier re-encodes the request it decoded, as every replica does.
  Duration before = replica.busy_in(CpuCat::kCrypto);
  EXPECT_TRUE(replica.verify_statement(client.id(), tags::kClient, req.encode(), sig));
  EXPECT_EQ(replica.busy_in(CpuCat::kCrypto) - before, verify);

  Bytes tampered = req.encode();
  tampered.back() ^= 0x01;
  before = replica.busy_in(CpuCat::kCrypto);
  EXPECT_FALSE(replica.verify_statement(client.id(), tags::kClient, tampered, sig));
  EXPECT_EQ(replica.busy_in(CpuCat::kCrypto) - before, verify);
  // Bound to its tag and its signer, too.
  EXPECT_FALSE(replica.verify_statement(client.id(), tags::kRegistry, req.encode(), sig));
  EXPECT_FALSE(replica.verify_statement(replica.id(), tags::kClient, req.encode(), sig));
}

TEST(World, AllocatesDistinctIds) {
  World world{1};
  NodeId a = world.allocate_id();
  NodeId b = world.allocate_id();
  EXPECT_NE(a, b);
}

Bytes state_bytes(std::size_t n, std::uint8_t salt = 0) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 7 + salt);
  return b;
}

TEST(World, InternedIdenticalStatesShareOneBufferAndOneDigest) {
  World world{1};
  Payload a = world.intern_state(state_bytes(4096));
  Payload b = world.intern_state(state_bytes(4096));
  Payload c = world.intern_state(state_bytes(4096));
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_TRUE(a.shares_buffer_with(c));
  EXPECT_EQ(world.interned_states(), 1u);

  Sha256Digest expected = Sha256::hash(state_bytes(4096));
  EXPECT_EQ(a.digest(), expected);
  EXPECT_EQ(b.digest(), expected);
  EXPECT_EQ(c.digest(), expected);
  EXPECT_EQ(a.digest_computations(), 1u);
}

TEST(World, InternedStateDifferingInLastByteGetsItsOwnBuffer) {
  World world{1};
  Bytes base = state_bytes(4096);
  Bytes tweaked = base;
  tweaked.back() ^= 0x01;
  Payload a = world.intern_state(base);
  Payload b = world.intern_state(tweaked);
  EXPECT_FALSE(a.shares_buffer_with(b));
  EXPECT_EQ(b.to_bytes(), tweaked);
  EXPECT_EQ(world.interned_states(), 2u);
}

TEST(World, InternTableDropsEntriesOnlyItHolds) {
  World world{1};
  {
    Payload released = world.intern_state(state_bytes(256, 1));
    (void)released.digest();
    EXPECT_EQ(world.interned_states(), 1u);
  }
  // The only holder left is the table itself: the next intern drops it.
  Payload kept = world.intern_state(state_bytes(256, 2));
  EXPECT_EQ(world.interned_states(), 1u);
  // A slice keeps its buffer alive, so the entry stays.
  Payload slice = kept.slice(0, 16);
  kept = Payload{};
  Payload other = world.intern_state(state_bytes(256, 3));
  EXPECT_EQ(world.interned_states(), 2u);
  // Re-interning the released bytes makes a fresh buffer with a fresh memo.
  Payload again = world.intern_state(state_bytes(256, 1));
  EXPECT_EQ(again.digest_computations(), 0u);
  EXPECT_EQ(again.to_bytes(), state_bytes(256, 1));
}

TEST(World, InternTablesArePerWorld) {
  World w1{1};
  World w2{1};
  Payload a = w1.intern_state(state_bytes(1024));
  Payload b = w2.intern_state(state_bytes(1024));
  EXPECT_FALSE(a.shares_buffer_with(b));
  EXPECT_EQ(a.to_bytes(), b.to_bytes());
  (void)a.digest();
  EXPECT_EQ(b.digest_computations(), 0u);
}

}  // namespace
}  // namespace spider
