#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "irmc/rc.hpp"
#include "irmc/sc.hpp"
#include "sim/world.hpp"

namespace spider {
namespace {

/// 4 senders in Virginia, 3 receivers in Tokyo — the paper's Figure 9
/// wide-area channel setup (fs = fr = 1).
struct ChannelFixture {
  World world;
  std::vector<std::unique_ptr<ComponentHost>> sender_hosts;
  std::vector<std::unique_ptr<ComponentHost>> receiver_hosts;
  std::vector<std::unique_ptr<IrmcSenderEndpoint>> senders;
  std::vector<std::unique_ptr<IrmcReceiverEndpoint>> receivers;
  IrmcConfig cfg;

  explicit ChannelFixture(IrmcKind kind, std::uint32_t ns = 4, std::uint32_t nr = 3,
                          Position capacity = 8, std::uint64_t seed = 1)
      : world(seed) {
    for (std::uint32_t i = 0; i < ns; ++i) {
      sender_hosts.push_back(std::make_unique<ComponentHost>(
          world, world.allocate_id(), Site{Region::Virginia, static_cast<std::uint8_t>(i % 4)}));
      cfg.senders.push_back(sender_hosts.back()->id());
    }
    for (std::uint32_t i = 0; i < nr; ++i) {
      receiver_hosts.push_back(std::make_unique<ComponentHost>(
          world, world.allocate_id(), Site{Region::Tokyo, static_cast<std::uint8_t>(i % 3)}));
      cfg.receivers.push_back(receiver_hosts.back()->id());
    }
    cfg.fs = 1;
    cfg.fr = 1;
    cfg.capacity = capacity;
    cfg.channel_tag = tags::kIrmc | 7;
    cfg.progress_interval = 30 * kMillisecond;
    cfg.collector_timeout = 150 * kMillisecond;
    for (auto& h : sender_hosts) senders.push_back(make_irmc_sender(kind, *h, cfg));
    for (auto& h : receiver_hosts) receivers.push_back(make_irmc_receiver(kind, *h, cfg));
  }

  void send_from_all(Subchannel sc, Position p, const Bytes& m) {
    for (auto& s : senders) s->send(sc, p, m, {});
  }

  static Bytes msg(int i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    w.str("payload");
    return std::move(w).take();
  }
};

class IrmcSuite : public ::testing::TestWithParam<IrmcKind> {};

TEST_P(IrmcSuite, DeliversAfterQuorumOfIdenticalSends) {
  ChannelFixture f(GetParam());
  Bytes m = f.msg(1);
  f.send_from_all(5, 1, m);

  std::vector<Bytes> got(f.receivers.size());
  for (std::size_t i = 0; i < f.receivers.size(); ++i) {
    f.receivers[i]->receive(5, 1, [&, i](RecvResult res) {
      ASSERT_FALSE(res.too_old);
      got[i] = res.message.to_bytes();
    });
  }
  f.world.run_for(kSecond);
  for (auto& g : got) EXPECT_EQ(g, m);
}

TEST_P(IrmcSuite, ReceiveBeforeSendAlsoDelivers) {
  ChannelFixture f(GetParam());
  Bytes m = f.msg(2);
  Bytes got;
  f.receivers[0]->receive(1, 1, [&](RecvResult res) {
    ASSERT_FALSE(res.too_old);
    got = res.message.to_bytes();
  });
  f.world.run_for(10 * kMillisecond);
  f.send_from_all(1, 1, m);
  f.world.run_for(kSecond);
  EXPECT_EQ(got, m);
}

TEST_P(IrmcSuite, FsPlusOneSendersSuffice) {
  ChannelFixture f(GetParam());
  Bytes m = f.msg(3);
  f.senders[0]->send(9, 1, m, {});
  f.senders[1]->send(9, 1, m, {});  // fs+1 = 2

  bool delivered = false;
  f.receivers[0]->receive(9, 1, [&](RecvResult res) { delivered = !res.too_old; });
  f.world.run_for(kSecond);
  EXPECT_TRUE(delivered);
}

TEST_P(IrmcSuite, SingleSenderCannotPassMessage) {
  ChannelFixture f(GetParam());
  f.senders[0]->send(9, 1, f.msg(4), {});  // only fs senders vouch

  bool delivered = false;
  f.receivers[0]->receive(9, 1, [&](RecvResult) { delivered = true; });
  f.world.run_for(kSecond);
  EXPECT_FALSE(delivered);  // IRMC-Correctness I
}

TEST_P(IrmcSuite, ConflictingContentsNeedTheirOwnQuorum) {
  ChannelFixture f(GetParam());
  Bytes a = f.msg(100), b = f.msg(200);
  f.senders[0]->send(2, 1, a, {});
  f.senders[1]->send(2, 1, b, {});

  Bytes got;
  bool delivered = false;
  f.receivers[0]->receive(2, 1, [&](RecvResult res) {
    delivered = true;
    got = res.message.to_bytes();
  });
  f.world.run_for(500 * kMillisecond);
  EXPECT_FALSE(delivered);  // one vote each: no quorum

  f.senders[2]->send(2, 1, a, {});  // second vote for a
  f.world.run_for(kSecond);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(got, a);
}

TEST_P(IrmcSuite, SubchannelsAreIndependent) {
  ChannelFixture f(GetParam());
  Bytes ma = f.msg(1), mb = f.msg(2);
  f.send_from_all(1, 1, ma);
  f.send_from_all(2, 1, mb);

  Bytes got_a, got_b;
  f.receivers[0]->receive(1, 1, [&](RecvResult r) { got_a = r.message.to_bytes(); });
  f.receivers[0]->receive(2, 1, [&](RecvResult r) { got_b = r.message.to_bytes(); });
  f.world.run_for(kSecond);
  EXPECT_EQ(got_a, ma);
  EXPECT_EQ(got_b, mb);
}

TEST_P(IrmcSuite, SequentialPositionsDeliverInOrder) {
  ChannelFixture f(GetParam());
  const int n = 5;
  for (int p = 1; p <= n; ++p) f.send_from_all(3, static_cast<Position>(p), f.msg(p));

  std::vector<int> order;
  std::function<void(Position)> chain = [&](Position p) {
    if (p > n) return;
    f.receivers[0]->receive(3, p, [&, p](RecvResult res) {
      ASSERT_FALSE(res.too_old);
      Reader r(res.message);
      order.push_back(static_cast<int>(r.u32()));
      chain(p + 1);
    });
  };
  chain(1);
  f.world.run_for(2 * kSecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(IrmcSuite, SendBeyondWindowBlocksUntilReceiversMove) {
  ChannelFixture f(GetParam(), 4, 3, /*capacity=*/4);
  // Fill the window: positions 1..4 are in, 5 must block.
  for (int p = 1; p <= 4; ++p) f.send_from_all(1, static_cast<Position>(p), f.msg(p));
  bool send5_done = false;
  f.senders[0]->send(1, 5, f.msg(5), [&](bool too_old, Position) {
    EXPECT_FALSE(too_old);
    send5_done = true;
  });
  f.world.run_for(500 * kMillisecond);
  EXPECT_FALSE(send5_done);  // blocked above the window

  // fr+1 receivers consume and move the window forward.
  f.receivers[0]->move_window(1, 2);
  f.receivers[1]->move_window(1, 2);
  f.world.run_for(kSecond);
  EXPECT_TRUE(send5_done);  // IRMC-Liveness II
  EXPECT_EQ(f.senders[0]->window_start(1), 2u);
}

TEST_P(IrmcSuite, SingleReceiverCannotMoveSenderWindow) {
  ChannelFixture f(GetParam());
  f.receivers[0]->move_window(4, 10);  // only fr receivers
  f.world.run_for(kSecond);
  EXPECT_EQ(f.senders[0]->window_start(4), 1u);

  f.receivers[1]->move_window(4, 10);  // now fr+1
  f.world.run_for(kSecond);
  EXPECT_EQ(f.senders[0]->window_start(4), 10u);
}

TEST_P(IrmcSuite, TooOldSendDroppedImmediately) {
  ChannelFixture f(GetParam());
  f.receivers[0]->move_window(1, 20);
  f.receivers[1]->move_window(1, 20);
  f.world.run_for(kSecond);

  bool too_old = false;
  Position ws = 0;
  f.senders[0]->send(1, 3, f.msg(3), [&](bool old, Position w) {
    too_old = old;
    ws = w;
  });
  EXPECT_TRUE(too_old);
  EXPECT_EQ(ws, 20u);
}

TEST_P(IrmcSuite, SenderMovesForceReceiverWindowAndTooOld) {
  ChannelFixture f(GetParam());
  bool got_too_old = false;
  Position new_start = 0;
  f.receivers[0]->receive(6, 1, [&](RecvResult res) {
    got_too_old = res.too_old;
    new_start = res.window_start;
  });

  // fs+1 senders request the subchannel window to start at 5 (e.g. the
  // client already sent a newer request).
  f.senders[0]->move_window(6, 5);
  f.senders[1]->move_window(6, 5);
  f.world.run_for(kSecond);

  EXPECT_TRUE(got_too_old);  // IRMC-Correctness II / Liveness III
  EXPECT_EQ(new_start, 5u);
  EXPECT_EQ(f.receivers[0]->window_start(6), 5u);
}

TEST_P(IrmcSuite, OneSenderCannotMoveReceiverWindow) {
  ChannelFixture f(GetParam());
  f.senders[0]->move_window(6, 50);
  f.world.run_for(kSecond);
  EXPECT_EQ(f.receivers[0]->window_start(6), 1u);
}

TEST_P(IrmcSuite, LateReceiveAfterWindowMovedReturnsTooOld) {
  ChannelFixture f(GetParam());
  f.senders[0]->move_window(1, 7);
  f.senders[1]->move_window(1, 7);
  f.world.run_for(kSecond);

  RecvResult out;
  f.receivers[0]->receive(1, 2, [&](RecvResult res) { out = res; });
  EXPECT_TRUE(out.too_old);
  EXPECT_EQ(out.window_start, 7u);
}

TEST_P(IrmcSuite, RedeliveryToMultiplePendingReceivers) {
  ChannelFixture f(GetParam());
  int delivered = 0;
  for (auto& r : f.receivers) {
    r->receive(1, 1, [&](RecvResult res) {
      if (!res.too_old) ++delivered;
    });
  }
  f.send_from_all(1, 1, f.msg(1));
  f.world.run_for(kSecond);
  EXPECT_EQ(delivered, 3);  // IRMC-Liveness I: all correct receivers
}

TEST_P(IrmcSuite, DeterministicAcrossRuns) {
  auto run = [&] {
    ChannelFixture f(GetParam(), 4, 3, 8, 77);
    std::vector<Time> times;
    for (int p = 1; p <= 3; ++p) f.send_from_all(1, static_cast<Position>(p), f.msg(p));
    for (int p = 1; p <= 3; ++p) {
      f.receivers[0]->receive(1, static_cast<Position>(p),
                              [&](RecvResult) { times.push_back(f.world.now()); });
    }
    f.world.run_for(kSecond);
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(IrmcSuite, CrashedSenderMinorityHarmless) {
  ChannelFixture f(GetParam());
  f.world.net().set_node_down(f.sender_hosts[0]->id(), true);
  Bytes m = f.msg(9);
  for (std::size_t i = 1; i < f.senders.size(); ++i) f.senders[i]->send(1, 1, m, {});
  Bytes got;
  f.receivers[0]->receive(1, 1, [&](RecvResult r) { got = r.message.to_bytes(); });
  f.world.run_for(kSecond);
  EXPECT_EQ(got, m);
}

TEST_P(IrmcSuite, WaiterAfterInCallbackWindowMoveGetsMessage) {
  // Two waiters at one position: the first one's callback moves the window
  // past it, which frees the stored message. The second must still get it.
  ChannelFixture f(GetParam());
  Bytes m = f.msg(7);
  std::vector<RecvResult> got;
  f.receivers[0]->receive(1, 1, [&](RecvResult res) {
    got.push_back(res);
    f.receivers[0]->move_window(1, 2);
  });
  f.receivers[0]->receive(1, 1, [&](RecvResult res) { got.push_back(res); });
  f.send_from_all(1, 1, m);
  f.world.run_for(kSecond);
  ASSERT_EQ(got.size(), 2u);
  for (const RecvResult& res : got) {
    EXPECT_FALSE(res.too_old);
    EXPECT_EQ(res.message.to_bytes(), m);
  }
  EXPECT_EQ(f.receivers[0]->window_start(1), 2u);
}

TEST_P(IrmcSuite, RebuiltSenderBehindTheWindowIsGrantedItAndSendsItsQueue) {
  // A sender endpoint rebuilt under the same id (crash recovery) starts
  // at window 1 while the receivers moved on to 9. Its Move is behind
  // their window, so they grant it theirs; the send it queued above the
  // stale window then goes out and, with one more sender, is delivered.
  ChannelFixture f(GetParam(), 4, 3, /*capacity=*/4);
  f.senders[0]->move_window(1, 9);
  f.senders[1]->move_window(1, 9);
  f.world.run_for(kSecond);
  for (auto& r : f.receivers) ASSERT_EQ(r->window_start(1), 9u);

  const NodeId id = f.sender_hosts[0]->id();
  const Site site = f.sender_hosts[0]->site();
  f.senders[0].reset();
  f.sender_hosts[0].reset();
  f.sender_hosts[0] = std::make_unique<ComponentHost>(f.world, id, site);
  f.senders[0] = make_irmc_sender(GetParam(), *f.sender_hosts[0], f.cfg);
  ASSERT_EQ(f.senders[0]->window_start(1), 1u);

  const Bytes m = f.msg(10);
  bool sent = false;
  f.senders[0]->send(1, 10, m, [&](bool too_old, Position ws) {
    EXPECT_FALSE(too_old);
    EXPECT_EQ(ws, 9u);
    sent = true;
  });
  f.senders[0]->move_window(1, 2);  // behind the receivers' window
  f.world.run_for(kSecond);
  EXPECT_TRUE(sent);
  EXPECT_EQ(f.senders[0]->window_start(1), 9u);

  // Only the rebuilt sender and sender 1 vouch: fs+1 = 2.
  f.senders[1]->send(1, 10, m, {});
  std::vector<Bytes> got(2);
  for (std::size_t i = 0; i < got.size(); ++i) {
    f.receivers[i]->receive(1, 10, [&, i](RecvResult res) {
      EXPECT_FALSE(res.too_old);
      got[i] = res.message.to_bytes();
    });
  }
  f.world.run_for(kSecond);
  for (const Bytes& g : got) EXPECT_EQ(g, m);
}

INSTANTIATE_TEST_SUITE_P(Kinds, IrmcSuite,
                         ::testing::Values(IrmcKind::ReceiverCollect, IrmcKind::SenderCollect),
                         [](const ::testing::TestParamInfo<IrmcKind>& info) {
                           return info.param == IrmcKind::ReceiverCollect ? "RC" : "SC";
                         });

// ------------------------------------------------------------ RC-specific

TEST(IrmcRc, ForgedSendRejected) {
  ChannelFixture f(IrmcKind::ReceiverCollect);
  // An attacker (not in the sender group) replays a Send-shaped frame with
  // a bogus signature; and a group member with a wrong signature.
  ComponentHost attacker(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  Bytes body = irmc::SendMsg{1, 1, f.msg(1)}.encode();
  Bytes fake_sig(f.world.crypto().signature_size(), 0x42);
  Bytes wire = body;
  wire.insert(wire.end(), fake_sig.begin(), fake_sig.end());
  Writer w;
  w.u32(f.cfg.channel_tag);
  w.raw(wire);
  for (NodeId r : f.cfg.receivers) attacker.send_to(r, w.data());

  bool delivered = false;
  f.receivers[0]->receive(1, 1, [&](RecvResult) { delivered = true; });
  f.world.run_for(kSecond);
  EXPECT_FALSE(delivered);
}

TEST(IrmcRc, NackReplaysRetainedSends) {
  // Receiver 2 is down while positions 1..6 are sent; receivers 0 and 1
  // consume and move the senders' window to 4, so each sender retains only
  // the wires for 4..6. Revived with pending receive()s, receiver 2 stalls,
  // nacks position 1 and must get: a Move to the window start, then the
  // retained wires in ascending order — none below the window start.
  ChannelFixture f(IrmcKind::ReceiverCollect);
  const NodeId r2 = f.receiver_hosts[2]->id();
  f.world.net().set_node_down(r2, true);
  for (int p = 1; p <= 6; ++p) f.send_from_all(1, static_cast<Position>(p), f.msg(p));
  f.world.run_for(kSecond);
  f.receivers[0]->move_window(1, 4);
  f.receivers[1]->move_window(1, 4);
  f.world.run_for(kSecond);
  for (auto& s : f.senders) ASSERT_EQ(s->window_start(1), 4u);

  f.world.net().set_node_down(r2, false);
  std::size_t to_r2 = 0;  // messages from the senders to receiver 2
  f.world.net().set_link_filter([&](NodeId from, NodeId to) {
    if (to == r2 && std::find(f.cfg.senders.begin(), f.cfg.senders.end(), from) !=
                        f.cfg.senders.end()) {
      ++to_r2;
    }
    return true;
  });
  RecvResult old;
  f.receivers[2]->receive(1, 1, [&](RecvResult res) { old = res; });
  std::vector<Position> order;
  for (Position p = 4; p <= 6; ++p) {
    f.receivers[2]->receive(1, p, [&, p](RecvResult res) {
      ASSERT_FALSE(res.too_old);
      EXPECT_EQ(res.message.to_bytes(), f.msg(static_cast<int>(p)));
      order.push_back(p);
    });
  }
  f.world.run_for(3 * kSecond);
  EXPECT_TRUE(old.too_old);
  EXPECT_EQ(old.window_start, 4u);
  EXPECT_EQ(order, (std::vector<Position>{4, 5, 6}));
  // Per sender: one Move plus the three retained wires, nothing more.
  EXPECT_EQ(to_r2, f.senders.size() * (1 + 3));
}

TEST(IrmcRc, WindowRingsSurviveLongRunsOnInterleavedSubchannels) {
  // 12 x capacity positions through a capacity-4 window on three
  // subchannels at once: every ring slot is reused many times. Subchannel
  // 2's receivers stop consuming at position 8; that must stall only
  // subchannel 2, and it must resume cleanly afterwards.
  constexpr Position kCap = 4;
  constexpr Position kN = 12 * kCap;
  constexpr Position kStall = 8;
  ChannelFixture f(IrmcKind::ReceiverCollect, 4, 3, kCap);
  const std::vector<Subchannel> subchannels{1, 2, 3};
  auto content = [&](Subchannel sc, Position p) {
    return f.msg(static_cast<int>(sc * 1000 + p));
  };
  std::map<Subchannel, std::size_t> transmitted;  // sender 0's send callbacks
  for (Position p = 1; p <= kN; ++p) {
    for (Subchannel sc : subchannels) {
      for (std::size_t i = 0; i < f.senders.size(); ++i) {
        f.senders[i]->send(sc, p, content(sc, p), [&, i, sc](bool too_old, Position) {
          EXPECT_FALSE(too_old);
          if (i == 0) ++transmitted[sc];
        });
      }
    }
  }

  // Receivers consume in order and move their window after every message.
  // Receiver 2 pauses for 250 ms after position 2 x capacity + 1 while the
  // two others (fr+1) keep moving the senders' window, so Sends up to a
  // window ahead of it land in the slack half of its ring while the
  // positions in front of them still wait to be consumed.
  std::map<std::pair<std::size_t, Subchannel>, Position> next;
  Position limit2 = kStall;
  std::function<void(std::size_t, Subchannel)> consume = [&](std::size_t i, Subchannel sc) {
    Position p = next[{i, sc}] + 1;
    if (p > (sc == 2 ? limit2 : kN)) return;
    f.receivers[i]->receive(sc, p, [&, i, sc, p](RecvResult res) {
      ASSERT_FALSE(res.too_old);
      EXPECT_EQ(res.message.to_bytes(), content(sc, p));
      next[{i, sc}] = p;
      auto advance = [&, i, sc, p] {
        f.receivers[i]->move_window(sc, p + 1);
        consume(i, sc);
      };
      if (i == 2 && p == 2 * kCap + 1) {
        f.world.queue().schedule_after(250 * kMillisecond, advance);
      } else {
        advance();
      }
    });
  };
  for (std::size_t i = 0; i < f.receivers.size(); ++i) {
    for (Subchannel sc : subchannels) consume(i, sc);
  }
  f.world.run_for(30 * kSecond);

  for (Subchannel sc : {Subchannel{1}, Subchannel{3}}) {
    for (std::size_t i = 0; i < f.receivers.size(); ++i) {
      EXPECT_EQ((next[{i, sc}]), kN) << "receiver " << i << " sc " << sc;
      EXPECT_EQ(f.receivers[i]->window_start(sc), kN + 1);
    }
    for (auto& s : f.senders) EXPECT_EQ(s->window_start(sc), kN + 1);
    EXPECT_EQ(transmitted[sc], kN);
  }
  // Subchannel 2 is stuck with a full window [9, 12] and the rest queued.
  for (std::size_t i = 0; i < f.receivers.size(); ++i) {
    EXPECT_EQ((next[{i, Subchannel{2}}]), kStall);
  }
  for (auto& s : f.senders) EXPECT_EQ(s->window_start(2), kStall + 1);
  EXPECT_EQ(transmitted[2], kStall + kCap);

  limit2 = kN;
  for (std::size_t i = 0; i < f.receivers.size(); ++i) consume(i, 2);
  f.world.run_for(30 * kSecond);
  for (std::size_t i = 0; i < f.receivers.size(); ++i) {
    EXPECT_EQ((next[{i, Subchannel{2}}]), kN);
  }
  for (auto& s : f.senders) EXPECT_EQ(s->window_start(2), kN + 1);
  EXPECT_EQ(transmitted[2], kN);
}

// ------------------------------------------------------------ SC-specific

TEST(IrmcSc, WanTrafficFarBelowRc) {
  // Payload-dominated regime as in the paper's Figure 9d (256 B - 16 KiB).
  auto wan_bytes = [](IrmcKind kind) {
    ChannelFixture f(kind, 4, 3, 16, 5);
    Bytes payload(4096, 0x5c);
    for (int p = 1; p <= 10; ++p) f.send_from_all(1, static_cast<Position>(p), payload);
    f.world.run_for(600 * kMillisecond);
    return f.world.net().stats().wan_bytes;
  };
  std::uint64_t rc = wan_bytes(IrmcKind::ReceiverCollect);
  std::uint64_t sc = wan_bytes(IrmcKind::SenderCollect);
  // RC ships each payload ns x nr times; SC ships roughly nr certificates.
  EXPECT_LT(sc * 2, rc);
}

TEST(IrmcSc, UsesLanForShareExchange) {
  ChannelFixture f(IrmcKind::SenderCollect);
  f.send_from_all(1, 1, f.msg(1));
  f.world.run_for(kSecond);
  EXPECT_GT(f.world.net().stats().lan_bytes, 0u);  // SigShares within region
}

TEST(IrmcSc, CollectorSwitchOnSilentCollector) {
  ChannelFixture f(IrmcKind::SenderCollect);
  // Receiver 0's default collector is sender 0; make sender 0 unable to
  // reach receiver 0 (but senders still exchange shares via LAN).
  NodeId s0 = f.sender_hosts[0]->id();
  NodeId r0 = f.receiver_hosts[0]->id();
  f.world.net().set_link_filter([&, s0, r0](NodeId from, NodeId to) {
    return !(from == s0 && to == r0);
  });

  Bytes got;
  f.receivers[0]->receive(1, 1, [&](RecvResult res) { got = res.message.to_bytes(); });
  Bytes m = f.msg(1);
  f.send_from_all(1, 1, m);
  // Progress messages from other senders reveal the gap; after the timeout
  // receiver 0 selects a new collector and obtains the certificate.
  f.world.run_for(3 * kSecond);
  EXPECT_EQ(got, m);
  auto* rcv = dynamic_cast<ScReceiver*>(f.receivers[0].get());
  ASSERT_NE(rcv, nullptr);
  EXPECT_NE(rcv->collector(1), 0u);
}

TEST(IrmcSc, ForgedCertificateRejected) {
  ChannelFixture f(IrmcKind::SenderCollect);
  // Sender 0 crafts a certificate for content no other sender vouched for:
  // it has only its own share, so it pads with a duplicated/forged share.
  ComponentHost& evil = *f.sender_hosts[0];
  Bytes payload = f.msg(666);
  irmc::SigShareMsg share{1, 1, Sha256::hash(payload)};
  Writer sw;
  sw.u32(f.cfg.channel_tag);
  sw.raw(share.encode());
  Bytes share_auth = std::move(sw).take();
  Bytes own_sig = f.world.crypto().sign(evil.id(), share_auth);

  irmc::CertificateMsg cert{1, 1, payload, {{0, own_sig}, {1, own_sig}}};  // forged share for idx 1
  Bytes body = cert.encode();
  Writer aw;
  aw.u32(f.cfg.channel_tag);
  aw.raw(body);
  Bytes cert_sig = f.world.crypto().sign(evil.id(), aw.data());
  Bytes wire = body;
  wire.insert(wire.end(), cert_sig.begin(), cert_sig.end());
  Writer fw;
  fw.u32(f.cfg.channel_tag);
  fw.raw(wire);
  for (NodeId r : f.cfg.receivers) evil.send_to(r, fw.data());

  bool delivered = false;
  f.receivers[0]->receive(1, 1, [&](RecvResult) { delivered = true; });
  f.world.run_for(kSecond);
  EXPECT_FALSE(delivered);  // share for index 1 does not verify
}

TEST(IrmcSc, HostileCountsAreDroppedAndTheChannelKeepsDelivering) {
  // An authenticated Byzantine sender frames a Certificate whose share
  // count and a Progress whose entry count are 0xFFFFFFFF. The receiver
  // must drop both (SerdeError, not an allocation failure escaping the
  // host) and go on delivering genuine traffic.
  ChannelFixture f(IrmcKind::SenderCollect);
  ComponentHost& evil = *f.sender_hosts[0];
  const std::uint32_t tag = f.cfg.channel_tag;
  auto frame = [&](const Writer& body, BytesView auth) {
    Writer fw;
    fw.u32(tag);
    fw.raw(body.data());
    fw.raw(auth);
    return std::move(fw).take();
  };
  auto signed_input = [&](const Writer& body) {
    Writer aw;
    aw.u32(tag);
    aw.raw(body.data());
    return std::move(aw).take();
  };

  Writer cert;
  cert.u8(static_cast<std::uint8_t>(irmc::MsgType::Certificate));
  cert.u64(1);  // sc
  cert.u64(1);  // p
  cert.bytes(f.msg(666));
  cert.u32(0xFFFFFFFFu);
  cert.u64(0);
  const Bytes cert_sig = f.world.crypto().sign(evil.id(), signed_input(cert));

  Writer progress;
  progress.u8(static_cast<std::uint8_t>(irmc::MsgType::Progress));
  progress.u32(0xFFFFFFFFu);
  progress.u64(1);

  for (NodeId r : f.cfg.receivers) {
    evil.send_to(r, frame(cert, cert_sig));
    evil.send_to(r, frame(progress, f.world.crypto().mac(evil.id(), r, signed_input(progress))));
  }
  f.world.run_for(kSecond);

  Bytes got;
  f.receivers[0]->receive(1, 1, [&](RecvResult res) { got = res.message.to_bytes(); });
  const Bytes m = f.msg(1);
  f.send_from_all(1, 1, m);
  f.world.run_for(kSecond);
  EXPECT_EQ(got, m);
}

TEST(IrmcSc, DuplicateShareIndexRejected) {
  // fs+1 shares that all carry one sender's valid signature under the same
  // index vouch for the content only once: the certificate is rejected.
  ChannelFixture f(IrmcKind::SenderCollect);
  ComponentHost& evil = *f.sender_hosts[0];
  Bytes payload = f.msg(667);
  irmc::SigShareMsg share{1, 1, Sha256::hash(payload)};
  Writer sw;
  sw.u32(f.cfg.channel_tag);
  sw.raw(share.encode());
  Bytes share_auth = std::move(sw).take();
  auto send_cert = [&](std::vector<std::pair<std::uint32_t, Bytes>> shares) {
    irmc::CertificateMsg cert{1, 1, payload, std::move(shares)};
    Bytes body = cert.encode();
    Writer aw;
    aw.u32(f.cfg.channel_tag);
    aw.raw(body);
    Bytes cert_sig = f.world.crypto().sign(evil.id(), aw.data());
    Writer fw;
    fw.u32(f.cfg.channel_tag);
    fw.raw(body);
    fw.raw(cert_sig);
    for (NodeId r : f.cfg.receivers) evil.send_to(r, fw.data());
  };

  bool delivered = false;
  f.receivers[0]->receive(1, 1, [&](RecvResult) { delivered = true; });
  Bytes own_sig = f.world.crypto().sign(evil.id(), share_auth);
  send_cert({{0, own_sig}, {0, own_sig}});
  f.world.run_for(kSecond);
  EXPECT_FALSE(delivered);

  // Control: a second sender's genuine share completes the certificate.
  Bytes other_sig = f.world.crypto().sign(f.cfg.senders[1], share_auth);
  send_cert({{0, own_sig}, {1, other_sig}});
  f.world.run_for(kSecond);
  EXPECT_TRUE(delivered);
}

}  // namespace
}  // namespace spider
