// Cross-backend parity: the same scripted KV workload runs through the
// full Spider stack (PBFT agreement + execution groups + client protocol)
// twice — once over the deterministic sim network, once over real loopback
// sockets (UDP weak reads + framed TCP ordered traffic, pumped by
// net::RealtimeDriver) — and both runs must
//
//   (a) pass the Wing–Gong linearizability checker, and
//   (b) produce identical client-visible results for every strong
//       operation (writes, deletes, strong reads).
//
// Weak reads ride the UDP fast path and are allowed bounded staleness
// (committed-prefix rule), so their observed values may legitimately
// differ between backends; the checker still validates each of them
// against its own history.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/kv_recorder.hpp"
#include "check/linearizer.hpp"
#include "net/loopback_transport.hpp"
#include "net/realtime.hpp"
#include "spider/system.hpp"
#include "tests/support/counting_crypto.hpp"

namespace spider {
namespace {

struct Deployment {
  // Declaration order is destruction-safety order: nodes (system/clients)
  // detach through world.transport() in their destructors, so the socket
  // transport and driver must outlive them.
  World world;
  std::unique_ptr<net::LoopbackTransport> sock;
  std::unique_ptr<net::RealtimeDriver> driver;
  std::unique_ptr<SpiderSystem> sys;
  std::vector<std::unique_ptr<SpiderClient>> clients;
  HistoryRecorder hist{world};

  explicit Deployment(bool loopback) : world(777, std::make_unique<CountingCrypto>(777)) {
    if (loopback) {
      sock = std::make_unique<net::LoopbackTransport>();
      world.install_transport(sock.get());
      driver = std::make_unique<net::RealtimeDriver>(world, *sock);
    }
    SpiderTopology topo;
    topo.fa = 1;
    topo.fe = 1;
    topo.exec_regions = {Region::Virginia};
    sys = std::make_unique<SpiderSystem>(world, topo);
    clients.push_back(sys->make_client(Site{Region::Virginia, 0}));
    clients.push_back(sys->make_client(Site{Region::Virginia, 1}));
  }

  ~Deployment() {
    clients.clear();
    sys.reset();
    driver.reset();
  }

  CountingCrypto& counter() { return dynamic_cast<CountingCrypto&>(world.crypto()); }

  /// Pumps in small virtual-time slices; with the realtime driver
  /// installed each slice also pumps the socket reactor, so the same loop
  /// drives both backends.
  bool pump_until(const std::function<bool()>& pred) {
    for (int i = 0; i < 4000 && !pred(); ++i) world.run_for(5 * kMillisecond);
    return pred();
  }
};

struct OpResult {
  bool done = false;
  bool ok = false;
  std::string value;
};

/// One blocking recorded operation; `issue` receives the client callback.
template <class Issue>
OpResult run_op(Deployment& d, Issue&& issue) {
  auto res = std::make_shared<OpResult>();
  issue([res, &hist = d.hist](HistoryRecorder::OpId id, Bytes reply) {
    KvReply r = kv_decode_reply(reply);
    res->ok = r.ok;
    res->value = to_string(r.value);
    hist.respond(id, r.ok, std::move(r.value));
    res->done = true;
  });
  EXPECT_TRUE(d.pump_until([res] { return res->done; })) << "operation never completed";
  return *res;
}

OpResult put(Deployment& d, std::size_t c, const std::string& key, const std::string& val) {
  return run_op(d, [&](auto&& cb) {
    HistoryRecorder::OpId id = d.hist.invoke(c + 1, HistOp::Put, key, to_bytes(val));
    d.clients[c]->write(kv_put(key, to_bytes(val)),
                        [cb, id](Bytes reply, Duration) { cb(id, std::move(reply)); });
  });
}

OpResult del(Deployment& d, std::size_t c, const std::string& key) {
  return run_op(d, [&](auto&& cb) {
    HistoryRecorder::OpId id = d.hist.invoke(c + 1, HistOp::Del, key);
    d.clients[c]->write(kv_del(key),
                        [cb, id](Bytes reply, Duration) { cb(id, std::move(reply)); });
  });
}

OpResult strong_get(Deployment& d, std::size_t c, const std::string& key) {
  return run_op(d, [&](auto&& cb) {
    HistoryRecorder::OpId id = d.hist.invoke(c + 1, HistOp::StrongGet, key);
    d.clients[c]->strong_read(kv_get(key),
                              [cb, id](Bytes reply, Duration) { cb(id, std::move(reply)); });
  });
}

OpResult weak_get(Deployment& d, std::size_t c, const std::string& key) {
  return run_op(d, [&](auto&& cb) {
    HistoryRecorder::OpId id = d.hist.invoke(c + 1, HistOp::WeakGet, key);
    d.clients[c]->weak_read(kv_get(key),
                            [cb, id](Bytes reply, Duration) { cb(id, std::move(reply)); });
  });
}

std::string visible(const std::string& op, const OpResult& r) {
  return op + (r.ok ? ":ok:" : ":fail:") + r.value;
}

/// The scripted workload. Returns the client-visible result of every
/// strong operation, in issue order; weak reads are recorded in the
/// history (and checked) but excluded from the cross-backend comparison.
std::vector<std::string> run_workload(Deployment& d) {
  std::vector<std::string> out;
  out.push_back(visible("put-x", put(d, 0, "x", "v1")));
  out.push_back(visible("get-x", strong_get(d, 1, "x")));
  out.push_back(visible("put-y", put(d, 1, "y", "w1")));
  weak_get(d, 0, "x");
  out.push_back(visible("put-x", put(d, 1, "x", "v2")));
  out.push_back(visible("get-x", strong_get(d, 0, "x")));
  out.push_back(visible("get-y", strong_get(d, 0, "y")));
  weak_get(d, 1, "y");
  out.push_back(visible("del-y", del(d, 0, "y")));
  out.push_back(visible("get-y", strong_get(d, 1, "y")));
  for (int i = 0; i < 5; ++i) {
    const std::string v = "round" + std::to_string(i);
    out.push_back(visible("put-x", put(d, i % 2, "x", v)));
    out.push_back(visible("get-x", strong_get(d, (i + 1) % 2, "x")));
    weak_get(d, i % 2, "x");
  }
  out.push_back(visible("get-x", strong_get(d, 0, "x")));
  return out;
}

TEST(NetParity, SimAndLoopbackAgreeOnClientVisibleResults) {
  Deployment sim(/*loopback=*/false);
  std::vector<std::string> sim_visible = run_workload(sim);
  LinResult sim_lin = check_kv_history(sim.hist);
  EXPECT_TRUE(sim_lin.ok) << "sim history not linearizable: " << sim_lin.error;

  Deployment loop(/*loopback=*/true);
  std::vector<std::string> loop_visible = run_workload(loop);
  LinResult loop_lin = check_kv_history(loop.hist);
  EXPECT_TRUE(loop_lin.ok) << "loopback history not linearizable: " << loop_lin.error;

  EXPECT_EQ(sim_visible, loop_visible)
      << "strong-operation results must not depend on the transport backend";

  // The loopback run really used sockets on both channels.
  ASSERT_NE(loop.sock, nullptr);
  EXPECT_GT(loop.sock->counters().tcp_frames_received, 0u)
      << "ordered traffic never crossed the TCP path";
  EXPECT_GT(loop.sock->counters().udp_datagrams_received, 0u)
      << "weak reads never crossed the UDP path";
}

// Work-count guard for seal stamps. In the sim every frame a node opens is
// the buffer its sender sealed for it, so the provider computes no MAC
// verdict and verifies signatures only on re-encoded statements. Socket
// frames are rebuilt from received bytes and carry no stamp, so the same
// exchange over loopback still verifies its frames.
TEST(NetParity, SealStampsSpareFrameVerifiesInTheSimOnly) {
  Deployment sim(/*loopback=*/false);
  run_workload(sim);
  EXPECT_EQ(sim.counter().mac_verifies, 0u);
  EXPECT_EQ(sim.counter().frame_verifies, 0u);
  EXPECT_GT(sim.counter().statement_verifies, 0u);

  Deployment loop(/*loopback=*/true);
  run_workload(loop);
  EXPECT_GT(loop.counter().mac_verifies, 0u);
  EXPECT_GT(loop.counter().frame_verifies, 0u);
}

}  // namespace
}  // namespace spider
