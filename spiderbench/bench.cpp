// spiderbench: the repository's benchmark. One process, one thread, the
// default engine (FastCrypto, no parallel runtime). See README.md in this
// directory for the workloads, every metric and how to read a traced run.
//
//   spiderbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it print
// every metric (end-to-end and diagnostic) by name with its unit. The exit
// code is non-zero when an output check fails.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/kvstore.hpp"
#include "net/loopback_transport.hpp"
#include "net/realtime.hpp"
#include "oracle.hpp"
#include "probes.hpp"
#include "shard/sharded_system.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"

#ifndef SPIDERBENCH_BUILD_TYPE
#define SPIDERBENCH_BUILD_TYPE "unknown"
#endif

namespace spiderbench {
namespace {

using spider::Duration;
using spider::kMillisecond;
using spider::kSecond;
using spider::Region;
using spider::Site;

// ------------------------------------------------------------------ workloads

enum class Deploy : std::uint8_t { kGeo, kShard, kLoopback };

struct Spec {
  const char* name;
  Deploy deploy;
  double rate;        // offered ops/s (Poisson)
  double write_frac;  // ordered writes
  double weak_frac;   // weak reads; the remainder are strong reads
  Duration warmup, measure, drain;
  std::size_t clients;  // SpiderClients, or ShardedClient routers on kShard
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const Spec kSpecs[] = {
    {"geo-write", Deploy::kGeo, 350, 0.85, 0.05, 1 * kSecond, 36 * kSecond, 4 * kSecond, 256},
    {"geo-read", Deploy::kGeo, 6000, 0.05, 0.95, 1 * kSecond, 28 * kSecond, 2 * kSecond, 256},
    {"shard-mixed", Deploy::kShard, 3000, 0.50, 0.45, 1 * kSecond, 10 * kSecond, 2 * kSecond,
     256},
    {"loopback-mixed", Deploy::kLoopback, 400, 0.50, 0.45, 500 * kMillisecond,
     12 * kSecond, 1 * kSecond, 4},
};

// Offered-rate ladder for capacity_ops_s on geo-write; the knee lies inside.
const double kLadder[] = {400, 450, 500, 600, 700, 800};
constexpr Duration kLadderMeasure = 2 * kSecond;
constexpr Duration kLadderDrain = 2 * kSecond;
constexpr double kCapacityP99LimitMs = 400;

constexpr std::uint32_t kShards = 4;  // shard-mixed
constexpr std::size_t kKeys = 4096;
// The reference kernel runs once per this much of the timed phase.
constexpr Duration kReferenceEvery = 200 * kMillisecond;
// Every time is stamped in whole microseconds.
constexpr double kQuantumMs = 0.001;
constexpr double kZipfTheta = 0.99;

std::string key_name(std::uint32_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06u", k);
  return buf;
}

enum class OpKind : std::uint8_t { kWrite, kWeak, kStrong };

struct Op {
  Time due = 0;
  std::uint32_t key = 0;
  std::uint32_t client = 0;
  OpKind kind = OpKind::kWrite;
  bool measured = false;  // due inside the measure window
  std::uint64_t write_id = 0;
  Time done = kNever;
  bool error = false;
  ReadResult result;
  std::uint32_t shard = 0;
};

/// The seed's open-loop schedule: Poisson arrivals at `rate` between
/// `from` and `stop`, Zipf keys, the workload's op mix, round-robin over
/// clients. Drawn from the benchmark's own generator, never the program's.
std::vector<Op> make_schedule(const Spec& s, double rate, std::uint64_t seed, Time from,
                              Time measure_from, Time stop) {
  std::mt19937_64 rng(seed ^ 0x5350494445524245ULL);
  auto uniform01 = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  std::vector<double> cdf(kKeys);
  double sum = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;

  std::vector<Op> ops;
  const double mean_gap_us = 1e6 / rate;
  double t = static_cast<double>(from);
  std::uint64_t next_write = 1;
  for (;;) {
    t += -std::log1p(-uniform01()) * mean_gap_us;
    const auto due = static_cast<Time>(std::llround(t));
    if (due >= stop) break;
    Op op;
    op.due = due;
    op.measured = due >= measure_from;
    const double u = uniform01();
    op.key = static_cast<std::uint32_t>(std::upper_bound(cdf.begin(), cdf.end() - 1, u) -
                                        cdf.begin());
    const double k = uniform01();
    op.kind = k < s.write_frac                 ? OpKind::kWrite
              : k < s.write_frac + s.weak_frac ? OpKind::kWeak
                                               : OpKind::kStrong;
    if (op.kind == OpKind::kWrite) op.write_id = next_write++;
    op.client = static_cast<std::uint32_t>(ops.size() % s.clients);
    ops.push_back(op);
  }
  return ops;
}

// ------------------------------------------------------------------ deployment

spider::SpiderTopology short_wan_topology(std::uint64_t max_batch) {
  spider::SpiderTopology topo;
  topo.exec_regions = {Region::Virginia, Region::Ohio};
  topo.commit_capacity = 128;
  topo.ag_win = 128;
  topo.max_batch = max_batch;
  topo.batch_delay = max_batch > 1 ? kMillisecond : 0;
  return topo;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Host-speed reference: a fixed amount of allocation, byte hashing,
/// hash-map and sort work, the kinds of work the program's hot paths do,
/// over a working set (about 1 MiB) larger than a core's private caches.
/// Untraced passes run it between chunks of the timed phase; CPU time per
/// op divided by this kernel's CPU time, measured in the same pass, cancels
/// most of the drift in host speed that shared machines show.
std::uint64_t reference_kernel() {
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> m;
  for (int i = 0; i < 4096; ++i) {
    std::vector<std::uint8_t> v(64 + splitmix64(x) % 192);
    std::uint64_t fill = splitmix64(x);
    for (std::uint8_t& b : v) {
      fill = fill * 6364136223846793005ULL + 1;
      b = static_cast<std::uint8_t>(fill >> 56);
    }
    m.emplace(splitmix64(x), std::move(v));
  }
  // Look every key up again, in insertion order: scattered node accesses.
  Digest h;
  std::uint64_t y = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 4096; ++i) {
    splitmix64(y);
    splitmix64(y);
    const auto& v = m.at(splitmix64(y));
    h.add(v.data(), 8);
  }
  std::vector<std::uint64_t> s(8192);
  for (std::uint64_t& e : s) e = splitmix64(x);
  std::sort(s.begin(), s.end());
  return h.value() ^ s[4096];
}
volatile std::uint64_t g_reference_sink = 0;

/// Counts read from the program's public accessors. They exist in traced
/// and untraced runs alike, so both runs can be compared by them.
struct Counts {
  std::uint64_t ev_scheduled = 0, ev_fired = 0, ev_cancelled = 0;
  std::uint64_t batches = 0, requests = 0, view_changes = 0;
  std::uint64_t retries = 0, redirects = 0;
  std::uint64_t digests = 0;
  spider::LinkStats link;
  spider::net::LoopbackTransport::Counters sock;
  Duration cat_busy[spider::kCpuCatCount] = {};
  std::vector<Duration> agreement_busy, exec_busy;  // per replica
};

/// One deployment of a workload inside a fresh World.
class Deployment {
 public:
  Deployment(const Spec& spec, std::uint64_t seed, Probe* probe) : probe_(probe) {
    auto crypto = std::make_unique<spider::FastCrypto>(seed);
    if (probe_) {
      world_ = std::make_unique<spider::World>(
          seed, std::make_unique<TimedCrypto>(std::move(crypto), *probe_));
    } else {
      world_ = std::make_unique<spider::World>(seed, std::move(crypto));
    }
    spider::Transport* inner = &world_->net();
    if (spec.deploy == Deploy::kLoopback) {
      sock_ = std::make_unique<spider::net::LoopbackTransport>();
      inner = sock_.get();
    }
    if (probe_) {
      timed_net_ = std::make_unique<TimedTransport>(*inner, *probe_);
      world_->install_transport(timed_net_.get());
    } else if (sock_) {
      world_->install_transport(sock_.get());
    }
    if (sock_) driver_ = std::make_unique<spider::net::RealtimeDriver>(*world_, *sock_);

    auto with_app = [this](spider::SpiderTopology t) {
      if (probe_) {
        Probe* p = probe_;
        t.make_app = [p] {
          return std::make_unique<TimedApp>(std::make_unique<spider::KvStore>(), *p);
        };
      }
      return t;
    };
    switch (spec.deploy) {
      case Deploy::kGeo: {
        single_ = std::make_unique<spider::SpiderSystem>(*world_,
                                                         with_app(spider::SpiderTopology{}));
        const auto& regions = single_->topology().exec_regions;
        for (std::size_t i = 0; i < spec.clients; ++i) {
          const Region r = regions[i % regions.size()];
          const auto az = static_cast<std::uint8_t>((i / regions.size()) %
                                                     static_cast<std::size_t>(spider::az_count(r)));
          clients_.push_back(single_->make_client(Site{r, az}));
        }
        break;
      }
      case Deploy::kLoopback: {
        single_ = std::make_unique<spider::SpiderSystem>(*world_,
                                                         with_app(short_wan_topology(1)));
        for (std::size_t i = 0; i < spec.clients; ++i) {
          clients_.push_back(single_->make_client(short_wan_site(i)));
        }
        break;
      }
      case Deploy::kShard: {
        spider::ShardedTopology topo;
        topo.shards = kShards;
        topo.base = with_app(short_wan_topology(16));
        sharded_ = std::make_unique<spider::ShardedSpiderSystem>(*world_, topo);
        for (std::size_t i = 0; i < spec.clients; ++i) {
          // Two thirds of the routers in Virginia, one third in Ohio: with
          // an even split the median would sit on the gap between the two
          // regions' latency modes and flip between them from seed to seed.
          const Region r = i % 3 == 2 ? Region::Ohio : Region::Virginia;
          routers_.push_back(
              sharded_->make_client(Site{r, static_cast<std::uint8_t>((i / 3) % 3)}));
        }
        break;
      }
    }
  }

  ~Deployment() {
    // Nodes detach through the transport: tear them down first.
    routers_.clear();
    clients_.clear();
    sharded_.reset();
    single_.reset();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  spider::World& world() { return *world_; }
  [[nodiscard]] bool realtime() const { return driver_ != nullptr; }

  std::vector<spider::SpiderSystem*> cores() {
    if (single_) return {single_.get()};
    std::vector<spider::SpiderSystem*> out;
    for (std::uint32_t s = 0; s < sharded_->shard_count(); ++s) {
      out.push_back(&sharded_->core(s));
    }
    return out;
  }

  using Done = std::function<void(spider::Bytes reply, std::uint32_t shard)>;
  void submit(const Op& op, Done done) {
    spider::Bytes encoded =
        op.kind == OpKind::kWrite ? spider::kv_put(key_name(op.key), value_for(op.write_id))
                                  : spider::kv_get(key_name(op.key));
    if (sharded_) {
      spider::ShardedClient& c = *routers_[op.client];
      auto cb = [done = std::move(done)](spider::Bytes r, Duration, std::uint32_t shard) {
        done(std::move(r), shard);
      };
      switch (op.kind) {
        case OpKind::kWrite: c.write_routed(std::move(encoded), std::move(cb)); break;
        case OpKind::kWeak: c.weak_read_routed(std::move(encoded), std::move(cb)); break;
        case OpKind::kStrong: c.strong_read_routed(std::move(encoded), std::move(cb)); break;
      }
      return;
    }
    const spider::OpKind kind = op.kind == OpKind::kWrite  ? spider::OpKind::Write
                                : op.kind == OpKind::kWeak ? spider::OpKind::WeakRead
                                                           : spider::OpKind::StrongRead;
    clients_[op.client]->fire(kind, std::move(encoded),
                              [done = std::move(done)](spider::Bytes r, Duration) {
                                done(std::move(r), 0);
                              });
  }

  [[nodiscard]] std::size_t queue_depth(std::uint32_t client) const {
    return sharded_ ? routers_[client]->pending_ops() : clients_[client]->queue_depth();
  }

  Counts counts() {
    Counts c;
    spider::EventQueue& q = world_->queue();
    c.ev_scheduled = q.scheduled_total();
    c.ev_fired = q.fired_total();
    c.ev_cancelled = q.cancelled_total();
    for (spider::SpiderSystem* core : cores()) {
      for (std::size_t i = 0; i < core->agreement_size(); ++i) {
        spider::AgreementReplica& a = core->agreement(i);
        c.batches += a.consensus().batches_proposed();
        c.requests += a.consensus().requests_proposed();
        c.view_changes += a.consensus().view_changes_started();
        add_busy(c, a, c.agreement_busy);
      }
      for (spider::GroupId g : core->group_ids()) {
        for (std::size_t i = 0; i < core->group_size(g); ++i) {
          add_busy(c, core->exec(g, i), c.exec_busy);
        }
      }
    }
    for (const auto& cl : clients_) c.retries += cl->retries();
    for (const auto& r : routers_) {
      c.retries += r->retries();
      c.redirects += r->redirects();
    }
    world_->refresh_platform_metrics();
    c.digests = static_cast<std::uint64_t>(
        world_->metrics().gauge("payload_digest_computations").value());
    c.link = world_->transport().stats();
    if (sock_) c.sock = sock_->counters();
    return c;
  }

  /// Largest gap between the agreement group's ordered position and the
  /// slowest execution replica, over all cores.
  std::uint64_t exec_lag() {
    std::uint64_t lag = 0;
    for (spider::SpiderSystem* core : cores()) {
      spider::SeqNr ordered = 0;
      for (std::size_t i = 0; i < core->agreement_size(); ++i) {
        ordered = std::max(ordered, core->agreement(i).ordered_seq());
      }
      for (spider::GroupId g : core->group_ids()) {
        for (std::size_t i = 0; i < core->group_size(g); ++i) {
          const spider::SeqNr e = core->exec(g, i).executed_seq();
          if (ordered > e) lag = std::max<std::uint64_t>(lag, ordered - e);
        }
      }
    }
    return lag;
  }

  std::size_t pbft_pending() {
    std::size_t p = 0;
    for (spider::SpiderSystem* core : cores()) {
      for (std::size_t i = 0; i < core->agreement_size(); ++i) {
        p = std::max(p, core->agreement(i).consensus().pending_count());
      }
    }
    return p;
  }

  /// Execution groups whose replicas disagree on snapshot or executed_seq.
  std::vector<std::string> diverged_groups() {
    std::vector<std::string> out;
    std::uint32_t shard = 0;
    for (spider::SpiderSystem* core : cores()) {
      for (spider::GroupId g : core->group_ids()) {
        std::vector<ReplicaState> states;
        for (std::size_t i = 0; i < core->group_size(g); ++i) {
          spider::ExecutionReplica& e = core->exec(g, i);
          states.push_back(ReplicaState{e.app().snapshot(), e.executed_seq()});
        }
        if (!group_converged(states)) {
          out.push_back("shard " + std::to_string(shard) + " group " + std::to_string(g));
        }
      }
      ++shard;
    }
    return out;
  }

 private:
  static Site short_wan_site(std::size_t i) {
    return Site{i % 2 == 0 ? Region::Virginia : Region::Ohio, static_cast<std::uint8_t>(i % 3)};
  }
  static void add_busy(Counts& c, const spider::SimNode& n, std::vector<Duration>& per) {
    for (std::size_t k = 0; k < spider::kCpuCatCount; ++k) {
      c.cat_busy[k] += n.busy_in(static_cast<spider::CpuCat>(k));
    }
    per.push_back(n.busy_time());
  }

  Probe* probe_;
  std::unique_ptr<spider::World> world_;
  std::unique_ptr<spider::net::LoopbackTransport> sock_;
  std::unique_ptr<TimedTransport> timed_net_;
  std::unique_ptr<spider::net::RealtimeDriver> driver_;
  std::unique_ptr<spider::SpiderSystem> single_;
  std::unique_ptr<spider::ShardedSpiderSystem> sharded_;
  std::vector<std::unique_ptr<spider::SpiderClient>> clients_;
  std::vector<std::unique_ptr<spider::ShardedClient>> routers_;
};

// ------------------------------------------------------------------ one pass

/// Everything one deployment's run yields.
struct Pass {
  std::vector<Op> ops;
  double setup_s = 0;
  double timed_wall_s = 0;
  double timed_cpu_s = 0;
  double timed_virtual_s = 0;
  std::size_t measured = 0, completed = 0, failed = 0;
  double ref_cpu_s = 0;  // CPU time of the reference kernel runs
  std::size_t ref_runs = 0;
  Counts c0, c1;  // at the start and the end of the timed phase
  std::uint64_t client_queue_peak = 0;
  std::uint64_t pbft_pending_peak = 0;
  std::uint64_t queue_pending_peak = 0;  // events pending in the queue
  std::uint64_t exec_lag_max = 0;
  std::vector<double> late_ms;  // generator lateness per measured arrival
  std::uint64_t digest = 0;
  std::vector<std::string> diverged;
  // Traced only.
  Probe probe;  // live; the decorators write here
  Probe layer;  // probe as the timed phase ended
  std::uint64_t event_ns = 0;
  std::uint64_t events_timed = 0;
  std::size_t shard_ops[kShards] = {};  // completed measured ops per shard
};

/// Runs one deployment: warm-up, then the timed phase (measure window and
/// drain), then settles and checks replica convergence. `traced` installs
/// the probes and drives sim workloads with the benchmark's own event loop.
std::unique_ptr<Pass> run_pass(const Spec& spec, double rate, Duration measure, Duration drain,
                               std::uint64_t seed, bool traced, bool setup_only = false) {
  auto pass = std::make_unique<Pass>();
  Pass& P = *pass;
  const double setup_t0 = wall_s();
  Deployment d(spec, seed, traced ? &P.probe : nullptr);
  spider::World& w = d.world();
  spider::EventQueue& q = w.queue();

  const Time t0 = w.now();
  const Time measure_from = t0 + spec.warmup;
  const Time stop = measure_from + measure;
  const Time end = stop + drain;
  P.ops = make_schedule(spec, rate, seed, t0, measure_from, stop);

  // Loopback stamps times by the wall clock, anchored at each run_until
  // exactly as the realtime driver anchors its virtual clock.
  Time anchor_v = 0;
  std::uint64_t anchor_ns = 0;
  auto stamp = [&]() -> Time {
    if (!d.realtime()) return w.now();
    return anchor_v + static_cast<Time>((now_ns() - anchor_ns) / 1000);
  };

  std::size_t next = 0;
  std::function<void()> arrive;
  arrive = [&] {
    Op& op = P.ops[next];
    const std::size_t idx = next++;
    if (next < P.ops.size()) q.schedule_at(P.ops[next].due, arrive);
    if (op.measured && d.realtime()) {
      P.late_ms.push_back(static_cast<double>(stamp() - op.due) / 1000.0);
    }
    d.submit(op, [&, idx](spider::Bytes reply, std::uint32_t shard) {
      Op& o = P.ops[idx];
      if (o.done != kNever) return;
      o.done = stamp();
      o.shard = shard;
      try {
        spider::KvReply r = spider::kv_decode_reply(reply);
        if (o.kind == OpKind::kWrite) {
          o.error = !r.ok;
        } else if (!r.ok) {
          o.result.kind = ReadResult::kAbsent;
        } else if (auto id = parse_value(r.value.data(), r.value.size())) {
          o.result = ReadResult{ReadResult::kValue, *id};
        } else {
          o.result.kind = ReadResult::kGarbage;
        }
      } catch (const std::exception&) {
        o.error = true;
      }
    });
    // Read-only samples at every arrival, in traced and untraced passes alike.
    P.client_queue_peak = std::max<std::uint64_t>(P.client_queue_peak, d.queue_depth(op.client));
    P.pbft_pending_peak = std::max<std::uint64_t>(P.pbft_pending_peak, d.pbft_pending());
    P.queue_pending_peak = std::max<std::uint64_t>(P.queue_pending_peak, q.pending());
    if (op.measured) P.exec_lag_max = std::max(P.exec_lag_max, d.exec_lag());
  };
  if (!P.ops.empty()) q.schedule_at(P.ops.front().due, arrive);

  auto run_to = [&](Time t) {
    if (d.realtime()) {
      anchor_v = w.now();
      anchor_ns = now_ns();
      w.run_until(t);
      return;
    }
    if (!traced) {
      w.run_until(t);
      return;
    }
    for (;;) {
      const std::optional<Time> nt = q.next_time();
      if (!nt || *nt > t) break;
      const std::uint64_t e0 = now_ns();
      q.run_next();
      P.event_ns += now_ns() - e0;
      ++P.events_timed;
    }
  };

  run_to(measure_from);
  P.setup_s = wall_s() - setup_t0;
  if (setup_only) return pass;

  // ---- timed phase
  P.probe = Probe{};
  P.event_ns = 0;
  P.events_timed = 0;
  P.c0 = d.counts();
  const double cpu0 = process_cpu_s();
  const double wall0 = wall_s();
  double ref_cpu = 0, ref_wall = 0;
  for (Time t = measure_from; t < end;) {
    t = std::min(t + kReferenceEvery, end);
    run_to(t);
    if (traced) continue;
    const double c = process_cpu_s(), w0 = wall_s();
    g_reference_sink = g_reference_sink + reference_kernel();
    ref_cpu += process_cpu_s() - c;
    ref_wall += wall_s() - w0;
    ++P.ref_runs;
  }
  P.timed_wall_s = wall_s() - wall0 - ref_wall;
  P.timed_cpu_s = process_cpu_s() - cpu0 - ref_cpu;
  P.ref_cpu_s = ref_cpu;
  P.timed_virtual_s = static_cast<double>(end - measure_from) / 1e6;
  P.c1 = d.counts();
  P.layer = P.probe;

  // Real sockets may still carry the last messages: give replicas up to
  // two seconds to agree before the convergence check judges them.
  P.diverged = d.diverged_groups();
  for (int i = 0; i < 20 && d.realtime() && !P.diverged.empty(); ++i) {
    run_to(w.now() + 100 * kMillisecond);
    P.diverged = d.diverged_groups();
  }

  for (const Op& op : P.ops) {
    if (!op.measured) continue;
    ++P.measured;
    if (op.done == kNever || op.error) {
      ++P.failed;
    } else {
      ++P.completed;
      if (op.shard < kShards) ++P.shard_ops[op.shard];
    }
  }

  // Digest of every virtual-time outcome the traced run must reproduce.
  Digest dg;
  for (const Op& op : P.ops) {
    dg.add_u64(static_cast<std::uint64_t>(op.due));
    dg.add_u64(static_cast<std::uint64_t>(op.done));
    dg.add_u64(static_cast<std::uint64_t>(op.error) << 8 | op.result.kind);
    dg.add_u64(op.result.write_id);
  }
  for (const Counts* c : {&P.c0, &P.c1}) {
    for (std::uint64_t v : {c->ev_scheduled, c->ev_fired, c->ev_cancelled, c->batches,
                            c->requests, c->view_changes, c->retries, c->redirects,
                            c->digests, c->link.wan_bytes, c->link.lan_bytes}) {
      dg.add_u64(v);
    }
    for (Duration v : c->cat_busy) dg.add_u64(static_cast<std::uint64_t>(v));
  }
  for (std::uint64_t v :
       {P.client_queue_peak, P.pbft_pending_peak, P.queue_pending_peak, P.exec_lag_max}) {
    dg.add_u64(v);
  }
  dg.add_str(w.metrics().snapshot_json());
  P.digest = dg.value();
  return pass;
}

// ------------------------------------------------------------------ checks

struct CheckReport {
  std::size_t fabricated = 0;
  std::size_t stale_strong = 0;
  std::size_t weak_reads = 0;
  std::size_t weak_stale = 0;
  std::vector<std::string> messages;
};

CheckReport check_pass(const Pass& P) {
  CheckReport r;
  History h;
  for (const Op& op : P.ops) {
    if (op.kind == OpKind::kWrite) {
      h.add_write(op.write_id, op.key, op.due, op.error ? kNever : op.done);
    }
  }
  for (const Op& op : P.ops) {
    if (op.kind == OpKind::kWrite || op.done == kNever || op.error) continue;
    const ReadVerdict v = h.judge(op.key, op.due, op.done, op.result);
    if (v == ReadVerdict::kFabricated) ++r.fabricated;
    if (op.kind == OpKind::kStrong && v == ReadVerdict::kStale) ++r.stale_strong;
    if (op.kind == OpKind::kWeak && op.measured) {
      ++r.weak_reads;
      if (v == ReadVerdict::kStale) ++r.weak_stale;
    }
  }
  if (r.fabricated) {
    r.messages.push_back(std::to_string(r.fabricated) +
                         " reads returned a value never written to their key");
  }
  if (r.stale_strong) {
    r.messages.push_back(std::to_string(r.stale_strong) + " strong reads returned a stale value");
  }
  for (const std::string& g : P.diverged) r.messages.push_back("replicas diverged in " + g);
  return r;
}

// ------------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::vector<double> sojourns_ms(const Pass& P, OpKind kind) {
  std::vector<double> v;
  for (const Op& op : P.ops) {
    if (op.measured && op.kind == kind && op.done != kNever && !op.error) {
      v.push_back(static_cast<double>(op.done - op.due) / 1000.0);
    }
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// Peak resident set of this process image. getrusage's ru_maxrss is not
/// used: Linux carries the pre-exec image's peak into it, so a benchmark
/// started from run.py would report at least the Python parent's size.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
}

bool has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b >> 29) & 1u;
}

void print_metric(const Metric& m) {
  std::printf("metric %-36s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.note.empty() ? "" : "  ", m.note.c_str());
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string source = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--commit") a.commit = v;
    else if (k == "--source-digest") a.source = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::string tail_note(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.4g n=%zu beyond=%zu", t.pct, t.n, t.beyond);
  return buf;
}

double dbl(std::uint64_t v) { return static_cast<double>(v); }
double per(double x, std::size_t n) { return x / static_cast<double>(std::max<std::size_t>(n, 1)); }

/// Capacity: the highest ladder rate whose write p99 stays within the
/// limit with every in-window arrival completed, stopping at the first
/// rate that misses.
double capacity(const Spec& spec, std::uint64_t seed) {
  double best = 0;
  for (double rate : kLadder) {
    auto p = run_pass(spec, rate, kLadderMeasure, kLadderDrain, seed, false);
    const Tail t = tail(sojourns_ms(*p, OpKind::kWrite), kQuantumMs);
    const bool ok = p->failed == 0 && t.ok && t.value <= kCapacityP99LimitMs;
    std::printf("ladder rate=%.0f write_%s_ms=%.3f failed=%zu %s\n", rate,
                tail_note(t).c_str(), t.value, p->failed, ok ? "meets" : "misses");
    if (!ok) break;
    best = rate;
  }
  return best;
}

/// Output checks of one pass, outside its timed phase.
struct Verdict {
  bool correct = true;
  std::size_t weak_reads = 0, weak_stale = 0;

  void fail(const std::string& why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  void check(const Pass& p) {
    const CheckReport r = check_pass(p);
    for (const std::string& m : r.messages) fail(m);
    weak_reads += r.weak_reads;
    weak_stale += r.weak_stale;
  }
};

using Passes = std::vector<std::unique_ptr<Pass>>;

double median_of(const Passes& v, const std::function<double(const Pass&)>& f) {
  std::vector<double> xs;
  for (const auto& p : v) xs.push_back(f(*p));
  return median(xs);
}

double cpu_us_per_op(const Pass& p) { return per(p.timed_cpu_s * 1e6, p.completed); }

/// End-to-end metrics (`out`, the JSON) and diagnostics (`diag`, printed)
/// of the untraced passes of one run.
void end_to_end(const Spec& spec, std::uint64_t seed, const Passes& passes,
                const std::vector<double>& setup, double rss_mb, Verdict& v,
                std::vector<Metric>& out, std::vector<Metric>& diag) {
  const bool sim = spec.deploy != Deploy::kLoopback;
  // Sim passes of one seed are identical in virtual time, so latency comes
  // from the first; loopback passes differ, so their samples are pooled.
  Pass pooled;
  std::size_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = *passes[i];
    if (sim && p.digest != passes.front()->digest) {
      v.fail("same-seed sim passes differ in virtual time");
    }
    if (i == 0 || !sim) {
      pooled.ops.insert(pooled.ops.end(), p.ops.begin(), p.ops.end());
      pooled.late_ms.insert(pooled.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    }
    attempted += p.measured;
    failed += p.failed;
  }
  const auto w = sojourns_ms(pooled, OpKind::kWrite);
  const auto wk = sojourns_ms(pooled, OpKind::kWeak);
  const auto st = sojourns_ms(pooled, OpKind::kStrong);
  const Tail wt = tail(w, kQuantumMs), wkt = tail(wk, kQuantumMs);
  if (!wt.ok || !wkt.ok) v.fail("too few samples for a supported tail");

  auto n_of = [](const std::vector<double>& v) { return "n=" + std::to_string(v.size()); };
  out.push_back({"write_p50_ms", percentile(w, 50, kQuantumMs), "ms", n_of(w)});
  out.push_back({"weak_p50_ms", percentile(wk, 50, kQuantumMs), "ms", n_of(wk)});
  out.push_back({"cpu_ref_per_op", median_of(passes, [](const Pass& p) {
                   return cpu_us_per_op(p) / (p.ref_cpu_s * 1e6 / static_cast<double>(p.ref_runs));
                 }), "ref/op", "median of " + std::to_string(passes.size()) + " passes"});
  out.push_back({"peak_rss_mb", rss_mb, "MB", "at the end of the first pass"});
  out.push_back({"setup_s", median(setup), "s",
                 "median of " + std::to_string(setup.size()) + " set-ups"});

  diag.push_back({"cpu_us_per_op", median_of(passes, cpu_us_per_op), "us", ""});
  diag.push_back({"reference_us", median_of(passes, [](const Pass& p) {
                    return p.ref_cpu_s * 1e6 / static_cast<double>(p.ref_runs);
                  }), "us", "CPU time of one reference kernel run"});
  diag.push_back({"write_p99_ms", wt.value, "ms", tail_note(wt)});
  diag.push_back({"weak_p99_ms", wkt.value, "ms", tail_note(wkt)});
  diag.push_back({"strong_p50_ms", percentile(st, 50, kQuantumMs), "ms",
                  st.empty() ? "no strong reads in this mix" : "n=" + std::to_string(st.size())});
  diag.push_back({"weak_stale_frac", per(static_cast<double>(v.weak_stale), v.weak_reads), "frac",
                  "of " + std::to_string(v.weak_reads) + " weak reads"});
  diag.push_back({"failed_ops_frac", per(static_cast<double>(failed), attempted), "frac",
                  std::to_string(failed) + " of " + std::to_string(attempted)});
  if (sim) {
    diag.push_back({"sim_s_per_wall_s",
                    median_of(passes,
                              [](const Pass& p) { return p.timed_virtual_s / p.timed_wall_s; }),
                    "s/s", ""});
  } else {
    std::sort(pooled.late_ms.begin(), pooled.late_ms.end());
    const Tail lt = tail(pooled.late_ms, kQuantumMs);
    diag.push_back({"load.late_p99_ms", lt.value, "ms", tail_note(lt)});
  }
  if (spec.deploy == Deploy::kGeo && spec.write_frac > 0.5) {
    diag.push_back({"capacity_ops_s", capacity(spec, seed), "ops/s",
                    "highest ladder rate with write p99 <= 400 ms, all completed"});
  }
}

/// Per-layer metrics of the traced passes; `plain` are the untraced
/// passes of the same seed, for the tracing overhead.
void per_layer(const Spec& spec, const Passes& plain, const Passes& traced,
               std::vector<Metric>& out) {
  const bool sim = spec.deploy != Deploy::kLoopback;
  // Counts repeat exactly from pass to pass on sim workloads: take them
  // from the first traced pass. Times are medians over the traced passes.
  const Pass& T = *traced.front();
  const Probe& L = T.layer;
  const std::size_t ops = T.completed;
  std::size_t writes = 0;
  for (const Op& op : T.ops) writes += op.measured && op.kind == OpKind::kWrite;
  auto d = [](std::uint64_t a1, std::uint64_t a0) { return static_cast<double>(a1 - a0); };
  auto m = [&](const std::string& n, double v, const char* u) { out.push_back({n, v, u, ""}); };
  auto timed = [&](const std::function<double(const Pass&)>& f) { return median_of(traced, f); };
  // Median over traced passes of a per-op time, in microseconds.
  auto us_per_op = [&](const std::function<double(const Pass&)>& ns) {
    return timed([&](const Pass& p) { return per(ns(p) / 1000.0, p.completed); });
  };

  // sim: the event loop and the modeled CPU.
  m("sim.events_per_op", per(d(T.c1.ev_fired, T.c0.ev_fired), ops), "count/op");
  // The realtime driver runs loopback events: no per-event times there.
  const double ns_per_event =
      timed([](const Pass& p) { return per(dbl(p.event_ns), p.events_timed); });
  const double self_us = us_per_op([](const Pass& p) {
    return dbl(p.event_ns) - dbl(p.layer.child_ns());
  });
  m("sim.ns_per_event", sim ? ns_per_event : 0.0, "ns");
  m("sim.cancelled_frac",
    d(T.c1.ev_cancelled, T.c0.ev_cancelled) /
        std::max(1.0, d(T.c1.ev_scheduled, T.c0.ev_scheduled)),
    "frac");
  m("sim.pending_peak", dbl(T.queue_pending_peak), "count");
  m("sim.handler_self_us_per_op", sim ? self_us : 0.0, "us/op");
  const double elapsed_us = T.timed_virtual_s * 1e6;
  auto util_max = [&](const std::vector<Duration>& b1, const std::vector<Duration>& b0) {
    double mx = 0;
    for (std::size_t i = 0; i < b1.size() && i < b0.size(); ++i) {
      mx = std::max(mx, static_cast<double>(b1[i] - b0[i]) / elapsed_us);
    }
    return mx;
  };
  m("sim.cpu_util.agreement_max", util_max(T.c1.agreement_busy, T.c0.agreement_busy), "frac");
  m("sim.cpu_util.exec_max", util_max(T.c1.exec_busy, T.c0.exec_busy), "frac");
  const char* cats[] = {"serde", "crypto", "app", "other"};
  for (std::size_t k = 0; k < spider::kCpuCatCount; ++k) {
    m(std::string("sim.cpu_cat.") + cats[k] + "_us_per_op",
      per(static_cast<double>(T.c1.cat_busy[k] - T.c0.cat_busy[k]), ops), "us/op");
  }

  // crypto, attributed by frame tag.
  for (int op = 0; op < kCryptoOpCount; ++op) {
    m(std::string("crypto.") + crypto_op_name(op) + "_per_op", per(dbl(L.crypto_calls[op]), ops),
      "count/op");
  }
  for (int op = 0; op < kCryptoOpCount; ++op) {
    m(std::string("crypto.ns_per_call.") + crypto_op_name(op),
      timed([op](const Pass& p) {
        return per(dbl(p.layer.crypto_ns[op]), p.layer.crypto_calls[op]);
      }),
      "ns");
  }
  for (int c : {kPbft, kIrmc, kClient, kCheckpoint}) {
    m(std::string("crypto.us_per_op.") + comp_name(c),
      us_per_op([c](const Pass& p) { return dbl(p.layer.crypto_ns_by_comp[c]); }), "us/op");
  }
  m("crypto.verify_failed", dbl(L.verify_failed), "count");
  m("payload.digests_per_op", per(d(T.c1.digests, T.c0.digests), ops), "count/op");

  // net, attributed by frame tag.
  for (int c : {kPbft, kIrmc, kClient, kCheckpoint, kRegistry}) {
    m(std::string("net.msgs_per_op.") + comp_name(c), per(dbl(L.msgs[c]), ops), "count/op");
  }
  for (int c : {kPbft, kIrmc, kClient, kCheckpoint, kRegistry}) {
    m(std::string("net.bytes_per_op.") + comp_name(c), per(dbl(L.bytes[c]), ops), "B/op");
  }
  m("net.wan_bytes_per_op", per(d(T.c1.link.wan_bytes, T.c0.link.wan_bytes), ops), "B/op");
  m("net.lan_bytes_per_op", per(d(T.c1.link.lan_bytes, T.c0.link.lan_bytes), ops), "B/op");
  m("net.send_ns", timed([](const Pass& p) {
      std::uint64_t n = 0;
      for (auto x : p.layer.msgs) n += x;
      return per(dbl(p.layer.send_ns), n);
    }), "ns");
  const auto& s1 = T.c1.sock;
  const auto& s0 = T.c0.sock;
  m("net.loopback.tcp_frames_per_op", per(d(s1.tcp_frames_sent, s0.tcp_frames_sent), ops),
    "count/op");
  m("net.loopback.udp_datagrams_per_op",
    per(d(s1.udp_datagrams_sent, s0.udp_datagrams_sent), ops), "count/op");
  m("net.loopback.drops",
    d(s1.dropped_backpressure + s1.dropped_unknown_dest + s1.dropped_down,
      s0.dropped_backpressure + s0.dropped_unknown_dest + s0.dropped_down), "count");
  m("net.loopback.udp_send_failures", d(s1.udp_send_failures, s0.udp_send_failures), "count");
  m("net.loopback.tcp_retries", d(s1.tcp_retries, s0.tcp_retries), "count");

  // consensus
  const double batches = d(T.c1.batches, T.c0.batches);
  m("pbft.batch_size", d(T.c1.requests, T.c0.requests) / std::max(1.0, batches), "count");
  m("pbft.msgs_per_batch", dbl(L.msgs[kPbft]) / std::max(1.0, batches), "count");
  m("pbft.pending_peak", dbl(T.pbft_pending_peak), "count");
  m("pbft.view_changes", d(T.c1.view_changes, T.c0.view_changes), "count");

  // irmc
  m("irmc.msgs_per_write", per(dbl(L.msgs[kIrmc]), writes), "count/op");
  m("irmc.bytes_per_write", per(dbl(L.bytes[kIrmc]), writes), "B/op");
  m("irmc.crypto_us_per_write", per(dbl(L.crypto_ns_by_comp[kIrmc]) / 1000.0, writes), "us/op");

  // spider
  m("spider.exec_lag_max", dbl(T.exec_lag_max), "count");
  m("spider.client_retransmits_per_op", per(d(T.c1.retries, T.c0.retries), ops), "count/op");
  m("spider.client_queue_peak", dbl(T.client_queue_peak), "count");

  // app
  m("app.execute_per_op", per(dbl(L.app_execute), ops), "count/op");
  m("app.weak_per_op", per(dbl(L.app_weak), ops), "count/op");
  m("app.ns_per_call",
    timed([](const Pass& p) { return per(dbl(p.layer.app_ns), p.layer.app_calls()); }), "ns");
  m("app.snapshots_per_op", per(dbl(L.app_snapshots), ops), "count/op");

  // shard
  double mx = 0, sum = 0;
  for (std::size_t s : T.shard_ops) {
    mx = std::max(mx, static_cast<double>(s));
    sum += static_cast<double>(s);
  }
  const bool sharded = spec.deploy == Deploy::kShard && sum > 0;
  m("shard.ops_max_over_mean", sharded ? mx / (sum / kShards) : 0.0, "ratio");
  m("shard.redirects", d(T.c1.redirects, T.c0.redirects), "count");

  // generator and probes
  std::vector<double> late = T.late_ms;
  std::sort(late.begin(), late.end());
  m("load.late_p99_ms", tail(late, kQuantumMs).value, "ms");
  m("trace.overhead_frac", timed(cpu_us_per_op) / median_of(plain, cpu_us_per_op) - 1.0, "frac");

  // The traced timed phase's wall time, split into parts that sum to it.
  m("trace.wall_us_per_op", us_per_op([](const Pass& p) { return p.timed_wall_s * 1e9; }), "us/op");
  m("trace.crypto_us_per_op",
    us_per_op([](const Pass& p) { return dbl(p.layer.crypto_total_ns()); }), "us/op");
  m("trace.send_us_per_op", us_per_op([](const Pass& p) { return dbl(p.layer.send_ns); }), "us/op");
  m("trace.app_us_per_op", us_per_op([](const Pass& p) { return dbl(p.layer.app_ns); }), "us/op");
  m("trace.snapshot_us_per_op",
    us_per_op([](const Pass& p) { return dbl(p.layer.app_snapshot_ns); }), "us/op");
  // On sim workloads the benchmark's loop times every event, so what no
  // span covers is the loop itself; on loopback the realtime driver runs
  // the events, and handler code, polling and idle waits stay unattributed.
  m("trace.unattributed_us_per_op", us_per_op([sim](const Pass& p) {
      const double covered = sim ? dbl(p.event_ns) : dbl(p.layer.child_ns());
      return p.timed_wall_s * 1e9 - covered;
    }), "us/op");
}

int run(const Args& a) {
  const Spec* spec = find_spec(a.workload);
  if (!spec) throw std::invalid_argument("unknown workload '" + a.workload + "'");
  const bool sim = spec->deploy != Deploy::kLoopback;
  std::printf("# fingerprint {\"cpu\": \"%s\", \"nproc\": %ld, \"sha_ni\": %s, \"build\": \"%s\", "
              "\"commit\": \"%s\", \"source_digest\": \"%s\", \"seed\": %llu, \"workload\": "
              "\"%s\", \"trace\": %d}\n",
              json_escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              has_sha_ni() ? "true" : "false", SPIDERBENCH_BUILD_TYPE,
              json_escape(a.commit).c_str(), json_escape(a.source).c_str(),
              static_cast<unsigned long long>(a.seed), spec->name, a.trace);

  // Passes repeat while the next one is expected to end within the budget.
  const double budget_t0 = wall_s();
  double pass_t0 = budget_t0, last_pass_s = 0;
  auto another = [&](std::size_t done) {
    const double now = wall_s();
    if (done > 0) last_pass_s = now - pass_t0;
    pass_t0 = now;
    return done == 0 || now - budget_t0 + last_pass_s <= a.seconds;
  };
  auto pass = [&](bool traced) {
    return run_pass(*spec, spec->rate, spec->measure, spec->drain, a.seed, traced);
  };

  Verdict v;
  std::vector<Metric> out, diag;
  Passes checked;  // the passes `attempted` and `failed` count
  if (a.trace == 0) {
    Passes passes;
    std::vector<double> setup;
    double rss_mb = 0;
    while (another(passes.size())) {
      passes.push_back(pass(false));
      setup.push_back(passes.back()->setup_s);
      v.check(*passes.back());
      // The first pass only: later passes run while earlier ones are kept,
      // and how many run depends on the host's speed.
      if (passes.size() == 1) rss_mb = peak_rss_mb();
    }
    // Set-up is short and noisy: take at least five samples of it.
    while (setup.size() < 5) {
      setup.push_back(run_pass(*spec, spec->rate, spec->measure, spec->drain, a.seed, false,
                               /*setup_only=*/true)
                          ->setup_s);
    }
    std::printf("virtual_digest %016llx\n",
                static_cast<unsigned long long>(passes.front()->digest));
    end_to_end(*spec, a.seed, passes, setup, rss_mb, v, out, diag);
    checked = std::move(passes);
  } else {
    // Pairs of an untraced and a traced pass of the same seed.
    Passes plain, traced;
    while (another(plain.size())) {
      plain.push_back(pass(false));
      traced.push_back(pass(true));
      v.check(*plain.back());
      v.check(*traced.back());
      if (traced.back()->layer.verify_failed) v.fail("crypto verification failed");
      std::printf("virtual_digest untraced=%016llx traced=%016llx\n",
                  static_cast<unsigned long long>(plain.back()->digest),
                  static_cast<unsigned long long>(traced.back()->digest));
      if (sim && plain.back()->digest != traced.back()->digest) {
        v.fail("the traced pass differs from the untraced pass: the probes are not out of band");
      }
    }
    per_layer(*spec, plain, traced, out);
    checked = std::move(traced);
  }

  std::size_t attempted = 0, failed = 0;
  for (const auto& p : checked) {
    attempted += p->measured;
    failed += p->failed;
  }
  for (const Metric& mt : out) print_metric(mt);
  for (const Metric& mt : diag) print_metric(mt);
  std::string json = "{\"correct\": " + std::string(v.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + num(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return v.correct ? 0 : 1;
}

}  // namespace
}  // namespace spiderbench

int main(int argc, char** argv) {
  try {
    return spiderbench::run(spiderbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spiderbench: %s\n", e.what());
    return 2;
  }
}
