// Self-test of the benchmark's own logic (oracle.hpp): percentile and tail
// selection, value provenance, the staleness oracle on a hand-built
// history, and planted violations the output checks must catch. Exits
// non-zero on the first wrong answer. run.py runs it after every build.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "oracle.hpp"

using namespace spiderbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentiles() {
  expect(percentile(ramp(1000), 50) == 500, "p50 of 1..1000 is 500");
  expect(percentile(ramp(1001), 50) == 501, "p50 of 1..1001 is 501");
  expect(percentile(ramp(10), 99) == 10, "p99 of 1..10 is 10");
  expect(percentile({}, 50) == 0, "empty sample reads 0");

  const Tail t1000 = tail(ramp(1000));
  expect(t1000.ok && t1000.pct == 99.0 && t1000.value == 990 && t1000.beyond == 10,
         "1000 samples support p99 = 990 with 10 beyond");
  const Tail t5000 = tail(ramp(5000));
  expect(t5000.ok && t5000.pct == 99.0 && t5000.value == 4950 && t5000.beyond == 50,
         "5000 samples: p99 = 4950");
  const Tail t999 = tail(ramp(999));
  expect(t999.ok && t999.value == 989 && t999.beyond == 10 && t999.pct < 99.0,
         "999 samples fall back below p99 to keep 10 beyond");
  const Tail t200 = tail(ramp(200));
  expect(t200.ok && t200.value == 190 && t200.pct == 95.0, "200 samples: p95 = 190");
  const Tail t11 = tail(ramp(11));
  expect(t11.ok && t11.value == 1 && t11.beyond == 10, "11 samples: lowest rank, 10 beyond");
  expect(!tail(ramp(10)).ok, "10 samples support no tail");

  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median odd and even");

  // Refinement inside the measurement grid: the result moves with the
  // share of tied samples below the rank, within half a quantum.
  expect(percentile(ramp(1000), 50, 1.0) == 500.5, "distinct values: upper edge of the cell");
  expect(percentile({2, 2, 2, 2}, 50, 1.0) == 2.0, "all tied: middle of the cell");
  const double p = percentile({1, 2, 2, 2}, 50, 1.0);
  expect(p > 1.83 && p < 1.84, "one sample below three ties: a third into the cell");
  expect(tail(ramp(1000), 1.0).value == 990.5, "tails use the same refinement");
}

void values() {
  for (std::uint64_t id : {1ULL, 42ULL, 0xFFFFFFFFFFULL}) {
    const auto v = value_for(id);
    const auto back = parse_value(v.data(), v.size());
    expect(back && *back == id, "value round-trips its write id");
  }
  auto v = value_for(7);
  v[100] ^= 1;
  expect(!parse_value(v.data(), v.size()), "a value with altered filler is not a written value");
  auto w = value_for(7);
  w.pop_back();
  expect(!parse_value(w.data(), w.size()), "a truncated value is not a written value");
}

ReadResult val(std::uint64_t id) { return ReadResult{ReadResult::kValue, id}; }
ReadResult absent() { return ReadResult{ReadResult::kAbsent, 0}; }

void staleness() {
  // Key 1: w1 due 0 acked 10; w2 due 20 acked 30; w3 due 25 acked 40
  // (w2 and w3 overlap). Key 2: w4 due 5 acked 15.
  History h;
  h.add_write(1, 1, 0, 10);
  h.add_write(2, 1, 20, 30);
  h.add_write(3, 1, 25, 40);
  h.add_write(4, 2, 5, 15);
  h.add_write(5, 1, 50, kNever);  // never acknowledged

  expect(h.judge(1, 5, 6, absent()) == ReadVerdict::kOk, "absent before any ack is fresh");
  expect(h.judge(1, 11, 12, absent()) == ReadVerdict::kStale, "absent after an ack is stale");
  expect(h.judge(1, 11, 12, val(1)) == ReadVerdict::kOk, "latest acked value is fresh");
  expect(h.judge(1, 31, 32, val(1)) == ReadVerdict::kStale,
         "w1 acked before w2 was due; w2 acked before the read: stale");
  expect(h.judge(1, 31, 32, val(2)) == ReadVerdict::kOk, "w2 read after its ack is fresh");
  expect(h.judge(1, 41, 42, val(2)) == ReadVerdict::kOk,
         "w2 overlaps w3, so returning w2 after w3's ack is allowed");
  expect(h.judge(1, 41, 42, val(3)) == ReadVerdict::kOk, "w3 is fresh");
  expect(h.judge(1, 21, 35, val(2)) == ReadVerdict::kOk, "an in-flight write may be read");
  expect(h.judge(1, 60, 61, val(5)) == ReadVerdict::kOk, "an unacknowledged write may be read");

  // Planted violations.
  expect(h.judge(2, 20, 21, val(1)) == ReadVerdict::kFabricated, "value of another key");
  expect(h.judge(1, 20, 21, val(99)) == ReadVerdict::kFabricated, "value never written");
  expect(h.judge(1, 1, 8, val(2)) == ReadVerdict::kFabricated,
         "value of a write issued after the read completed");
  expect(h.judge(1, 5, 6, ReadResult{ReadResult::kGarbage, 0}) == ReadVerdict::kFabricated,
         "bytes that are no written value");
  expect(h.judge(2, 16, 17, absent()) == ReadVerdict::kStale, "stale strong read on key 2");

  // weak_stale_frac on a hand-built history of reads: 2 of 5 stale.
  const struct {
    std::uint32_t key;
    Time due;
    ReadResult r;
  } reads[] = {{1, 5, absent()}, {1, 11, absent()}, {1, 31, val(1)}, {1, 41, val(3)},
               {2, 16, val(4)}};
  int stale = 0;
  for (const auto& rd : reads) {
    stale += h.judge(rd.key, rd.due, rd.due + 1, rd.r) == ReadVerdict::kStale;
  }
  expect(stale == 2, "weak_stale_frac oracle counts 2 stale of 5");
}

void convergence() {
  const ReplicaState a{{1, 2, 3}, 10};
  expect(group_converged({a, a, a}), "identical replicas converge");
  ReplicaState b = a;
  b.snapshot[1] = 9;
  expect(!group_converged({a, b, a}), "a diverged snapshot is caught");
  ReplicaState c = a;
  c.executed_seq = 11;
  expect(!group_converged({a, a, c}), "a diverged executed_seq is caught");
}

void digest() {
  Digest x, y, z;
  x.add_u64(1);
  x.add_u64(2);
  y.add_u64(1);
  y.add_u64(2);
  z.add_u64(2);
  z.add_u64(1);
  expect(x.value() == y.value() && x.value() != z.value(), "digest is order-sensitive");
}

}  // namespace

int main() {
  percentiles();
  values();
  staleness();
  convergence();
  digest();
  if (failures) return 1;
  std::printf("selftest: ok\n");
  return 0;
}
