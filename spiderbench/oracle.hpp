// The benchmark's own judgement of a run: exact-sample percentiles, the
// values it writes, and the output checks (value provenance, read
// staleness, replica convergence). Pure logic with no dependency on the
// program under test, so selftest.cpp can plant violations against it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace spiderbench {

using Time = std::int64_t;  // microseconds (virtual on sim, wall-anchored on loopback)
constexpr Time kNever = std::numeric_limits<Time>::max();

// ---------------------------------------------------------------- percentiles

/// Percentile of an ascending sample of values measured on a grid of
/// `quantum` (1 us for every latency here). The nearest-rank value v is
/// refined by interpolating inside v's grid cell, as for grouped data:
/// v - quantum/2 + quantum * (rank - below) / ties, where `below` samples
/// lie under v and `ties` equal it. The result stays within half a quantum
/// of the nearest-rank value; unlike it, a percentile that lands on a value
/// many samples share still moves with the sample. quantum = 0 gives the
/// plain nearest-rank value.
inline double percentile(const std::vector<double>& sorted, double p, double quantum = 0) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const double rank = std::clamp(p / 100.0 * n, 1.0, n);
  const auto idx = static_cast<std::size_t>(std::ceil(rank - 1e-9)) - 1;
  const double v = sorted[idx];
  if (quantum <= 0) return v;
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin();
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin();
  const double within = (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
  return v - quantum / 2 + quantum * within;
}

/// A tail estimate: p99 when at least ten samples lie beyond it, otherwise
/// the highest nearest-rank percentile that still has ten samples beyond it.
struct Tail {
  bool ok = false;   // false: fewer than 11 samples, no supported tail
  double pct = 0;    // percentile actually reported
  double value = 0;
  std::size_t n = 0;       // sample count
  std::size_t beyond = 0;  // samples strictly above the reported rank
};

inline Tail tail(const std::vector<double>& sorted, double quantum = 0) {
  Tail t;
  t.n = sorted.size();
  if (t.n < 11) return t;
  auto rank = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(t.n) - 1e-9));
  t.pct = 99.0;
  if (t.n - rank < 10) {
    rank = t.n - 10;
    t.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(t.n);
  }
  t.ok = true;
  t.value = percentile(sorted, t.pct, quantum);
  t.beyond = t.n - rank;
  return t;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------- values

constexpr std::size_t kValueSize = 160;

inline std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The value written by write `id`: "v" + 16 hex digits of the id, then
/// filler derived from the id, so every write's value is unique and a read
/// can be traced back to exactly one write.
inline std::vector<std::uint8_t> value_for(std::uint64_t id) {
  std::vector<std::uint8_t> v(kValueSize);
  char head[18];
  std::snprintf(head, sizeof(head), "v%016llx", static_cast<unsigned long long>(id));
  std::copy(head, head + 17, v.begin());
  std::uint64_t s = id;
  for (std::size_t i = 17; i < kValueSize; ++i) {
    v[i] = static_cast<std::uint8_t>('a' + splitmix64(s) % 26);
  }
  return v;
}

/// Write id encoded in a value, or nullopt when the bytes are not exactly a
/// value the benchmark wrote.
inline std::optional<std::uint64_t> parse_value(const std::uint8_t* data, std::size_t size) {
  if (size != kValueSize || data[0] != 'v') return std::nullopt;
  std::uint64_t id = 0;
  for (std::size_t i = 1; i < 17; ++i) {
    const char c = static_cast<char>(data[i]);
    int d = -1;
    if (c >= '0' && c <= '9') d = c - '0';
    if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    if (d < 0) return std::nullopt;
    id = id << 4 | static_cast<std::uint64_t>(d);
  }
  const auto expect = value_for(id);
  if (!std::equal(expect.begin(), expect.end(), data)) return std::nullopt;
  return id;
}

// ---------------------------------------------------------------- read oracle

/// What a read returned: a write id, nothing ("absent"), or bytes that are
/// no value the benchmark wrote.
struct ReadResult {
  enum Kind : std::uint8_t { kValue, kAbsent, kGarbage } kind = kAbsent;
  std::uint64_t write_id = 0;
};

enum class ReadVerdict : std::uint8_t { kOk, kStale, kFabricated };

/// History of writes on each key, queried per read. A read due at t is
/// stale when some write w' to its key was acknowledged before t and the
/// returned value's write was acknowledged before w' was even due: the
/// returned write precedes w' in real time, so it is older than a write
/// the reader was entitled to see. "Absent" is stale once any write to the
/// key was acknowledged before t. The test only flags definite violations:
/// writes that overlap in time may be ordered either way.
class History {
 public:
  /// Registers write `id` on `key`, due at `due` and acknowledged at `ack`
  /// (kNever when it never completed). Ids need not be dense.
  void add_write(std::uint64_t id, std::uint32_t key, Time due, Time ack) {
    writes_[id] = Write{key, due, ack};
    sealed_ = false;
  }

  ReadVerdict judge(std::uint32_t key, Time read_due, Time read_done,
                    const ReadResult& r) {
    seal();
    if (r.kind == ReadResult::kGarbage) return ReadVerdict::kFabricated;
    const Write* w = nullptr;
    if (r.kind == ReadResult::kValue) {
      auto it = writes_.find(r.write_id);
      // A value of another key, or of a write issued after the read ended.
      if (it == writes_.end() || it->second.key != key || it->second.due > read_done) {
        return ReadVerdict::kFabricated;
      }
      w = &it->second;
    }
    auto kit = by_key_.find(key);
    if (kit == by_key_.end()) return ReadVerdict::kOk;
    const PerKey& pk = kit->second;
    // Writes acknowledged strictly before the read was due.
    const auto n = static_cast<std::size_t>(
        std::lower_bound(pk.acks.begin(), pk.acks.end(), read_due) - pk.acks.begin());
    if (n == 0) return ReadVerdict::kOk;
    const Time latest_due = pk.max_due[n - 1];
    if (w == nullptr || w->ack < latest_due) return ReadVerdict::kStale;
    return ReadVerdict::kOk;
  }

 private:
  struct Write {
    std::uint32_t key;
    Time due;
    Time ack;
  };
  struct PerKey {
    std::vector<Time> acks;     // ascending
    std::vector<Time> max_due;  // prefix max of due over the ack order
  };

  void seal() {
    if (sealed_) return;
    by_key_.clear();
    std::unordered_map<std::uint32_t, std::vector<std::pair<Time, Time>>> tmp;
    for (const auto& [id, w] : writes_) {
      if (w.ack != kNever) tmp[w.key].emplace_back(w.ack, w.due);
    }
    for (auto& [key, v] : tmp) {
      std::sort(v.begin(), v.end());
      PerKey& pk = by_key_[key];
      Time m = std::numeric_limits<Time>::min();
      for (const auto& [ack, due] : v) {
        m = std::max(m, due);
        pk.acks.push_back(ack);
        pk.max_due.push_back(m);
      }
    }
    sealed_ = true;
  }

  std::unordered_map<std::uint64_t, Write> writes_;
  std::unordered_map<std::uint32_t, PerKey> by_key_;
  bool sealed_ = false;
};

// ---------------------------------------------------------------- convergence

/// One replica's final state as the convergence check sees it.
struct ReplicaState {
  std::vector<std::uint8_t> snapshot;
  std::uint64_t executed_seq = 0;
};

/// True when every replica of one execution group ended in the same state.
inline bool group_converged(const std::vector<ReplicaState>& replicas) {
  for (const ReplicaState& r : replicas) {
    if (r.executed_seq != replicas.front().executed_seq ||
        r.snapshot != replicas.front().snapshot) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- digest

/// FNV-1a, 64 bit: the out-of-band proof compares traced and untraced runs
/// by this digest of their sojourn samples and counts.
class Digest {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_u64(std::uint64_t v) { add(&v, sizeof(v)); }
  void add_str(const std::string& s) { add(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace spiderbench
