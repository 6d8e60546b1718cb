#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>

#include "app/kvstore.hpp"
#include "common/serde.hpp"

namespace spider {
namespace {

TEST(KvStore, PutGet) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v"))));
  KvReply r = kv_decode_reply(kv.execute(kv_get("k")));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(to_string(r.value), "v");
}

TEST(KvStore, GetMissing) {
  KvStore kv;
  KvReply r = kv_decode_reply(kv.execute(kv_get("nope")));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.value.empty());
}

TEST(KvStore, Overwrite) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v1"))));
  kv.execute(kv_put("k", to_bytes(std::string("v2"))));
  KvReply r = kv_decode_reply(kv.execute(kv_get("k")));
  EXPECT_EQ(to_string(r.value), "v2");
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, Delete) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v"))));
  KvReply del = kv_decode_reply(kv.execute(kv_del("k")));
  EXPECT_TRUE(del.ok);
  EXPECT_FALSE(kv_decode_reply(kv.execute(kv_get("k"))).ok);
  KvReply del2 = kv_decode_reply(kv.execute(kv_del("k")));
  EXPECT_FALSE(del2.ok);  // already gone
}

TEST(KvStore, SizeOp) {
  KvStore kv;
  kv.execute(kv_put("a", {}));
  kv.execute(kv_put("b", {}));
  KvReply r = kv_decode_reply(kv.execute(kv_size()));
  Reader rd(r.value);
  EXPECT_EQ(rd.u64(), 2u);
}

TEST(KvStore, ReadonlyDoesNotMutate) {
  KvStore kv;
  Bytes put = kv_put("k", to_bytes(std::string("v")));
  KvReply r = kv_decode_reply(kv.execute_readonly(put));
  EXPECT_FALSE(r.ok);  // mutation rejected
  EXPECT_EQ(kv.size(), 0u);
}

TEST(KvStore, ReadonlyGetWorks) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v"))));
  KvReply r = kv_decode_reply(kv.execute_readonly(kv_get("k")));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(to_string(r.value), "v");
}

TEST(KvStore, SnapshotRestoreRoundTrip) {
  KvStore a;
  a.execute(kv_put("x", to_bytes(std::string("1"))));
  a.execute(kv_put("y", to_bytes(std::string("2"))));
  Bytes snap = a.snapshot();

  KvStore b;
  b.execute(kv_put("z", to_bytes(std::string("junk"))));
  b.restore(snap);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(to_string(kv_decode_reply(b.execute(kv_get("x"))).value), "1");
  EXPECT_FALSE(kv_decode_reply(b.execute(kv_get("z"))).ok);
}

TEST(KvStore, EmptySnapshot) {
  KvStore a;
  Bytes snap = a.snapshot();
  KvStore b;
  b.execute(kv_put("k", {}));
  b.restore(snap);
  EXPECT_EQ(b.size(), 0u);
}

TEST(KvStore, DeterministicReplay) {
  // Same op sequence on two instances -> same snapshots (RSM property A.14).
  std::vector<Bytes> ops = {kv_put("a", to_bytes(std::string("1"))),
                            kv_put("b", to_bytes(std::string("2"))), kv_del("a"),
                            kv_put("b", to_bytes(std::string("3")))};
  KvStore x, y;
  for (const Bytes& op : ops) {
    Bytes rx = x.execute(op);
    Bytes ry = y.execute(op);
    EXPECT_EQ(rx, ry);
  }
  EXPECT_EQ(x.snapshot(), y.snapshot());
}

TEST(KvStore, CloneEmptyIsEmpty) {
  KvStore kv;
  kv.execute(kv_put("k", {}));
  auto fresh = kv.clone_empty();
  KvReply r = kv_decode_reply(fresh->execute(kv_get("k")));
  EXPECT_FALSE(r.ok);
}

TEST(KvStore, MputAppliesAtomicallyAndBumpsShardSeq) {
  KvStore kv;
  EXPECT_EQ(kv.shard_seq(), 0u);
  KvMputReply r = kv_decode_mput_reply(kv.execute(
      kv_mput({{"a", to_bytes(std::string("1"))}, {"b", to_bytes(std::string("2"))}})));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shard_seq, 1u);  // one ordered mutation, regardless of key count
  EXPECT_EQ(kv.shard_seq(), 1u);
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(to_string(kv_decode_reply(kv.execute(kv_get("b"))).value), "2");
}

TEST(KvStore, MputRejectedWhenReadonly) {
  KvStore kv;
  Bytes op = kv_mput({{"a", to_bytes(std::string("1"))}});
  EXPECT_FALSE(kv_decode_reply(kv.execute_readonly(op)).ok);
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.shard_seq(), 0u);
}

TEST(KvStore, MgetReturnsEntriesInRequestOrderWithShardSeq) {
  KvStore kv;
  kv.execute(kv_put("x", to_bytes(std::string("1"))));
  kv.execute(kv_put("y", to_bytes(std::string("2"))));
  KvMgetReply r = kv_decode_mget_reply(kv.execute(kv_mget({"y", "missing", "x"})));
  EXPECT_EQ(r.shard_seq, 2u);  // two puts applied before the ordered read
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_TRUE(r.entries[0].ok);
  EXPECT_EQ(to_string(r.entries[0].value), "2");
  EXPECT_FALSE(r.entries[1].ok);
  EXPECT_TRUE(r.entries[2].ok);
  EXPECT_EQ(to_string(r.entries[2].value), "1");
}

TEST(KvStore, WeakMgetOmitsShardSeqButKeepsValues) {
  // The weak fast path must produce replies that do not depend on the
  // shard-wide mutation count: replicas answering at different commit
  // positions would otherwise never match while unrelated keys churn.
  KvStore kv;
  kv.execute(kv_put("x", to_bytes(std::string("1"))));
  KvMgetReply r = kv_decode_mget_reply(kv.execute_weak(kv_mget({"x"})));
  EXPECT_EQ(r.shard_seq, 0u);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_TRUE(r.entries[0].ok);
  EXPECT_EQ(to_string(r.entries[0].value), "1");

  Bytes before = kv.execute_weak(kv_mget({"x"}));
  kv.execute(kv_put("unrelated", to_bytes(std::string("z"))));
  // Reply bytes for {"x"} are unchanged by the unrelated write, while the
  // ordered read does observe the new mutation count.
  EXPECT_EQ(kv.execute_weak(kv_mget({"x"})), before);
  EXPECT_EQ(kv_decode_mget_reply(kv.execute_readonly(kv_mget({"x"}))).shard_seq, 2u);
}

TEST(KvStore, ShardSeqSurvivesSnapshotRestore) {
  KvStore a;
  a.execute(kv_put("k", to_bytes(std::string("v"))));
  a.execute(kv_del("k"));
  EXPECT_EQ(a.shard_seq(), 2u);
  KvStore b;
  b.restore(a.snapshot());
  // Replicas adopting a checkpoint must agree on the mutation count too,
  // or read-your-writes checks would diverge after state transfer.
  EXPECT_EQ(b.shard_seq(), 2u);
}

TEST(KvStore, ParseOpRoundTrips) {
  KvParsedOp put = kv_parse_op(kv_put("k", to_bytes(std::string("v"))));
  EXPECT_EQ(put.kind, KvOp::Put);
  ASSERT_EQ(put.keys.size(), 1u);
  EXPECT_EQ(put.keys[0], "k");
  EXPECT_EQ(to_string(put.values[0]), "v");

  KvParsedOp get = kv_parse_op(kv_get("g"));
  EXPECT_EQ(get.kind, KvOp::Get);
  EXPECT_EQ(get.keys[0], "g");

  KvParsedOp size = kv_parse_op(kv_size());
  EXPECT_EQ(size.kind, KvOp::Size);
  EXPECT_TRUE(size.keys.empty());

  KvParsedOp mget = kv_parse_op(kv_mget({"a", "b"}));
  EXPECT_EQ(mget.kind, KvOp::MGet);
  EXPECT_EQ(mget.keys, (std::vector<std::string>{"a", "b"}));

  KvParsedOp mput = kv_parse_op(kv_mput({{"a", to_bytes(std::string("1"))}}));
  EXPECT_EQ(mput.kind, KvOp::MPut);
  EXPECT_EQ(mput.keys[0], "a");
  EXPECT_EQ(to_string(mput.values[0]), "1");

  EXPECT_THROW(kv_parse_op(Bytes{0x77}), SerdeError);
}

TEST(KvStore, MalformedOpThrows) {
  KvStore kv;
  Bytes garbage = {0x99};
  EXPECT_THROW(kv.execute(garbage), SerdeError);
}

TEST(KvStore, BinaryValues) {
  KvStore kv;
  Bytes blob(300);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::uint8_t>(i);
  kv.execute(kv_put("bin", blob));
  EXPECT_EQ(kv_decode_reply(kv.execute(kv_get("bin"))).value, blob);
}

// ---- decode before mutating ------------------------------------------------

Bytes truncated(Bytes b, std::size_t cut) {
  b.resize(b.size() - cut);
  return b;
}

TEST(KvStore, RejectedOpsLeaveSnapshotAndShardSeqUnchanged) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v"))));
  const Bytes before = kv.snapshot();
  const std::vector<Bytes> bad = {
      Bytes{0x07},                                               // unknown opcode
      Bytes{},                                                   // empty
      truncated(kv_put("x", to_bytes(std::string("value"))), 2),  // value cut short
      truncated(kv_del("k"), 5),                                 // key cut short
      truncated(kv_mget({"k", "x"}), 1),
      // The first pair decodes, the second is cut short: no half-applied MPut.
      truncated(kv_mput({{"a", to_bytes(std::string("1"))}, {"b", to_bytes(std::string("2"))}}),
                1),
  };
  for (const Bytes& op : bad) {
    EXPECT_THROW(kv.execute(op), SerdeError);
    EXPECT_EQ(kv.snapshot(), before);
    EXPECT_EQ(kv.shard_seq(), 1u);
  }
}

TEST(KvStore, TruncatedAbsorbLeavesStateUnchanged) {
  KvStore src;
  src.execute(kv_put("a", to_bytes(std::string("1"))));
  src.execute(kv_put("b", to_bytes(std::string("2"))));
  Bytes moved = src.extract_keys([](std::string_view) { return true; });

  KvStore dst;
  dst.execute(kv_put("z", to_bytes(std::string("9"))));
  const Bytes before = dst.snapshot();
  EXPECT_THROW(dst.absorb_keys(truncated(moved, 1)), SerdeError);
  EXPECT_EQ(dst.snapshot(), before);
  EXPECT_EQ(dst.shard_seq(), 1u);

  dst.absorb_keys(moved);
  EXPECT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.shard_seq(), 2u);
}

TEST(KvStore, TruncatedSnapshotRestoreThrowsAndKeepsState) {
  KvStore a;
  a.execute(kv_put("x", to_bytes(std::string("1"))));
  a.execute(kv_put("y", to_bytes(std::string("2"))));
  const Bytes snap = a.snapshot();

  KvStore b;
  b.execute(kv_put("z", to_bytes(std::string("junk"))));
  const Bytes before = b.snapshot();
  for (std::size_t cut = 1; cut < snap.size(); ++cut) {
    EXPECT_THROW(b.restore(truncated(snap, cut)), SerdeError) << cut;
    EXPECT_EQ(b.snapshot(), before) << cut;
  }
  Bytes trailing = snap;
  trailing.push_back(0);
  EXPECT_THROW(b.restore(trailing), SerdeError);
  EXPECT_EQ(b.snapshot(), before);
}

Bytes encode_snapshot(std::uint64_t version,
                      const std::vector<std::pair<std::string, std::string>>& entries) {
  Writer w;
  w.u64(version);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [k, v] : entries) {
    w.str(k);
    w.bytes(to_bytes(v));
  }
  return std::move(w).take();
}

TEST(KvStore, RestoreOfUnorderedSnapshotSortsAndLaterDuplicateWins) {
  KvStore kv;
  kv.restore(encode_snapshot(7, {{"b", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}}));
  EXPECT_EQ(kv.size(), 3u);
  EXPECT_EQ(kv.shard_seq(), 7u);
  EXPECT_EQ(to_string(kv_decode_reply(kv.execute(kv_get("b"))).value), "3");
  EXPECT_EQ(kv.snapshot(), encode_snapshot(7, {{"a", "2"}, {"b", "3"}, {"c", "4"}}));
}

// ---- equivalence with the ordered-map encoding -----------------------------

// The store as it was before the paged layout: a std::map, encoded on
// demand. The paged store must match it byte for byte in every reply,
// snapshot and extracted range, since replicas vote on those bytes.
class ReferenceKv {
 public:
  Bytes execute(BytesView op, bool mutate, bool weak) {
    Reader r(op);
    auto kind = static_cast<KvOp>(r.u8());
    switch (kind) {
      case KvOp::Put: {
        std::string key = r.str();
        Bytes value = r.bytes();
        if (!mutate) return reply(false, {});
        data_[key] = value;
        ++version_;
        return reply(true, {});
      }
      case KvOp::Get: {
        auto it = data_.find(r.str());
        return it == data_.end() ? reply(false, {}) : reply(true, it->second);
      }
      case KvOp::Del: {
        std::string key = r.str();
        if (!mutate) return reply(false, {});
        bool existed = data_.erase(key) > 0;
        ++version_;
        return reply(existed, {});
      }
      case KvOp::Size: {
        Writer w;
        w.u64(data_.size());
        return reply(true, w.data());
      }
      case KvOp::MGet: {
        std::uint32_t n = r.u32();
        Writer w;
        w.u64(weak ? 0 : version_);
        w.u32(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          auto it = data_.find(r.str());
          w.u8(it != data_.end() ? 1 : 0);
          w.bytes(it != data_.end() ? BytesView(it->second) : BytesView{});
        }
        return reply(true, w.data());
      }
      case KvOp::MPut: {
        std::uint32_t n = r.u32();
        if (!mutate) return reply(false, {});
        for (std::uint32_t i = 0; i < n; ++i) {
          std::string key = r.str();
          data_[key] = r.bytes();
        }
        ++version_;
        Writer w;
        w.u64(version_);
        return reply(true, w.data());
      }
    }
    throw SerdeError("unknown KV opcode");
  }

  Bytes snapshot() const {
    Writer w;
    w.u64(version_);
    w.u32(static_cast<std::uint32_t>(data_.size()));
    for (const auto& [key, value] : data_) {
      w.str(key);
      w.bytes(value);
    }
    return std::move(w).take();
  }

  Bytes extract_keys(const std::function<bool(std::string_view)>& moved) {
    Writer w;
    std::uint32_t n = 0;
    for (const auto& [key, value] : data_) n += moved(key) ? 1 : 0;
    w.u32(n);
    for (auto it = data_.begin(); it != data_.end();) {
      if (moved(it->first)) {
        w.str(it->first);
        w.bytes(it->second);
        it = data_.erase(it);
      } else {
        ++it;
      }
    }
    ++version_;
    return std::move(w).take();
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }

 private:
  static Bytes reply(bool ok, BytesView value) {
    Writer w;
    w.u8(ok ? 1 : 0);
    w.bytes(value);
    return std::move(w).take();
  }

  std::map<std::string, Bytes> data_;
  std::uint64_t version_ = 0;
};

// Keys include the empty key and bytes >= 0x80, which must sort as
// unsigned like std::string does, and some sort before every other key.
std::vector<std::string> key_pool(std::size_t n) {
  std::vector<std::string> keys = {"", std::string(1, '\0'), "\x01", "\xff", "\x80z"};
  for (std::size_t i = 0; keys.size() < n; ++i) {
    std::string k = "k" + std::to_string(i * 7919 % 100000);
    if (i % 5 == 0) k.push_back(static_cast<char>(0x80 + i % 100));
    keys.push_back(std::move(k));
  }
  return keys;
}

Bytes random_value(std::mt19937_64& rng) {
  std::size_t len = 0;
  switch (rng() % 8) {
    case 0: len = 0; break;                   // empty value
    case 1: len = 5000 + rng() % 3000; break;  // larger than a page
    default: len = 1 + rng() % 400; break;
  }
  Bytes v(len);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

void expect_same_state(const KvStore& kv, const ReferenceKv& ref, int step) {
  ASSERT_EQ(kv.snapshot(), ref.snapshot()) << "step " << step;
  ASSERT_EQ(kv.size(), ref.size()) << "step " << step;
}

void run_equivalence(std::uint64_t seed, std::size_t key_count, int steps) {
  std::mt19937_64 rng(seed);
  const std::vector<std::string> keys = key_pool(key_count);
  auto key = [&] { return keys[rng() % keys.size()]; };
  KvStore kv;
  ReferenceKv ref;

  for (int step = 0; step < steps; ++step) {
    Bytes op;
    const std::uint64_t pick = rng() % 100;
    if (pick < 45) {
      op = kv_put(key(), random_value(rng));
    } else if (pick < 60) {
      op = kv_del(key());
    } else if (pick < 70) {
      std::vector<std::pair<std::string, Bytes>> pairs;
      const std::size_t n = rng() % 6;  // 0..5 pairs, duplicates possible
      for (std::size_t i = 0; i < n; ++i) pairs.emplace_back(key(), random_value(rng));
      op = kv_mput(pairs);
    } else if (pick < 85) {
      op = kv_get(key());
    } else if (pick < 95) {
      std::vector<std::string> ks;
      for (std::size_t i = rng() % 5; i > 0; --i) ks.push_back(key());
      op = kv_mget(ks);
    } else {
      op = kv_size();
    }
    const std::uint64_t mode = rng() % 10;
    if (mode == 0) {
      ASSERT_EQ(kv.execute_readonly(op), ref.execute(op, false, false)) << "step " << step;
    } else if (mode == 1) {
      ASSERT_EQ(kv.execute_weak(op), ref.execute(op, false, true)) << "step " << step;
    } else {
      ASSERT_EQ(kv.execute(op), ref.execute(op, true, false)) << "step " << step;
    }

    if (step % 97 == 0) expect_same_state(kv, ref, step);
    if (step % 499 == 0) {
      // Round trip: a restored store carries on with full pages.
      KvStore restored;
      restored.restore(kv.snapshot());
      ASSERT_EQ(restored.snapshot(), kv.snapshot()) << "step " << step;
      kv = std::move(restored);
    }
    if (step % 733 == 0) {
      const std::uint64_t salt = rng();
      auto moved = [salt](std::string_view k) {
        return (std::hash<std::string_view>{}(k) ^ salt) % 3 == 0;
      };
      Bytes out = kv.extract_keys(moved);
      ASSERT_EQ(out, ref.extract_keys(moved)) << "step " << step;
      // Put the range back through absorb_keys on both sides.
      kv.absorb_keys(out);
      Reader r(out);
      std::vector<std::pair<std::string, Bytes>> pairs;
      for (std::uint32_t n = r.u32(); n > 0; --n) {
        std::string k = r.str();
        pairs.emplace_back(std::move(k), r.bytes());
      }
      ref.execute(kv_mput(pairs), true, false);
      expect_same_state(kv, ref, step);
    }
  }
  expect_same_state(kv, ref, steps);

  // Drain every key: pages empty out and are dropped, then refill.
  for (const std::string& k : keys) {
    ASSERT_EQ(kv.execute(kv_del(k)), ref.execute(kv_del(k), true, false));
  }
  expect_same_state(kv, ref, steps);
  EXPECT_EQ(kv.size(), 0u);
  for (const std::string& k : keys) {
    Bytes op = kv_put(k, random_value(rng));
    ASSERT_EQ(kv.execute(op), ref.execute(op, true, false));
  }
  expect_same_state(kv, ref, steps);
}

TEST(KvStoreEquivalence, MatchesOrderedMapEncodingSmallKeyspace) {
  // Few keys, many overwrites: value-length changes within a page.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) run_equivalence(seed, 40, 3000);
}

TEST(KvStoreEquivalence, MatchesOrderedMapEncodingWithSplitsAndRemovals) {
  // Hundreds of keys with values up to a few KiB span dozens of pages.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) run_equivalence(seed, 600, 6000);
}

TEST(KvStoreEquivalence, MatchesOrderedMapEncodingOnBenchmarkShapedWrites) {
  // Fixed 160-byte values over a few thousand keys: the checkpointed shape,
  // where overwrites patch values in place.
  std::mt19937_64 rng(5);
  KvStore kv;
  ReferenceKv ref;
  for (int i = 0; i < 20000; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "k%06d", static_cast<int>(rng() % 4096));
    Bytes value(160, static_cast<std::uint8_t>(i));
    Bytes op = i % 10 == 9 ? kv_get(key) : kv_put(key, value);
    ASSERT_EQ(kv.execute(op), ref.execute(op, true, false)) << i;
  }
  expect_same_state(kv, ref, 20000);
}

}  // namespace
}  // namespace spider
