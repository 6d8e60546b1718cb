// Deterministic key-value store — the application used throughout the
// paper's evaluation (clients issue 200-byte writes/reads against a KV
// store). Multi-key operations (MGet/MPut) act atomically *within* one
// store instance; the sharded router fans them out per shard, so across
// shards they are not atomic.
//
// Storage layout: every entry is kept encoded exactly as snapshot() writes
// it ([u32 key length][key][u32 value length][value]), in key order, in
// contiguous pages of about kPageBytes. A checkpoint snapshot is then the
// 12-byte header plus one sequential copy per page instead of a walk over
// thousands of scattered tree nodes, and reads return views into a page.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/application.hpp"

namespace spider {

/// Operations understood by the KV store.
enum class KvOp : std::uint8_t { Put = 1, Get = 2, Del = 3, Size = 4, MGet = 5, MPut = 6 };

/// Builds encoded KV operations (client-side helpers).
Bytes kv_put(const std::string& key, BytesView value);
Bytes kv_get(const std::string& key);
Bytes kv_del(const std::string& key);
Bytes kv_size();
Bytes kv_mget(const std::vector<std::string>& keys);
Bytes kv_mput(const std::vector<std::pair<std::string, Bytes>>& pairs);

/// Decoded view of an encoded KV operation: the opcode plus every key (and,
/// for Put/MPut, the parallel value list). Shared between the store itself
/// and the cross-shard router, which must know the keys to pick a shard.
/// Routing-only callers pass with_values = false to skip copying payloads.
struct KvParsedOp {
  KvOp kind = KvOp::Get;
  std::vector<std::string> keys;  // empty for Size
  std::vector<Bytes> values;      // parallel to keys for Put/MPut
};
KvParsedOp kv_parse_op(BytesView op, bool with_values = true);

/// Reply decoding: status byte (1 = found/ok, 0 = missing) + value bytes.
struct KvReply {
  bool ok = false;
  Bytes value;
};
KvReply kv_decode_reply(BytesView reply);

/// MPut reply: success flag + the shard sequence number (count of mutating
/// ops this store has applied) right after the MPut took effect.
struct KvMputReply {
  bool ok = false;
  std::uint64_t shard_seq = 0;
};
KvMputReply kv_decode_mput_reply(BytesView reply);

/// MGet reply: the shard sequence number observed by the read plus one
/// (ok, value) entry per requested key, in request order. Only ordered
/// (strong) MGets carry a real shard_seq; the weak fast path reports 0,
/// so its replies stay quorum-matchable under concurrent writes.
struct KvMgetReply {
  std::uint64_t shard_seq = 0;
  std::vector<KvReply> entries;
};
KvMgetReply kv_decode_mget_reply(BytesView reply);

class KvStore : public Application {
 public:
  Bytes execute(BytesView op) override;
  Bytes execute_readonly(BytesView op) const override;
  Bytes execute_weak(BytesView op) const override;
  Bytes snapshot() const override;
  void restore(BytesView snapshot) override;
  std::unique_ptr<Application> clone_empty() const override;
  std::vector<std::string> op_keys(BytesView op) const override;
  Bytes extract_keys(const std::function<bool(std::string_view)>& moved) override;
  void absorb_keys(BytesView state) override;

  [[nodiscard]] std::size_t size() const { return count_; }
  /// Shard sequence number: mutating ops applied so far. Identical across
  /// replicas of one shard (writes execute at every group), which is what
  /// lets clients check read-your-writes per shard.
  [[nodiscard]] std::uint64_t shard_seq() const { return version_; }

 private:
  enum class Mode { Mutate, OrderedRead, WeakRead };
  /// Where a key's entry starts in pages_ (found), or where it would be
  /// inserted (not found).
  struct Slot {
    std::size_t page = 0;
    std::size_t off = 0;
    bool found = false;
  };

  // A run of encoded entries in key order. `first` repeats the first
  // entry's key, so the page search reads only this index, not the pages.
  struct Page {
    std::string first;
    Bytes data;
  };

  /// Appends an encoded entry that sorts after every entry in `pages`.
  static void append_sorted(std::vector<Page>& pages, std::string_view key, BytesView entry);

  Bytes apply(BytesView op, Mode mode);
  [[nodiscard]] Slot locate(std::string_view key) const;
  /// View of the stored value, valid until the next mutation.
  [[nodiscard]] std::optional<BytesView> find(std::string_view key) const;
  void put(std::string_view key, BytesView value);
  bool erase(std::string_view key);
  void split(std::size_t page);

  // Encoded entries in key order. No page is empty; a page exceeds
  // kPageBytes only when it holds a single larger entry.
  std::vector<Page> pages_;
  std::size_t count_ = 0;  // entries across all pages
  std::size_t bytes_ = 0;  // encoded size of all entries
  std::uint64_t version_ = 0;
};

}  // namespace spider
