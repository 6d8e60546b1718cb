// Cross-shard client router.
//
// Holds one SpiderClient per shard (each attached to the owning shard's
// nearest execution group) plus a copy of the ShardMap. Single-key KV ops
// are parsed and routed to the owning shard; multi-key MGET/MPUT fan out
// one per-shard sub-operation each and merge the replies.
//
// Live resharding: every routed op is tracked until it completes. A
// WrongShard redirect carries the serving replica's (newer) map, which the
// router adopts before re-routing the op; adopting a newer map — from a
// redirect or via adopt_map — also cancels and re-routes every pending op,
// so an op retrying against a shard that lost its key cannot livelock.
// Re-routing re-submits the op under a fresh counter on another subclient:
// if the original was already committed, delivery is at-least-once.
//
// Consistency caveat (documented in the README): ops are atomic *within*
// one shard — a per-shard MPUT is a single ordered command — but a
// cross-shard MGET/MPUT is NOT atomic across shards. Another client can
// observe shard A's part of an MPUT before shard B's part lands. The
// per-key shard sequence numbers returned by MGET make this visible:
// read-your-writes holds per shard (an MGET after an MPUT reports
// shard_seq >= the MPUT's shard_seq on every shard the MPUT touched).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/kvstore.hpp"
#include "shard/shard_map.hpp"
#include "spider/client.hpp"

namespace spider {

class ShardedClient {
 public:
  using OpCallback = SpiderClient::OpCallback;
  /// Like OpCallback, but also reports the shard that served the op
  /// (kNoShard when routing failed), for at-commit-time attribution.
  using RoutedCallback =
      std::function<void(Bytes result, Duration latency, std::uint32_t shard)>;

  /// `subclients[s]` serves shard s; one per map.shard_count().
  ShardedClient(World& world, ShardMap map,
                std::vector<std::unique_ptr<SpiderClient>> subclients);

  // ---- single-shard ops (parsed + routed) --------------------------------
  /// Routes an encoded KV op to the shard owning its key. Multi-key ops are
  /// accepted when every key maps to the same shard; a cross-shard op
  /// throws std::invalid_argument (use mget/mput instead). An op whose keys
  /// are split across shards by a map adopted *mid-flight* does not throw —
  /// it completes with a failure reply (documented migration caveat).
  void write(Bytes op, OpCallback cb);
  void strong_read(Bytes op, OpCallback cb);
  void weak_read(Bytes op, OpCallback cb);

  // Routed variants reporting the serving shard.
  void write_routed(Bytes op, RoutedCallback cb);
  void strong_read_routed(Bytes op, RoutedCallback cb);
  void weak_read_routed(Bytes op, RoutedCallback cb);

  // Convenience wrappers over the routed paths.
  void put(const std::string& key, Bytes value, OpCallback cb) {
    write(kv_put(key, value), std::move(cb));
  }
  void del(const std::string& key, OpCallback cb) { write(kv_del(key), std::move(cb)); }
  void get(const std::string& key, OpCallback cb) { strong_read(kv_get(key), std::move(cb)); }
  void weak_get(const std::string& key, OpCallback cb) {
    weak_read(kv_get(key), std::move(cb));
  }

  // ---- cross-shard ops (fan-out + merge; NOT atomic across shards) -------
  struct MgetEntry {
    std::string key;
    bool ok = false;
    Bytes value;
    std::uint32_t shard = 0;
    std::uint64_t shard_seq = 0;  // owning shard's mutation count at read time
  };
  using MgetCallback = std::function<void(std::vector<MgetEntry>, Duration)>;
  /// One ordered (or weak) MGet per involved shard; entries come back in
  /// request order. Latency is the slowest shard's completion. Weak MGETs
  /// report shard_seq 0 (only ordered reads carry the mutation count, so
  /// weak replies stay quorum-matchable under concurrent writes).
  void mget(const std::vector<std::string>& keys, MgetCallback cb, bool weak = false);

  struct MputResult {
    bool ok = true;                                    // all shards applied
    std::map<std::uint32_t, std::uint64_t> shard_seqs; // shard -> seq after apply
  };
  using MputCallback = std::function<void(MputResult, Duration)>;
  /// One ordered MPut per involved shard (atomic per shard only).
  void mput(const std::vector<std::pair<std::string, Bytes>>& pairs, MputCallback cb);

  /// Aggregated key count: one *ordered* Size read per shard. Size is a
  /// global progress counter, so a weak fan-out could never collect
  /// byte-identical quorum replies while any shard is being written.
  using SizeCallback = std::function<void(std::uint64_t total, Duration)>;
  void size(SizeCallback cb);

  /// Version-gated rebalance visibility: adopts `map` iff it is strictly
  /// newer than the router's current table (same shard count); stale or
  /// equal versions are ignored. Returns whether the table was adopted.
  /// Adoption cancels and re-routes every pending op (including ops parked
  /// in a subclient's retransmit loop), so nothing keeps chasing a shard
  /// that no longer owns its keys.
  bool adopt_map(const ShardMap& map);

  // ---- introspection -----------------------------------------------------
  [[nodiscard]] std::uint32_t route_key(const std::string& key) const {
    return map_.shard_of(key);
  }
  /// Shard an encoded op routes to; throws std::invalid_argument if the op
  /// has no routing key (Size) or its keys span shards.
  [[nodiscard]] std::uint32_t route_op(BytesView op) const;
  [[nodiscard]] std::uint32_t shard_count() const { return map_.shard_count(); }
  SpiderClient& shard_client(std::uint32_t s) { return *subclients_.at(s); }
  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] std::uint64_t retries() const;
  /// WrongShard redirects received (each one re-routes or parks an op).
  [[nodiscard]] std::uint64_t redirects() const { return redirects_; }
  /// Newer maps installed (via adopt_map or redirect).
  [[nodiscard]] std::uint64_t maps_adopted() const { return maps_adopted_; }
  /// Ops cancelled-and-re-routed by map adoptions.
  [[nodiscard]] std::uint64_t reroutes() const { return reroutes_; }
  /// Router-tracked ops not yet completed.
  [[nodiscard]] std::size_t pending_ops() const { return active_.size(); }

 private:
  /// One router-tracked op: survives redirects and map adoptions until its
  /// final reply (or routing failure) fires `done`.
  struct Inflight {
    OpKind kind = OpKind::Write;
    Bytes op;
    Time start = 0;
    std::uint32_t shard = kNoShard;  // subclient currently carrying the op
    bool parked = false;             // waiting out a stale redirect
    std::function<void(Bytes reply, std::uint32_t shard)> done;
    std::function<void()> reissue;   // re-route under the current map
  };

  /// The callback handed to subclients. A named type (not a lambda) so
  /// reroute_pending can recognize router-tracked ops among cancelled ones
  /// via std::function::target and recover their record ids.
  struct RecordCompletion {
    ShardedClient* self;
    std::uint64_t id;
    void operator()(Bytes reply, Duration latency) const;
  };

  struct MgetJob;
  struct MputJob;

  std::uint64_t submit_routed(OpKind kind, std::uint32_t shard, Bytes op,
                              RoutedCallback cb);
  void issue_to(std::uint64_t id, std::uint32_t shard);
  void reissue_single(std::uint64_t id);
  void on_sub_reply(std::uint64_t id, Bytes reply);
  void park(std::uint64_t id);
  void reroute_pending();
  std::size_t issue_mget_parts(const std::shared_ptr<MgetJob>& job,
                               const std::vector<std::size_t>& idxs);
  std::size_t issue_mput_parts(const std::shared_ptr<MputJob>& job,
                               const std::vector<std::size_t>& idxs);

  /// Splits `keys` into per-shard key lists, remembering original indices.
  std::map<std::uint32_t, std::vector<std::size_t>> group_by_shard(
      const std::vector<std::string>& keys) const;

  World& world_;
  ShardMap map_;
  std::vector<std::unique_ptr<SpiderClient>> subclients_;
  std::map<std::uint64_t, std::shared_ptr<Inflight>> active_;
  std::uint64_t next_id_ = 1;
  std::uint64_t redirects_ = 0;
  std::uint64_t maps_adopted_ = 0;
  std::uint64_t reroutes_ = 0;
};

}  // namespace spider
