// Spider client (paper Fig. 15).
//
// Every request goes to all replicas of the client's execution group, is
// retransmitted with capped, jittered backoff until enough replies match,
// and is then accepted. One request lane implements that loop, and the
// client holds two instances of it, each one-outstanding-at-a-time:
//   - the ordered lane: writes, reconfigurations and (in Spider) strong
//     reads are signed, ride the reliable control channel and are accepted
//     on fe+1 matching replies;
//   - the direct lane: weak reads (and, in flat BFT, optimized strong
//     reads) carry only the per-destination MAC, ride the unordered datagram
//     channel and are answered from the replicas' local state. A direct
//     strong read that cannot assemble its quorum falls back to the ordered
//     lane (Castro-Liskov read-only optimization).
#pragma once

#include <deque>
#include <map>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "spider/messages.hpp"

namespace spider {

struct ClientGroupInfo {
  GroupId group = 0;
  std::vector<NodeId> members;  // 2fe+1 execution replicas
  std::uint32_t fe = 1;
  /// Flat-BFT optimized reads (paper §5, Fig. 8a): when nonzero, strongly
  /// consistent reads query replicas directly and require this many
  /// matching replies instead of passing through the ordering protocol.
  /// 0 => strong reads are ordered.
  std::uint32_t direct_strong_quorum = 0;
};

class SpiderClient : public ComponentHost {
 public:
  /// cb(result bytes, response time).
  using OpCallback = std::function<void(Bytes result, Duration latency)>;

  /// One submitted operation. The callback reports *service* latency (reply
  /// time minus the op's last transmission start) unless `open` is set.
  struct Op {
    OpKind kind = OpKind::Write;
    Bytes op;
    OpCallback cb;
    /// fire(): report *sojourn* latency, completion minus `enqueued`.
    bool open = false;
    Time enqueued = 0;
  };

  /// Retransmit backoff ceiling: the interval doubles per retry but never
  /// exceeds kRetryBackoffCap x the base retry interval.
  static constexpr Duration kRetryBackoffCap = 8;

  /// Direct (optimized) strong reads that fail to assemble
  /// `direct_strong_quorum` matching replies within this many
  /// retransmissions fall back to the ordering protocol, as in
  /// Castro-Liskov's read-only optimization: too many replicas hold
  /// divergent state (stale after a partition, restarted from an old
  /// checkpoint, Byzantine) for direct replies to ever agree, and only an
  /// ordered execution answers consistently — it also generates the
  /// consensus traffic stale replicas need to notice they trail.
  static constexpr std::uint64_t kDirectReadFallbackRetries = 4;

  SpiderClient(World& world, Site site, ClientGroupInfo group,
               Duration retry = 2 * kSecond);

  /// Queues `op` on the lane its kind routes to: weak reads, and strong
  /// reads under a nonzero direct_strong_quorum, take the direct lane;
  /// everything else the ordered lane. Also re-submits an op returned by
  /// cancel_pending(), with its kind and sojourn stamp intact.
  void submit(Op op);

  void write(Bytes op, OpCallback cb) {
    submit({.kind = OpKind::Write, .op = std::move(op), .cb = std::move(cb)});
  }
  void strong_read(Bytes op, OpCallback cb) {
    submit({.kind = OpKind::StrongRead, .op = std::move(op), .cb = std::move(cb)});
  }
  void weak_read(Bytes op, OpCallback cb) {
    submit({.kind = OpKind::WeakRead, .op = std::move(op), .cb = std::move(cb)});
  }

  /// Fire-and-record submission for open-loop load generation: the op
  /// enters this client's pipeline immediately and the arrival process
  /// never waits for a reply. Unlike write()/weak_read(), whose callbacks
  /// report service latency, the callback here reports sojourn latency —
  /// completion minus this submission, including any time the op queued
  /// behind earlier ops on this client and any direct-read fallback. Under
  /// overload that queueing is exactly the signal a closed-loop harness
  /// hides (coordinated omission), so open-loop drivers must use this path.
  void fire(OpKind kind, Bytes op, OpCallback cb) {
    submit({.kind = kind, .op = std::move(op), .cb = std::move(cb), .open = true,
            .enqueued = now()});
  }

  /// Ops queued or in flight on this client, both lanes (the in-flight op
  /// stays in its queue until completion). Open-loop drivers report the
  /// max depth as a saturation symptom.
  [[nodiscard]] std::size_t queue_depth() const {
    return ordered_.queue.size() + direct_.queue.size();
  }

  /// Submits an admin reconfiguration command through the write path.
  void reconfig(const ReconfigCmd& cmd, OpCallback cb) {
    submit({.kind = OpKind::Reconfig, .op = cmd.encode(), .cb = std::move(cb)});
  }

  /// Switches to a different execution group (e.g. after its region failed
  /// or a closer group appeared). In-flight ops are re-sent there.
  void switch_group(ClientGroupInfo group);

  void on_message(NodeId from, BytesView data) override;

  /// Cancels every queued and in-flight operation on both lanes and returns
  /// them in submission order (ordered lane first) with their callbacks,
  /// which have NOT been invoked. Routers use this to re-route ops that are
  /// retrying against a shard that no longer owns their keys. An in-flight
  /// write may already have committed; re-submitting it is at-least-once,
  /// not exactly-once.
  std::vector<Op> cancel_pending();

  [[nodiscard]] const ClientGroupInfo& group() const { return group_; }
  /// Total retransmissions (both lanes). Thin read of the registry
  /// counter `client_retransmits{node=id(), role="client"}`.
  [[nodiscard]] std::uint64_t retries() const { return retransmits_.value(); }

 private:
  /// One request lane: a FIFO of ops whose head is in flight while `busy`.
  struct Lane {
    Lane(bool ordered, obs::LogHistogram& latency) : ordered(ordered), latency(latency) {}

    const bool ordered;  // signed + kOrdered + fe+1, else the direct lane
    obs::LogHistogram& latency;
    std::deque<Op> queue;
    bool busy = false;
    std::uint64_t counter = 0;  // counter of the current/last request
    Bytes wire;                 // ClientFrame of the in-flight request
    Time start = 0;             // service-latency reference of the in-flight op
    Duration retry_cur = 0;     // current backoff interval
    std::uint64_t attempts = 0;  // direct strong-read attempts (fallback trigger)
    std::map<NodeId, Bytes> replies;  // replica -> result (for `counter`)
    EventQueue::EventId timer = EventQueue::kInvalidEvent;
  };

  Lane& lane_for(OpKind kind);
  void start(Lane& lane);
  Duration retry_jitter(Duration base);
  void arm_retry(Lane& lane);
  void transmit(const Lane& lane);
  /// Pops the head op, marks the lane idle and stops its retransmit timer.
  Op take_head(Lane& lane);
  void handle_reply(NodeId from, Reader& r);

  ClientGroupInfo group_;
  Duration retry_;
  Rng rng_;  // per-client stream for retransmit jitter

  // Registry-backed stats (references stay valid for the World's lifetime).
  obs::Counter& retransmits_;
  Lane ordered_;
  Lane direct_;
};

}  // namespace spider
