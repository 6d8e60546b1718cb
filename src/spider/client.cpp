#include "spider/client.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

namespace {
/// Returns the result that at least `quorum` replicas agree on, if any.
const Bytes* matching_quorum(const std::map<NodeId, Bytes>& replies, std::uint32_t quorum) {
  for (const auto& [node, result] : replies) {
    std::uint32_t count = 0;
    for (const auto& [node2, result2] : replies) {
      if (result2 == result) ++count;
    }
    if (count >= quorum) return &result;
  }
  return nullptr;
}
}  // namespace

SpiderClient::SpiderClient(World& world, Site site, ClientGroupInfo group, Duration retry)
    : ComponentHost(world, world.allocate_id(), site),
      group_(std::move(group)),
      retry_(retry),
      rng_(world.rng().fork()),
      retransmits_(world.metrics().counter("client_retransmits",
                                           {.node = id(), .role = "client"})),
      ordered_(true, world.metrics().histogram("client_latency_ordered",
                                               {.node = id(), .role = "client"})),
      direct_(false, world.metrics().histogram("client_latency_direct",
                                               {.node = id(), .role = "client"})) {}

SpiderClient::Lane& SpiderClient::lane_for(OpKind kind) {
  const bool direct = kind == OpKind::WeakRead ||
                      (kind == OpKind::StrongRead && group_.direct_strong_quorum != 0);
  return direct ? direct_ : ordered_;
}

void SpiderClient::submit(Op op) {
  Lane& lane = lane_for(op.kind);
  lane.queue.push_back(std::move(op));
  start(lane);
}

void SpiderClient::switch_group(ClientGroupInfo group) {
  group_ = std::move(group);
  for (Lane* lane : {&ordered_, &direct_}) {
    if (!lane->busy) continue;
    lane->replies.clear();
    transmit(*lane);
  }
}

void SpiderClient::start(Lane& lane) {
  // A callback that submits on its own lane has already started the next
  // op; starting again would send (and, on the ordered lane, execute) it
  // twice.
  if (lane.busy || lane.queue.empty()) return;
  lane.busy = true;
  ++lane.counter;
  lane.attempts = 0;
  const Op& cur = lane.queue.front();

  // The direct frame carries no signature: weak reads are MAC-only.
  ClientRequest req{cur.kind, id(), lane.counter, cur.op};
  Bytes sig = lane.ordered ? sign_statement(tags::kClient, req.encode()) : Bytes{};
  lane.wire = ClientFrame{std::move(req), std::move(sig)}.encode();
  lane.replies.clear();
  lane.start = now();
  lane.retry_cur = retry_;
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncBegin, now(), id(),
             obs::request_id(id(), lane.counter, /*weak=*/!lane.ordered), "request",
             lane.ordered ? "ordered" : "direct", "kind",
             static_cast<std::uint64_t>(cur.kind));
  }
  transmit(lane);
  arm_retry(lane);
}

Duration SpiderClient::retry_jitter(Duration base) {
  // Deterministic per-client jitter (up to base/4) from a stream forked off
  // the sim RNG: many clients whose requests got dropped together spread
  // their retransmits out instead of staying phase-locked in a retry storm.
  return static_cast<Duration>(rng_.uniform(static_cast<std::uint64_t>(base / 4) + 1));
}

void SpiderClient::arm_retry(Lane& lane) {
  // Keep resending the in-flight request until enough matching replies
  // arrive (paper Fig. 15, L. 11-13). The interval backs off exponentially —
  // but capped at kRetryBackoffCap x the base interval, so a recovering
  // system is reprobed within bounded time — and jittered, so a
  // batched/saturated system is not hammered with synchronized duplicates
  // that would only be answered from the reply cache.
  lane.timer = set_timer(lane.retry_cur + retry_jitter(lane.retry_cur), [this, &lane] {
    lane.timer = EventQueue::kInvalidEvent;
    if (!lane.ordered && lane.queue.front().kind == OpKind::StrongRead &&
        ++lane.attempts >= kDirectReadFallbackRetries) {
      // Read-only optimization fallback (Castro-Liskov): the direct
      // replies will never agree — re-submit as a regular ordered
      // request. Deliberately OpKind::Write, not StrongRead: replicas in
      // direct-read mode answer StrongRead from local state without
      // ordering (that is the loop being broken here), and only the
      // regular-request kind forces the op through consensus. The op
      // itself is read-only, so ordering it mutates nothing and answers
      // from the committed state at its sequence position. An open op
      // keeps its original sojourn stamp.
      Op op = take_head(lane);
      if (auto* t = tracer()) {
        t->async(obs::Ph::kAsyncEnd, now(), id(),
                 obs::request_id(id(), lane.counter, /*weak=*/true), "request", "direct",
                 "fallback", 1);
      }
      op.kind = OpKind::Write;
      submit(std::move(op));
      start(lane);
      return;
    }
    retransmits_.inc();
    if (auto* t = tracer()) {
      t->async(obs::Ph::kAsyncInstant, now(), id(),
               obs::request_id(id(), lane.counter, /*weak=*/!lane.ordered), "request",
               "retransmit");
    }
    transmit(lane);
    lane.retry_cur = std::min<Duration>(lane.retry_cur * 2, kRetryBackoffCap * retry_);
    arm_retry(lane);
  });
}

void SpiderClient::transmit(const Lane& lane) {
  // MAC-framed fan-out to the whole group. Ordered requests ride the
  // reliable control channel; direct ones are retried and idempotent, so
  // they ride the unordered datagram channel on the socket backend.
  const TrafficClass cls = lane.ordered ? TrafficClass::kOrdered : TrafficClass::kUnordered;
  for (NodeId replica : group_.members) {
    send_to(replica, seal_mac(tags::kClient, replica, lane.wire), cls);
  }
}

SpiderClient::Op SpiderClient::take_head(Lane& lane) {
  Op op = std::move(lane.queue.front());
  lane.queue.pop_front();
  lane.busy = false;
  if (lane.timer != EventQueue::kInvalidEvent) {
    cancel_timer(lane.timer);
    lane.timer = EventQueue::kInvalidEvent;
  }
  return op;
}

std::vector<SpiderClient::Op> SpiderClient::cancel_pending() {
  std::vector<Op> out;
  for (Lane* lane : {&ordered_, &direct_}) {
    while (!lane->queue.empty()) out.push_back(take_head(*lane));
  }
  return out;
}

void SpiderClient::on_message(NodeId from, BytesView data) {
  try {
    Reader r(data);
    if (r.u32() != tags::kClient) return;
    handle_reply(from, r);
  } catch (const SerdeError&) {
    // malformed reply: drop
  }
}

void SpiderClient::handle_reply(NodeId from, Reader& r) {
  // Replies only count from members of the current group.
  if (std::find(group_.members.begin(), group_.members.end(), from) == group_.members.end()) return;

  std::optional<BytesView> body = open(from, tags::kClient, r.raw(r.remaining()),
                                      /*is_sig=*/false);
  if (!body) return;

  Reader br(*body);
  ReplyMsg reply = ReplyMsg::decode(br);

  Lane& lane = reply.weak ? direct_ : ordered_;
  if (!lane.busy || reply.counter != lane.counter) return;
  lane.replies[from] = reply.result;
  const std::uint32_t quorum =
      !lane.ordered && lane.queue.front().kind == OpKind::StrongRead
          ? group_.direct_strong_quorum
          : group_.fe + 1;
  const Bytes* result = matching_quorum(lane.replies, quorum);
  if (result == nullptr) return;

  Bytes out = *result;
  Op op = take_head(lane);
  Duration latency = now() - lane.start;
  lane.latency.add(static_cast<std::uint64_t>(latency));
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncEnd, now(), id(),
             obs::request_id(id(), lane.counter, /*weak=*/!lane.ordered), "request",
             lane.ordered ? "ordered" : "direct");
  }
  op.cb(std::move(out), op.open ? now() - op.enqueued : latency);
  start(lane);
}

}  // namespace spider
