#include "irmc/rc.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

using irmc::MsgType;

namespace {
/// The entry std::map::operator[] would hand out: created at 0.
Position& touch(std::optional<Position>& v) {
  if (!v) v = 0;
  return *v;
}

/// k+1-highest of the per-peer window requests, absent ones reading 1.
/// `buf` is reused across calls.
Position kth_highest(const std::vector<std::optional<Position>>& req, std::size_t k,
                     std::vector<Position>& buf) {
  buf.clear();
  for (const auto& r : req) buf.push_back(r.value_or(1));
  auto nth = buf.begin() + static_cast<std::ptrdiff_t>(std::min(k, buf.size() - 1));
  std::nth_element(buf.begin(), nth, buf.end(), std::greater<>());
  return *nth;
}

/// The record for `sc`, created on first use; `order` keeps every record
/// by ascending subchannel for the timer loops.
template <typename Sub>
Sub& add_sub(std::unordered_map<Subchannel, Sub>& subs,
             std::vector<std::pair<Subchannel, Sub*>>& order, Subchannel sc) {
  auto [it, added] = subs.try_emplace(sc);
  if (added) {
    auto at = std::upper_bound(order.begin(), order.end(), sc,
                               [](Subchannel k, const auto& e) { return k < e.first; });
    order.insert(at, {sc, &it->second});
  }
  return it->second;
}

/// First pending entry at or above position `p`.
template <typename Waiters>
auto waiters_at(std::vector<Waiters>& pending, Position p) {
  return std::lower_bound(pending.begin(), pending.end(), p,
                          [](const Waiters& w, Position k) { return w.p < k; });
}

template <typename Sub>
const Sub* find_sub(const std::unordered_map<Subchannel, Sub>& subs, Subchannel sc) {
  auto it = subs.find(sc);
  return it == subs.end() ? nullptr : &it->second;
}

/// Window start of `sc`; one nobody set reads 1.
template <typename Sub>
Position window_of(const std::unordered_map<Subchannel, Sub>& subs, Subchannel sc) {
  const Sub* s = find_sub(subs, sc);
  return s ? s->win.value_or(1) : 1;
}
}  // namespace

// ------------------------------------------------------------------ sender

RcSender::RcSender(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag), cfg_(std::move(cfg)) {
  if (cfg_.announce_window) {
    announce_timer_ = set_timer(cfg_.window_announce_interval, [this] { on_announce_timer(); });
  }
}

RcSender::~RcSender() {
  if (announce_timer_ != EventQueue::kInvalidEvent) cancel_timer(announce_timer_);
}

void RcSender::send_move(Subchannel sc, Position p) {
  irmc::MoveMsg mv{sc, p};
  Bytes body = mv.encode();
  for (NodeId r : cfg_.receivers) send_wire(r, seal_mac(r, body));
}

void RcSender::on_announce_timer() {
  announce_timer_ = set_timer(cfg_.window_announce_interval, [this] { on_announce_timer(); });
  for (const auto& [sc, s] : order_) {
    if (s->own_move) send_move(sc, *s->own_move);
  }
}

RcSender::Sub& RcSender::sub(Subchannel sc) { return add_sub(subs_, order_, sc); }

Position RcSender::window_start(Subchannel sc) const { return window_of(subs_, sc); }

std::optional<std::uint32_t> RcSender::receiver_index(NodeId node) const {
  for (std::uint32_t i = 0; i < cfg_.nr(); ++i) {
    if (cfg_.receivers[i] == node) return i;
  }
  return std::nullopt;
}

void RcSender::transmit(Subchannel sc, Sub& s, Position p, const Bytes& m) {
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "rc-send", "sc", sc, "pos", p);
  }
  irmc::SendMsg msg{sc, p, m};
  Bytes body = msg.encode();
  host().charge_hash(body.size());
  // One signature, shared by all receivers (paper A.8). Serialize the frame
  // once; every receiver, retained retransmission copy and future replay
  // shares this one buffer.
  Payload wire = seal_signed(body);
  for (NodeId r : cfg_.receivers) send_wire(r, wire);
  // Every transmitted position lies in [lo, lo + capacity - 1], so the
  // ring slot is either free or holds this same position.
  if (s.sent.empty()) s.sent.resize(cfg_.capacity);
  Retained& slot = s.sent[p % s.sent.size()];
  slot.p = p;
  slot.wire = std::move(wire);
}

void RcSender::send(Subchannel sc, Position p, Bytes m, SendCallback done) {
  Sub& s = sub(sc);
  Position lo = s.win.value_or(1);
  if (p < lo) {
    if (done) done(/*too_old=*/true, lo);
    return;
  }
  if (p <= lo + cfg_.capacity - 1) {
    transmit(sc, s, p, m);
    if (done) done(false, lo);
    return;
  }
  // Position-ordered; equal positions stay in arrival order.
  auto at = std::upper_bound(s.queued.begin(), s.queued.end(), p,
                             [](Position k, const Queued& q) { return k < q.p; });
  s.queued.insert(at, Queued{p, std::move(m), std::move(done)});
}

void RcSender::move_window(Subchannel sc, Position p) {
  Position& cur = touch(sub(sc).own_move);
  if (p <= cur) return;
  cur = p;
  send_move(sc, p);
}

void RcSender::recompute_window(Subchannel sc, Sub& s) {
  // fr+1 highest requested start: at least one correct receiver allowed it.
  Position lo = kth_highest(s.rwin, cfg_.fr, kth_buf_);
  const Position old = s.win.value_or(1);
  Position& cur = touch(s.win);
  if (lo <= cur) return;
  cur = lo;
  // Retained wires all lie in [old, old + capacity - 1]; drop those below lo.
  for (Position q = old; q < lo && q - old < s.sent.size(); ++q) {
    Retained& r = s.sent[q % s.sent.size()];
    if (r.p == q) r.wire = {};
  }
  flush_queue(sc, s);
}

void RcSender::flush_queue(Subchannel sc, Sub& s) {
  if (s.queued.empty()) return;
  Position lo = s.win.value_or(1);
  Position hi = lo + cfg_.capacity - 1;
  // Take the due prefix out first: callbacks may queue further sends
  // (always above hi, since the window does not move meanwhile).
  auto end = std::find_if(s.queued.begin(), s.queued.end(),
                          [hi](const Queued& q) { return q.p > hi; });
  std::vector<Queued> due(std::make_move_iterator(s.queued.begin()),
                          std::make_move_iterator(end));
  s.queued.erase(s.queued.begin(), end);
  for (Queued& q : due) {
    if (q.p < lo) {
      if (q.cb) q.cb(true, lo);
    } else {
      transmit(sc, s, q.p, q.m);
      if (q.cb) q.cb(false, lo);
    }
  }
}

void RcSender::on_message(NodeId from, Reader& r) {
  BytesView all = r.raw(r.remaining());
  if (all.empty()) return;
  auto type = static_cast<MsgType>(all[0]);
  if (type != MsgType::Move && type != MsgType::Nack) return;
  std::optional<std::uint32_t> idx = receiver_index(from);
  if (!idx) return;
  std::optional<BytesView> body = open(from, all, /*is_sig=*/false);
  if (!body) return;

  Reader br(*body);
  br.u8();
  irmc::MoveMsg mv = irmc::MoveMsg::decode(br);
  if (type == MsgType::Nack) {
    // Receiver missed transmissions (e.g. it was unreachable): replay the
    // retained wires from the requested position on. First tell it where
    // the window stands, for two chaos-found livelocks (Byzantine sweep
    // seeds 103 / 154):
    //   - our own Move request may have been lost (sent into a partition)
    //     and move_window() dedups repeats, so the receiver would keep
    //     rejecting the replayed Sends as beyond its storage horizon;
    //   - a receiver that crashed and restarted empty nacks position 1,
    //     which fr+1 receivers (itself included, before the crash) already
    //     moved the window past — it must learn the granted window start
    //     so its TooOld path can recover through a checkpoint instead of
    //     waiting forever for garbage-collected content.
    // The window only moves at the receiver once fs+1 senders state it
    // (>= 1 correct), and execution below the new start resumes only after
    // an f+1-signed checkpoint is adopted, so a Byzantine sender cannot
    // use this to skip live content. FIFO links deliver the Move before
    // the replayed Sends.
    const Sub* s = find_sub(subs_, mv.sc);
    const Position lo = window_of(subs_, mv.sc);
    Position floor = lo;
    if (s && s->own_move) floor = std::max(floor, *s->own_move);
    send_wire(from, seal_mac(from, irmc::MoveMsg{mv.sc, floor}.encode()));

    if (!s) return;
    // Retained wires lie in [lo, lo + capacity - 1]: replay them in
    // ascending order from the requested position on.
    int budget = 64;  // bounded replay per NACK; the receiver re-nacks if needed
    const std::size_t n = s->sent.size();
    for (Position q = std::max(mv.p, lo); q - lo < n && budget > 0; ++q) {
      const Retained& r = s->sent[q % n];
      if (r.p != q || r.wire.empty()) continue;
      send_wire(from, r.wire);
      --budget;
    }
    return;
  }
  Sub& s = sub(mv.sc);
  if (s.rwin.empty()) s.rwin.resize(cfg_.nr());
  Position& cur = touch(s.rwin[*idx]);
  if (mv.p <= cur) return;  // only accept forward moves
  cur = mv.p;
  recompute_window(mv.sc, s);
}

// ---------------------------------------------------------------- receiver

RcReceiver::RcReceiver(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag), cfg_(std::move(cfg)) {}

RcReceiver::~RcReceiver() {
  if (nack_timer_ != EventQueue::kInvalidEvent) cancel_timer(nack_timer_);
}

void RcReceiver::arm_nack_timer() {
  if (nack_timer_ != EventQueue::kInvalidEvent) return;
  nack_timer_ = set_timer(cfg_.window_announce_interval + cfg_.collector_timeout,
                          [this] { on_nack_timer(); });
}

void RcReceiver::on_nack_timer() {
  nack_timer_ = EventQueue::kInvalidEvent;
  bool still_pending = false;
  for (const auto& [sc, s] : order_) {
    // Stall detection: the position pending at the previous timer tick.
    std::optional<Position> prev = std::exchange(s->last_stalled, std::nullopt);
    if (s->pending.empty()) continue;
    Position want = s->pending.front().p;
    if (want < s->win.value_or(1)) continue;  // TooOld will fire instead
    still_pending = true;
    s->last_stalled = want;
    // Only nack when the subchannel made NO progress during a full timer
    // period: steady-state traffic must not trigger retransmissions.
    if (prev != want) continue;
    irmc::MoveMsg nack{sc, want};
    Writer w(1 + 8 + 8);
    w.u8(static_cast<std::uint8_t>(MsgType::Nack));
    w.u64(nack.sc);
    w.u64(nack.p);
    for (NodeId dst : cfg_.senders) send_wire(dst, seal_mac(dst, w.data()));
  }
  if (still_pending) arm_nack_timer();
}

Position RcReceiver::window_start(Subchannel sc) const { return window_of(subs_, sc); }

RcReceiver::Sub& RcReceiver::sub(Subchannel sc) { return add_sub(subs_, order_, sc); }

std::optional<std::uint32_t> RcReceiver::sender_index(NodeId node) const {
  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    if (cfg_.senders[i] == node) return i;
  }
  return std::nullopt;
}

void RcReceiver::receive(Subchannel sc, Position p, ReceiveCallback cb) {
  Sub& s = sub(sc);
  Position lo = s.win.value_or(1);
  if (p < lo) {
    cb(RecvResult{true, lo, {}});
    return;
  }
  if (!s.ring.empty()) {
    const Slot& slot = s.ring[p % s.ring.size()];
    if (slot.ready && slot.p == p) {
      cb(RecvResult{false, 0, slot.delivered});
      return;
    }
  }
  auto it = waiters_at(s.pending, p);
  if (it == s.pending.end() || it->p != p) it = s.pending.insert(it, Waiters{p, {}});
  it->cbs.push_back(std::move(cb));
  arm_nack_timer();
}

void RcReceiver::move_window(Subchannel sc, Position p) {
  internal_move(sc, sub(sc), p);
}

void RcReceiver::internal_move(Subchannel sc, Sub& s, Position p) {
  const Position old = s.win.value_or(1);
  Position& cur = touch(s.win);
  if (p <= cur) return;
  cur = p;

  // Garbage-collect stored state below the window. Stored positions all
  // lie in [old, old + 2 * capacity - 1].
  for (Position q = old; q < p && q - old < s.ring.size(); ++q) {
    Slot& slot = s.ring[q % s.ring.size()];
    if (slot.p != q) continue;
    slot.candidates.clear();
    slot.ready = false;
    slot.delivered = {};
  }

  // Abort superseded receive() calls with TooOld (paper Fig. 14). Take
  // them out first: a callback may issue a new receive().
  auto end = waiters_at(s.pending, p);
  if (end != s.pending.begin()) {
    std::vector<Waiters> aborted(std::make_move_iterator(s.pending.begin()),
                                 std::make_move_iterator(end));
    s.pending.erase(s.pending.begin(), end);
    for (Waiters& w : aborted) {
      for (ReceiveCallback& cb : w.cbs) cb(RecvResult{true, p, {}});
    }
  }

  // Tell the senders.
  irmc::MoveMsg mv{sc, p};
  Bytes body = mv.encode();
  for (NodeId dst : cfg_.senders) send_wire(dst, seal_mac(dst, body));
}

void RcReceiver::try_deliver(Subchannel sc, Sub& s, Slot& slot) {
  for (const Candidate& cand : slot.candidates) {
    if (cand.voters.size() < cfg_.fs + 1) continue;
    // By value: a callback below may move the window past p, which frees
    // this slot while later waiters still need the message.
    const Payload msg = cand.payload;
    const Position p = slot.p;
    slot.ready = true;
    slot.delivered = msg;
    if (auto* t = host().tracer()) {
      t->instant(host().now(), host().id(), "irmc", "rc-deliver", "sc", sc, "pos", p);
    }
    auto it = waiters_at(s.pending, p);
    if (it != s.pending.end() && it->p == p) {
      std::vector<ReceiveCallback> cbs = std::move(it->cbs);
      s.pending.erase(it);
      for (ReceiveCallback& cb : cbs) cb(RecvResult{false, 0, msg});
    }
    return;
  }
}

void RcReceiver::on_message(NodeId from, Reader& r) {
  BytesView all = r.raw(r.remaining());
  if (all.empty()) return;
  std::optional<std::uint32_t> idx = sender_index(from);
  if (!idx) return;

  auto type = static_cast<MsgType>(all[0]);
  if (type == MsgType::Send) {
    std::optional<BytesView> body = open(from, all, /*is_sig=*/true);
    if (!body) return;

    Reader br(*body);
    br.u8();
    irmc::SendMsgView msg = irmc::SendMsgView::decode(br);
    note_subchannel(msg.sc);
    Sub& s = sub(msg.sc);
    Position lo = s.win.value_or(1);
    // Store only within a bounded horizon (window + one extra window of
    // slack for senders running ahead of this receiver).
    if (msg.p < lo || msg.p > lo + 2 * cfg_.capacity - 1) return;

    host().charge_hash(msg.payload.size());
    std::uint64_t key = digest_prefix(host().hash_cached(msg.payload));
    if (s.ring.empty()) s.ring.resize(2 * cfg_.capacity);
    Slot& slot = s.ring[msg.p % s.ring.size()];
    if (slot.p != msg.p) {
      // Free (garbage-collected below the window): reuse it.
      slot.p = msg.p;
      slot.candidates.clear();
      slot.ready = false;
      slot.delivered = {};
    }
    auto cand = std::lower_bound(slot.candidates.begin(), slot.candidates.end(), key,
                                 [](const Candidate& c, std::uint64_t k) { return c.digest < k; });
    if (cand == slot.candidates.end() || cand->digest != key) {
      cand = slot.candidates.insert(cand, Candidate{key, host().capture(msg.payload), {}});
    }
    if (std::find(cand->voters.begin(), cand->voters.end(), *idx) == cand->voters.end()) {
      cand->voters.push_back(*idx);
    }
    try_deliver(msg.sc, s, slot);
  } else if (type == MsgType::Move) {
    std::optional<BytesView> body = open(from, all, /*is_sig=*/false);
    if (!body) return;

    Reader br(*body);
    br.u8();
    irmc::MoveMsg mv = irmc::MoveMsg::decode(br);
    note_subchannel(mv.sc);
    Sub& s = sub(mv.sc);

    if (s.win.value_or(1) > mv.p) {
      // The sender requested a window we already moved past — it is behind
      // on window state (e.g. a crash-recovered sender endpoint that lost
      // its view of the channel). Grant it our current window start so it
      // can flush sends queued behind the stale window.
      send_wire(from, seal_mac(from, irmc::MoveMsg{mv.sc, s.win.value_or(1)}.encode()));
    }

    if (s.smoves.empty()) s.smoves.resize(cfg_.ns());
    Position& cur = touch(s.smoves[*idx]);
    if (mv.p <= cur) return;
    cur = mv.p;

    // fs+1-highest sender request forces our window forward (A.19).
    Position nw = kth_highest(s.smoves, cfg_.fs, kth_buf_);
    if (s.win.value_or(1) < nw) internal_move(mv.sc, s, nw);
  }
}

}  // namespace spider
