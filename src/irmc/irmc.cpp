#include "irmc/irmc.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "irmc/messages.hpp"
#include "irmc/rc.hpp"
#include "irmc/sc.hpp"
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

/// First pending entry at or above position `p`.
template <typename Waiters>
auto waiters_at(std::vector<Waiters>& pending, Position p) {
  return std::lower_bound(pending.begin(), pending.end(), p,
                          [](const Waiters& w, Position k) { return w.p < k; });
}
}  // namespace

Position irmc::kth_highest(const std::vector<std::optional<Position>>& req, std::size_t k,
                           Position absent, std::vector<Position>& buf) {
  buf.clear();
  for (const auto& r : req) buf.push_back(r.value_or(absent));
  auto nth = buf.begin() + static_cast<std::ptrdiff_t>(std::min(k, buf.size() - 1));
  std::nth_element(buf.begin(), nth, buf.end(), std::greater<>());
  return *nth;
}

// ------------------------------------------------------------------ sender

IrmcSenderEndpoint::IrmcSenderEndpoint(ComponentHost& host, IrmcConfig cfg)
    : Component(host, cfg.channel_tag), cfg_(std::move(cfg)) {
  if (cfg_.announce_window) {
    announce_timer_ = set_timer(kWindowAnnounceInterval, [this] { on_announce_timer(); });
  }
}

IrmcSenderEndpoint::~IrmcSenderEndpoint() {
  if (announce_timer_ != EventQueue::kInvalidEvent) cancel_timer(announce_timer_);
}

void IrmcSenderEndpoint::on_announce_timer() {
  announce_timer_ = set_timer(kWindowAnnounceInterval, [this] { on_announce_timer(); });
  for (const auto& [sc, w] : windows_.ascending()) {
    if (w->own_move) send_mac_to_all(cfg_.receivers, irmc::MoveMsg{sc, *w->own_move}.encode());
  }
}

void IrmcSenderEndpoint::send(Subchannel sc, Position p, Bytes m, SendCallback done) {
  Window& w = window(sc);
  const Position lo = start(w);
  if (p < lo) {
    if (done) done(/*too_old=*/true, lo);
    return;
  }
  if (p <= lo + cfg_.capacity - 1) {
    transmit(sc, w, p, std::move(m));
    if (done) done(false, lo);
    return;
  }
  // Position-ordered; equal positions stay in arrival order.
  auto at = std::upper_bound(w.queued.begin(), w.queued.end(), p,
                             [](Position k, const Queued& q) { return k < q.p; });
  w.queued.insert(at, Queued{p, std::move(m), std::move(done)});
}

void IrmcSenderEndpoint::move_window(Subchannel sc, Position p) {
  Position& cur = touch(window(sc).own_move);
  if (p <= cur) return;
  cur = p;
  send_mac_to_all(cfg_.receivers, irmc::MoveMsg{sc, p}.encode());
}

void IrmcSenderEndpoint::recompute_window(Subchannel sc, Window& w) {
  // fr+1 highest requested start: at least one correct receiver allowed it.
  const Position lo = irmc::kth_highest(w.rwin, cfg_.fr, 1, kth_buf_);
  const Position old = start(w);
  Position& cur = touch(w.win);
  if (lo <= cur) return;
  cur = lo;
  release(w, old, lo);
  flush_queue(sc, w);
}

void IrmcSenderEndpoint::flush_queue(Subchannel sc, Window& w) {
  if (w.queued.empty()) return;
  const Position lo = start(w);
  const Position hi = lo + cfg_.capacity - 1;
  // Take the due prefix out first: callbacks may queue further sends
  // (always above hi, since the window does not move meanwhile).
  auto end = std::find_if(w.queued.begin(), w.queued.end(),
                          [hi](const Queued& q) { return q.p > hi; });
  std::vector<Queued> due(std::make_move_iterator(w.queued.begin()),
                          std::make_move_iterator(end));
  w.queued.erase(w.queued.begin(), end);
  for (Queued& q : due) {
    if (q.p < lo) {
      if (q.cb) q.cb(true, lo);
    } else {
      transmit(sc, w, q.p, std::move(q.m));
      if (q.cb) q.cb(false, lo);
    }
  }
}

void IrmcSenderEndpoint::on_message(NodeId from, Reader& r) {
  BytesView all = r.raw(r.remaining());
  if (all.empty()) return;
  if (static_cast<MsgType>(all[0]) != MsgType::Move) {
    on_content(from, all);
    return;
  }
  std::optional<std::uint32_t> idx = cfg_.receiver_index(from);
  if (!idx) return;
  auto mv = irmc::decode_opened<irmc::MoveMsg>(open(from, all, /*is_sig=*/false));
  if (!mv) return;
  Window& w = window(mv->sc);
  if (w.rwin.empty()) w.rwin.resize(cfg_.nr());
  Position& cur = touch(w.rwin[*idx]);
  if (mv->p <= cur) return;  // only accept forward moves
  cur = mv->p;
  recompute_window(mv->sc, w);
}

// ---------------------------------------------------------------- receiver

IrmcReceiverEndpoint::IrmcReceiverEndpoint(ComponentHost& host, IrmcConfig cfg,
                                           const char* deliver_event)
    : Component(host, cfg.channel_tag), cfg_(std::move(cfg)), deliver_event_(deliver_event) {}

IrmcReceiverEndpoint::Window& IrmcReceiverEndpoint::noticed_window(Subchannel sc) {
  Window& w = window(sc);
  if (!w.noticed) {
    w.noticed = true;
    if (on_new_subchannel) on_new_subchannel(sc);
  }
  return w;
}

void IrmcReceiverEndpoint::receive(Subchannel sc, Position p, ReceiveCallback cb) {
  Window& w = window(sc);
  const Position lo = start(w);
  if (p < lo) {
    cb(RecvResult{true, lo, {}});
    return;
  }
  if (const Slot* slot = w.ring.find(p); slot && slot->ready) {
    cb(RecvResult{false, 0, slot->delivered});
    return;
  }
  auto it = waiters_at(w.pending, p);
  if (it == w.pending.end() || it->p != p) it = w.pending.insert(it, Waiters{p, {}});
  it->cbs.push_back(std::move(cb));
  parked();
}

void IrmcReceiverEndpoint::move_window(Subchannel sc, Position p) { advance(sc, window(sc), p); }

void IrmcReceiverEndpoint::advance(Subchannel sc, Window& w, Position p) {
  const Position old = start(w);
  Position& cur = touch(w.win);
  if (p <= cur) return;
  cur = p;

  // Garbage-collect stored state below the window.
  w.ring.release(old, p);

  // Abort superseded receive() calls with TooOld (paper Fig. 14). Take
  // them out first: a callback may issue a new receive().
  auto end = waiters_at(w.pending, p);
  if (end != w.pending.begin()) {
    std::vector<Waiters> aborted(std::make_move_iterator(w.pending.begin()),
                                 std::make_move_iterator(end));
    w.pending.erase(w.pending.begin(), end);
    for (Waiters& ws : aborted) {
      for (ReceiveCallback& cb : ws.cbs) cb(RecvResult{true, p, {}});
    }
  }

  // Tell the senders.
  send_mac_to_all(cfg_.senders, irmc::MoveMsg{sc, p}.encode());
}

void IrmcReceiverEndpoint::vouch(Subchannel sc, Window& w, Position p, std::uint64_t digest,
                                 BytesView payload, std::span<const std::uint32_t> voters) {
  Slot& slot = w.ring.claim(p, 2 * cfg_.capacity);
  auto cand = std::lower_bound(slot.candidates.begin(), slot.candidates.end(), digest,
                               [](const Candidate& c, std::uint64_t k) { return c.digest < k; });
  if (cand == slot.candidates.end() || cand->digest != digest) {
    cand = slot.candidates.insert(cand, Candidate{digest, host().capture(payload), {}});
  }
  for (std::uint32_t v : voters) {
    if (std::find(cand->voters.begin(), cand->voters.end(), v) == cand->voters.end()) {
      cand->voters.push_back(v);
    }
  }
  deliver_if_vouched(sc, w, slot);
}

void IrmcReceiverEndpoint::deliver_if_vouched(Subchannel sc, Window& w, Slot& slot) {
  for (const Candidate& cand : slot.candidates) {
    if (cand.voters.size() < cfg_.fs + 1) continue;
    // By value: a callback below may move the window past p, which frees
    // this slot while later waiters still need the message.
    const Payload msg = cand.payload;
    const Position p = slot.p;
    slot.ready = true;
    slot.delivered = msg;
    if (auto* t = host().tracer()) {
      t->instant(host().now(), host().id(), "irmc", deliver_event_, "sc", sc, "pos", p);
    }
    auto it = waiters_at(w.pending, p);
    if (it != w.pending.end() && it->p == p) {
      std::vector<ReceiveCallback> cbs = std::move(it->cbs);
      w.pending.erase(it);
      for (ReceiveCallback& cb : cbs) cb(RecvResult{false, 0, msg});
    }
    return;
  }
}

void IrmcReceiverEndpoint::on_message(NodeId from, Reader& r) {
  BytesView all = r.raw(r.remaining());
  if (all.empty()) return;
  std::optional<std::uint32_t> idx = cfg_.sender_index(from);
  if (!idx) return;
  if (static_cast<MsgType>(all[0]) != MsgType::Move) {
    on_content(from, *idx, all);
    return;
  }
  auto mv = irmc::decode_opened<irmc::MoveMsg>(open(from, all, /*is_sig=*/false));
  if (!mv) return;
  Window& w = noticed_window(mv->sc);
  if (start(w) > mv->p) {
    // The sender requested a window we already moved past — it is behind
    // on window state (e.g. a crash-recovered sender endpoint that lost
    // its view of the channel). Grant it our current window start so it
    // can flush sends queued behind the stale window.
    send_wire(from, seal_mac(from, irmc::MoveMsg{mv->sc, start(w)}.encode()));
  }
  if (w.smoves.empty()) w.smoves.resize(cfg_.ns());
  Position& cur = touch(w.smoves[*idx]);
  if (mv->p <= cur) return;
  cur = mv->p;

  // fs+1-highest sender request forces our window forward (A.19).
  const Position nw = irmc::kth_highest(w.smoves, cfg_.fs, 1, kth_buf_);
  if (start(w) < nw) advance(mv->sc, w, nw);
}

// ------------------------------------------------------------------ factory

std::unique_ptr<IrmcSenderEndpoint> make_irmc_sender(IrmcKind kind, ComponentHost& host,
                                                     IrmcConfig cfg) {
  if (kind == IrmcKind::ReceiverCollect) return std::make_unique<RcSender>(host, std::move(cfg));
  return std::make_unique<ScSender>(host, std::move(cfg));
}

std::unique_ptr<IrmcReceiverEndpoint> make_irmc_receiver(IrmcKind kind, ComponentHost& host,
                                                         IrmcConfig cfg) {
  if (kind == IrmcKind::ReceiverCollect) return std::make_unique<RcReceiver>(host, std::move(cfg));
  return std::make_unique<ScReceiver>(host, std::move(cfg));
}

}  // namespace spider
