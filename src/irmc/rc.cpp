#include "irmc/rc.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

using irmc::MsgType;

// ------------------------------------------------------------------ sender

RcSender::RcSender(ComponentHost& host, IrmcConfig cfg)
    : IrmcSenderEndpoint(host, std::move(cfg)) {}

void RcSender::transmit(Subchannel sc, Window& w, Position p, Bytes m) {
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "rc-send", "sc", sc, "pos", p);
  }
  Bytes body = irmc::SendMsg{sc, p, m}.encode();
  host().charge_hash(body.size());
  // One signature, shared by all receivers (paper A.8). Serialize the frame
  // once; every receiver, retained retransmission copy and future replay
  // shares this one buffer.
  Payload wire = seal_signed(body);
  for (NodeId r : cfg_.receivers) send_wire(r, wire);
  static_cast<Sub&>(w).sent.claim(p, cfg_.capacity).wire = std::move(wire);
}

void RcSender::release(Window& w, Position old, Position lo) {
  static_cast<Sub&>(w).sent.release(old, lo);
}

void RcSender::on_content(NodeId from, BytesView all) {
  if (static_cast<MsgType>(all[0]) != MsgType::Nack) return;
  if (!cfg_.receiver_index(from)) return;
  auto nack = irmc::decode_opened<irmc::MoveMsg>(open(from, all, /*is_sig=*/false));
  if (!nack) return;
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
  const Window* w = windows_.find(nack->sc);
  const Position lo = w ? start(*w) : 1;
  Position floor = lo;
  if (w && w->own_move) floor = std::max(floor, *w->own_move);
  send_wire(from, seal_mac(from, irmc::MoveMsg{nack->sc, floor}.encode()));

  if (!w) return;
  // Retained wires lie in [lo, lo + capacity - 1]: replay them in
  // ascending order from the requested position on.
  const irmc::Ring<Retained>& sent = static_cast<const Sub*>(w)->sent;
  int budget = 64;  // bounded replay per NACK; the receiver re-nacks if needed
  for (Position q = std::max(nack->p, lo); q - lo < sent.size() && budget > 0; ++q) {
    const Retained* r = sent.find(q);
    if (!r || r->wire.empty()) continue;
    send_wire(from, r->wire);
    --budget;
  }
}

// ---------------------------------------------------------------- receiver

RcReceiver::RcReceiver(ComponentHost& host, IrmcConfig cfg)
    : IrmcReceiverEndpoint(host, std::move(cfg), "rc-deliver") {}

RcReceiver::~RcReceiver() {
  if (nack_timer_ != EventQueue::kInvalidEvent) cancel_timer(nack_timer_);
}

void RcReceiver::parked() { arm_nack_timer(); }

void RcReceiver::arm_nack_timer() {
  if (nack_timer_ != EventQueue::kInvalidEvent) return;
  nack_timer_ = set_timer(kWindowAnnounceInterval + cfg_.collector_timeout,
                          [this] { on_nack_timer(); });
}

void RcReceiver::on_nack_timer() {
  nack_timer_ = EventQueue::kInvalidEvent;
  bool still_pending = false;
  for (const auto& [sc, w] : windows_.ascending()) {
    Sub& s = static_cast<Sub&>(*w);
    // Stall detection: the position pending at the previous timer tick.
    std::optional<Position> prev = std::exchange(s.last_stalled, std::nullopt);
    if (s.pending.empty()) continue;
    Position want = s.pending.front().p;
    if (want < start(s)) continue;  // TooOld will fire instead
    still_pending = true;
    s.last_stalled = want;
    // Only nack when the subchannel made NO progress during a full timer
    // period: steady-state traffic must not trigger retransmissions.
    if (prev != want) continue;
    send_mac_to_all(cfg_.senders, irmc::MoveMsg{sc, want}.encode(MsgType::Nack));
  }
  if (still_pending) arm_nack_timer();
}

void RcReceiver::on_content(NodeId from, std::uint32_t sender, BytesView all) {
  if (static_cast<MsgType>(all[0]) != MsgType::Send) return;
  auto msg = irmc::decode_opened<irmc::SendMsg>(open(from, all, /*is_sig=*/true));
  if (!msg) return;
  Window& w = noticed_window(msg->sc);
  if (!irmc::storable(start(w), msg->p, cfg_.capacity)) return;
  host().charge_hash(msg->payload.size());
  vouch(msg->sc, w, msg->p, digest_prefix(host().hash_cached(msg->payload)), msg->payload,
        {&sender, 1});
}

}  // namespace spider
