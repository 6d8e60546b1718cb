#include "irmc/sc.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

using irmc::MsgType;

// ------------------------------------------------------------------ sender

ScSender::ScSender(ComponentHost& host, IrmcConfig cfg)
    : IrmcSenderEndpoint(host, std::move(cfg)),
      my_index_(cfg_.sender_index(self()).value_or(0)) {
  progress_timer_ = set_timer(cfg_.progress_interval, [this] { on_progress_timer(); });
}

ScSender::~ScSender() {
  if (progress_timer_ != EventQueue::kInvalidEvent) cancel_timer(progress_timer_);
}

void ScSender::transmit(Subchannel sc, Window& w, Position p, Bytes m) {
  if (auto* t = host().tracer()) {
    t->instant(host().now(), host().id(), "irmc", "sc-send", "sc", sc, "pos", p);
  }
  Payload payload(std::move(m));
  host().charge_hash(payload.size());
  irmc::SigShareMsg share{sc, p, payload.digest()};
  // Distribute the share within the sender group (intra-region traffic):
  // one frame, shared by every group member.
  Payload wire = seal_signed(share.encode());

  Sub& s = static_cast<Sub&>(w);
  Slot& slot = s.ring.claim(p, 2 * cfg_.capacity);
  slot.own = true;
  slot.payload = std::move(payload);
  slot.shares.resize(cfg_.ns());
  slot.shares[my_index_] =
      Share{digest_prefix(share.digest), to_bytes(wire.view().last(crypto().signature_size()))};

  for (std::uint32_t i = 0; i < cfg_.ns(); ++i) {
    if (i == my_index_) continue;
    send_wire(cfg_.senders[i], wire);
  }
  try_certificate(sc, s, slot);
}

void ScSender::release(Window& w, Position old, Position lo) {
  static_cast<Sub&>(w).ring.release(old, lo);
}

void ScSender::try_certificate(Subchannel sc, Sub& s, Slot& slot) {
  if (!slot.own || !slot.certificate.empty()) return;
  // Memoized: transmit() already hashed this payload.
  const std::uint64_t want = digest_prefix(slot.payload.digest());
  std::vector<std::pair<std::uint32_t, Bytes>> matching;
  for (std::uint32_t i = 0; i < slot.shares.size(); ++i) {
    const std::optional<Share>& share = slot.shares[i];
    if (share && share->digest == want) matching.emplace_back(i, share->sig);
    if (matching.size() == cfg_.fs + 1) break;
  }
  if (matching.size() < cfg_.fs + 1) return;

  irmc::CertificateMsg cert{sc, slot.p, slot.payload.to_bytes(), std::move(matching)};
  // The collector signs the certificate (paper Fig. 19, L. 23 signs; we
  // follow the paper text: "sends it in a signed Certificate message").
  slot.certificate = seal_signed(cert.encode());

  s.collector.resize(cfg_.nr());
  for (std::uint32_t ri = 0; ri < cfg_.nr(); ++ri) {
    if (s.collector[ri].value_or(ri % cfg_.ns()) == my_index_) {
      send_wire(cfg_.receivers[ri], slot.certificate);
    }
  }
}

void ScSender::on_progress_timer() {
  progress_timer_ = set_timer(cfg_.progress_interval, [this] { on_progress_timer(); });
  irmc::ProgressMsg pm;
  for (const auto& [sc, w] : windows_.ascending()) {
    const Sub& s = static_cast<const Sub&>(*w);
    Position p = 0;
    for (Position q = start(s);; ++q) {
      const Slot* slot = s.ring.find(q);
      if (!slot || slot->certificate.empty()) break;
      p = q;
    }
    if (p != 0) pm.progress.emplace_back(sc, p);
  }
  if (pm.progress.empty()) return;
  send_mac_to_all(cfg_.receivers, pm.encode());
}

void ScSender::on_content(NodeId from, BytesView all) {
  auto type = static_cast<MsgType>(all[0]);

  if (type == MsgType::SigShare) {
    std::optional<std::uint32_t> idx = cfg_.sender_index(from);
    if (!idx) return;
    auto share = irmc::decode_opened<irmc::SigShareMsg>(open(from, all, /*is_sig=*/true));
    if (!share) return;
    Sub& s = static_cast<Sub&>(window(share->sc));
    if (!irmc::storable(start(s), share->p, cfg_.capacity)) return;
    Slot& slot = s.ring.claim(share->p, 2 * cfg_.capacity);
    slot.shares.resize(cfg_.ns());
    if (slot.shares[*idx]) return;
    slot.shares[*idx] =
        Share{digest_prefix(share->digest), to_bytes(all.last(crypto().signature_size()))};
    try_certificate(share->sc, s, slot);
  } else if (type == MsgType::Select) {
    std::optional<std::uint32_t> idx = cfg_.receiver_index(from);
    if (!idx) return;
    auto sel = irmc::decode_opened<irmc::SelectMsg>(open(from, all, /*is_sig=*/false));
    if (!sel) return;
    Sub& s = static_cast<Sub&>(window(sel->sc));
    s.collector.resize(cfg_.nr());
    s.collector[*idx] = sel->collector;
    if (sel->collector == my_index_) {
      // Queued certificates for this subchannel go out to the new selector.
      for (Position q = start(s); q - start(s) < s.ring.size(); ++q) {
        const Slot* slot = s.ring.find(q);
        if (slot && !slot->certificate.empty()) send_wire(from, slot->certificate);
      }
    }
  }
}

// ---------------------------------------------------------------- receiver

ScReceiver::ScReceiver(ComponentHost& host, IrmcConfig cfg)
    : IrmcReceiverEndpoint(host, std::move(cfg), "sc-deliver"),
      my_index_(cfg_.receiver_index(self()).value_or(0)) {}

ScReceiver::~ScReceiver() {
  for (const auto& [sc, w] : windows_.ascending()) {
    const Sub& s = static_cast<const Sub&>(*w);
    if (s.gap_timer != EventQueue::kInvalidEvent) cancel_timer(s.gap_timer);
  }
}

std::uint32_t ScReceiver::collector(Subchannel sc) const {
  const Window* w = windows_.find(sc);
  return w ? collector_of(static_cast<const Sub&>(*w)) : my_index_ % cfg_.ns();
}

bool ScReceiver::has_gap(const Sub& s) const {
  if (!s.merged) return false;
  const Position lo = start(s);
  const Position hi = std::min(*s.merged, lo + cfg_.capacity - 1);
  for (Position p = lo; p <= hi; ++p) {
    const Slot* slot = s.ring.find(p);
    if (!slot || !slot->ready) return true;
  }
  return false;
}

void ScReceiver::arm_gap_timer(Subchannel sc, Sub& s) {
  if (s.gap_timer != EventQueue::kInvalidEvent) return;
  s.gap_timer = set_timer(cfg_.collector_timeout, [this, sc] { on_gap_timer(sc); });
}

void ScReceiver::on_gap_timer(Subchannel sc) {
  Sub& s = static_cast<Sub&>(window(sc));
  s.gap_timer = EventQueue::kInvalidEvent;
  if (!has_gap(s)) return;
  // Collector failed to provide certificates other senders claim to have:
  // switch to the next sender (paper Fig. 20, L. 30-35).
  const std::uint32_t next = (collector_of(s) + 1) % cfg_.ns();
  s.collector = next;
  send_mac_to_all(cfg_.senders, irmc::SelectMsg{sc, next}.encode());
  arm_gap_timer(sc, s);
}

void ScReceiver::on_content(NodeId from, std::uint32_t sender, BytesView all) {
  auto type = static_cast<MsgType>(all[0]);

  if (type == MsgType::Certificate) {
    auto cert = irmc::decode_opened<irmc::CertificateMsgView>(open(from, all, /*is_sig=*/true));
    if (!cert) return;
    Window& w = noticed_window(cert->sc);
    if (!irmc::storable(start(w), cert->p, cfg_.capacity)) return;
    if (const Slot* slot = w.ring.find(cert->p); slot && slot->ready) return;

    // Verify fs+1 share signatures from distinct senders over the
    // reconstructed SigShare bytes.
    if (cert->shares.size() != cfg_.fs + 1) return;
    host().charge_hash(cert->payload.size());
    const Sha256Digest digest = host().hash_cached(cert->payload);
    const Bytes share = irmc::SigShareMsg{cert->sc, cert->p, digest}.encode();
    std::vector<std::uint32_t> voters;
    for (const auto& [sidx, ssig] : cert->shares) {
      if (sidx >= cfg_.ns() || std::find(voters.begin(), voters.end(), sidx) != voters.end()) {
        return;
      }
      if (!host().verify_statement(cfg_.senders[sidx], Component::tag(), share, ssig)) return;
      voters.push_back(sidx);
    }

    vouch(cert->sc, w, cert->p, digest_prefix(digest), cert->payload, voters);
    Sub& s = static_cast<Sub&>(w);
    if (s.gap_timer != EventQueue::kInvalidEvent && !has_gap(s)) {
      cancel_timer(s.gap_timer);
      s.gap_timer = EventQueue::kInvalidEvent;
    }
  } else if (type == MsgType::Progress) {
    auto pmsg = irmc::decode_opened<irmc::ProgressMsg>(open(from, all, /*is_sig=*/false));
    if (!pmsg) return;
    for (const auto& [sc, p] : pmsg->progress) {
      Sub& s = static_cast<Sub&>(window(sc));
      if (s.progress.empty()) s.progress.resize(cfg_.ns());
      s.progress[sender] = std::max(s.progress[sender].value_or(0), p);
      s.merged = irmc::kth_highest(s.progress, cfg_.fs, 0, kth_buf_);
      if (has_gap(s)) arm_gap_timer(sc, s);
    }
  }
}

}  // namespace spider
