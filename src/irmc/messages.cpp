#include "irmc/messages.hpp"

namespace spider::irmc {

namespace {
void put_digest(Writer& w, const Sha256Digest& d) { w.raw(BytesView(d.data(), d.size())); }

Sha256Digest get_digest(Reader& r) {
  BytesView v = r.raw(32);
  Sha256Digest d;
  std::copy(v.begin(), v.end(), d.begin());
  return d;
}

// Smallest certificate share encoding: sender index, signature length.
constexpr std::size_t kShareMinBytes = 4 + 4;
}  // namespace

Bytes SendMsg::encode() const {
  Writer w(1 + 8 + 8 + 4 + payload.size());
  w.u8(static_cast<std::uint8_t>(MsgType::Send));
  w.u64(sc);
  w.u64(p);
  w.bytes(payload);
  return std::move(w).take();
}

SendMsg SendMsg::decode(Reader& r) {
  SendMsg m;
  m.sc = r.u64();
  m.p = r.u64();
  m.payload = r.bytes_view();
  return m;
}

Bytes MoveMsg::encode(MsgType type) const {
  Writer w(1 + 8 + 8);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(sc);
  w.u64(p);
  return std::move(w).take();
}

MoveMsg MoveMsg::decode(Reader& r) {
  MoveMsg m;
  m.sc = r.u64();
  m.p = r.u64();
  return m;
}

Bytes SigShareMsg::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::SigShare));
  w.u64(sc);
  w.u64(p);
  put_digest(w, digest);
  return std::move(w).take();
}

SigShareMsg SigShareMsg::decode(Reader& r) {
  SigShareMsg m;
  m.sc = r.u64();
  m.p = r.u64();
  m.digest = get_digest(r);
  return m;
}

Bytes CertificateMsg::encode() const {
  std::size_t hint = 1 + 8 + 8 + 4 + payload.size() + 4;
  for (const auto& [idx, sig] : shares) hint += 4 + 4 + sig.size();
  Writer w(hint);
  w.u8(static_cast<std::uint8_t>(MsgType::Certificate));
  w.u64(sc);
  w.u64(p);
  w.bytes(payload);
  w.u32(static_cast<std::uint32_t>(shares.size()));
  for (const auto& [idx, sig] : shares) {
    w.u32(idx);
    w.bytes(sig);
  }
  return std::move(w).take();
}

CertificateMsg CertificateMsg::decode(Reader& r) {
  CertificateMsg m;
  m.sc = r.u64();
  m.p = r.u64();
  m.payload = r.bytes();
  const std::uint32_t n = r.count(kShareMinBytes);
  m.shares.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t idx = r.u32();
    m.shares.emplace_back(idx, r.bytes());
  }
  return m;
}

CertificateMsgView CertificateMsgView::decode(Reader& r) {
  CertificateMsgView m;
  m.sc = r.u64();
  m.p = r.u64();
  m.payload = r.bytes_view();
  const std::uint32_t n = r.count(kShareMinBytes);
  m.shares.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t idx = r.u32();
    m.shares.emplace_back(idx, r.bytes_view());
  }
  return m;
}

Bytes ProgressMsg::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Progress));
  w.u32(static_cast<std::uint32_t>(progress.size()));
  for (const auto& [sc, p] : progress) {
    w.u64(sc);
    w.u64(p);
  }
  return std::move(w).take();
}

ProgressMsg ProgressMsg::decode(Reader& r) {
  ProgressMsg m;
  const std::uint32_t n = r.count(8 + 8);  // (sc, p)
  m.progress.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Subchannel sc = r.u64();
    Position p = r.u64();
    m.progress.emplace_back(sc, p);
  }
  return m;
}

Bytes SelectMsg::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Select));
  w.u64(sc);
  w.u32(collector);
  return std::move(w).take();
}

SelectMsg SelectMsg::decode(Reader& r) {
  SelectMsg m;
  m.sc = r.u64();
  m.collector = r.u32();
  return m;
}

}  // namespace spider::irmc
