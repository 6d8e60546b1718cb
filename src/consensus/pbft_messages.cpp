#include "consensus/pbft_messages.hpp"

#include <algorithm>

namespace spider::pbft {

namespace {
void put_digest(Writer& w, const Sha256Digest& d) { w.raw(BytesView(d.data(), d.size())); }

Sha256Digest get_digest(Reader& r) {
  BytesView v = r.raw(32);
  Sha256Digest d;
  std::copy(v.begin(), v.end(), d.begin());
  return d;
}

// Smallest PreparedProof encoding: seq, view, request count.
constexpr std::size_t kProofMinBytes = 8 + 8 + 4;
}  // namespace

Sha256Digest request_digest(BytesView request) { return Sha256::hash(request); }

namespace {
std::size_t batch_wire_size(const std::vector<Bytes>& requests) {
  std::size_t n = 4;
  for (const Bytes& m : requests) n += 4 + m.size();
  return n;
}
}  // namespace

Sha256Digest batch_digest(const std::vector<Bytes>& requests) {
  Writer w(batch_wire_size(requests));
  w.u32(static_cast<std::uint32_t>(requests.size()));
  for (const Bytes& m : requests) w.bytes(m);
  return Sha256::hash(w.data());
}

Bytes PrePrepareMsg::encode() const {
  Writer w(1 + 8 + 8 + batch_wire_size(requests));
  w.u8(static_cast<std::uint8_t>(MsgType::PrePrepare));
  w.u64(view);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(requests.size()));
  for (const Bytes& m : requests) w.bytes(m);
  return std::move(w).take();
}

PrePrepareMsg PrePrepareMsg::decode(Reader& r) {
  PrePrepareMsg m;
  m.view = r.u64();
  m.seq = r.u64();
  const std::uint32_t n = r.count(4);  // length-prefixed requests
  m.requests.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.requests.push_back(r.bytes());
  return m;
}

Bytes PrepareMsg::encode(bool commit_phase) const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(commit_phase ? MsgType::Commit : MsgType::Prepare));
  w.u64(view);
  w.u64(seq);
  put_digest(w, digest);
  w.u32(replica);
  return std::move(w).take();
}

PrepareMsg PrepareMsg::decode(Reader& r) {
  PrepareMsg m;
  m.view = r.u64();
  m.seq = r.u64();
  m.digest = get_digest(r);
  m.replica = r.u32();
  return m;
}

void PreparedProof::encode_into(Writer& w) const {
  w.u64(seq);
  w.u64(view);
  w.u32(static_cast<std::uint32_t>(requests.size()));
  for (const Bytes& m : requests) w.bytes(m);
}

PreparedProof PreparedProof::decode(Reader& r) {
  PreparedProof p;
  p.seq = r.u64();
  p.view = r.u64();
  const std::uint32_t n = r.count(4);  // length-prefixed requests
  p.requests.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) p.requests.push_back(r.bytes());
  return p;
}

Bytes ViewChangeMsg::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::ViewChange));
  w.u64(new_view);
  w.u64(stable_floor);
  w.u32(replica);
  w.u32(static_cast<std::uint32_t>(prepared.size()));
  for (const PreparedProof& p : prepared) p.encode_into(w);
  return std::move(w).take();
}

ViewChangeMsg ViewChangeMsg::decode(Reader& r) {
  ViewChangeMsg m;
  m.new_view = r.u64();
  m.stable_floor = r.u64();
  m.replica = r.u32();
  const std::uint32_t n = r.count(kProofMinBytes);
  m.prepared.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.prepared.push_back(PreparedProof::decode(r));
  return m;
}

Bytes NewViewMsg::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::NewView));
  w.u64(new_view);
  w.u64(stable_floor);
  w.u32(replica);
  w.u32(static_cast<std::uint32_t>(proposals.size()));
  for (const PreparedProof& p : proposals) p.encode_into(w);
  return std::move(w).take();
}

NewViewMsg NewViewMsg::decode(Reader& r) {
  NewViewMsg m;
  m.new_view = r.u64();
  m.stable_floor = r.u64();
  m.replica = r.u32();
  const std::uint32_t n = r.count(kProofMinBytes);
  m.proposals.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.proposals.push_back(PreparedProof::decode(r));
  return m;
}

}  // namespace spider::pbft
