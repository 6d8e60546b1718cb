#include "crypto/provider.hpp"

#include "common/serde.hpp"
#include "crypto/hmac.hpp"

namespace spider {

// ---------------------------------------------------------------- FastCrypto

FastCrypto::FastCrypto(std::uint64_t seed) {
  Writer w;
  w.str("fastcrypto-master");
  w.u64(seed);
  master_ = sha256(w.data());
}

Bytes FastCrypto::key_for(NodeId signer) const {
  Writer w;
  w.raw(master_);
  w.u32(signer);
  return sha256(w.data());
}

Bytes FastCrypto::pair_key(NodeId a, NodeId b) const {
  Writer w;
  w.raw(master_);
  w.u32(std::min(a, b));
  w.u32(std::max(a, b));
  return sha256(w.data());
}

const HmacKey& FastCrypto::signer_hmac(NodeId signer) {
  auto it = signer_hmacs_.find(signer);
  if (it == signer_hmacs_.end()) {
    it = signer_hmacs_.emplace(signer, hmac_precompute(key_for(signer))).first;
  }
  return it->second;
}

const HmacKey& FastCrypto::pair_hmac(NodeId a, NodeId b) {
  std::uint64_t k = (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  auto it = pair_hmacs_.find(k);
  if (it == pair_hmacs_.end()) {
    it = pair_hmacs_.emplace(k, hmac_precompute(pair_key(a, b))).first;
  }
  return it->second;
}

namespace {

// Signature byte `i` past the HMAC tag: deterministic padding to the size
// of an RSA-1024 signature, so network byte accounting matches the paper's
// setup.
std::uint8_t sig_pad(std::size_t i, NodeId signer) {
  return static_cast<std::uint8_t>(0xa5 ^ (i * 31) ^ signer);
}

}  // namespace

Bytes FastCrypto::sign(NodeId signer, BytesView message) {
  Sha256Digest tag = hmac_sha256(signer_hmac(signer), message);
  Bytes sig(signature_size(), 0);
  std::copy(tag.begin(), tag.end(), sig.begin());
  for (std::size_t i = tag.size(); i < sig.size(); ++i) sig[i] = sig_pad(i, signer);
  return sig;
}

bool FastCrypto::verify(NodeId signer, BytesView message, BytesView signature) {
  if (signature.size() != signature_size()) return false;
  // Compares against sign()'s output in place, without building it.
  const Sha256Digest tag = hmac_sha256(signer_hmac(signer), message);
  if (!mac_equal(tag, signature.first(tag.size()))) return false;
  for (std::size_t i = tag.size(); i < signature.size(); ++i) {
    if (signature[i] != sig_pad(i, signer)) return false;
  }
  return true;
}

Bytes FastCrypto::mac(NodeId from, NodeId to, BytesView message) {
  return hmac_tag(pair_hmac(from, to), message);
}

bool FastCrypto::verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) {
  const Sha256Digest d = hmac_sha256(pair_hmac(from, to), message);
  return mac_equal(BytesView(d.data(), mac_size()), tag);
}

}  // namespace spider
