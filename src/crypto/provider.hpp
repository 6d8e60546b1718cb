// Crypto provider abstraction and its one engine.
//
// Protocol code reaches the provider only through SimNode's authenticated-
// frame operations (sim/node.hpp). Every provider must keep the contract
// `ProviderSuite` (tests/test_provider.cpp) pins: verify(s, m, sign(s, m))
// and verify_mac(a, b, m, mac(a, b, m)) are true, and both are pure
// functions of their arguments. SimNode relies on it: a frame buffer it
// sealed is stamped {sealer, receiver or 0 for a signature, prefix length},
// and open() accepts the whole stamped buffer its sealer sent to the node
// it was sealed for without calling verify/verify_mac, because the
// provider would say yes. Every other frame is verified here.
//
// `FastCrypto` stands in for the paper's RSA-1024 signatures and
// HMAC-SHA-256 MACs: signatures are HMAC-SHA-256 tags under a per-signer
// key derived from one seeded master secret, padded to 128 bytes so message
// sizes and network byte accounting match RSA-1024; MACs are HMAC-SHA-256
// truncated to 16 bytes under a per-pair key. Forged or tampered frames
// are rejected, but the shared master secret offers no security against an
// in-process adversary that reads it.
//
// The *simulated CPU cost* of each operation comes from `CryptoCosts` (the
// paper's RSA-1024/HMAC costs) and is charged by the simulation layer, not
// measured, so latency and throughput results do not depend on how fast
// the engine really is.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "crypto/hmac.hpp"

namespace spider {

/// Modeled CPU costs (microseconds) for a t3.small-class VM running a Java
/// prototype with 1024-bit RSA, as in the paper's evaluation.
struct CryptoCosts {
  Duration sign = 210;        // RSA-1024 private-key operation
  Duration verify = 28;       // RSA-1024 public-key operation (e = 65537)
  Duration mac = 4;           // HMAC-SHA-256 generate or check
  Duration hash_per_kb = 4;   // SHA-256 throughput
  Duration proc_per_msg = 18; // fixed message handling (dispatch, alloc, ...)
  Duration proc_per_kb = 10;  // serialization / copy per KiB
};

class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  virtual Bytes sign(NodeId signer, BytesView message) = 0;
  virtual bool verify(NodeId signer, BytesView message, BytesView signature) = 0;

  virtual Bytes mac(NodeId from, NodeId to, BytesView message) = 0;
  virtual bool verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) = 0;

  /// Size in bytes of a signature (for network accounting).
  virtual std::size_t signature_size() const = 0;
  std::size_t mac_size() const { return 16; }

  const CryptoCosts& costs() const { return costs_; }
  CryptoCosts& costs() { return costs_; }

 private:
  CryptoCosts costs_;
};

/// HMAC-backed simulated signatures. All nodes share a master secret, so
/// this provider offers no security against an in-process adversary — it
/// exists to make large simulations cheap while keeping identical message
/// sizes (128-byte "signatures" mimic RSA-1024).
class FastCrypto : public CryptoProvider {
 public:
  explicit FastCrypto(std::uint64_t seed);

  Bytes sign(NodeId signer, BytesView message) override;
  bool verify(NodeId signer, BytesView message, BytesView signature) override;
  Bytes mac(NodeId from, NodeId to, BytesView message) override;
  bool verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) override;
  std::size_t signature_size() const override { return 128; }

 private:
  Bytes key_for(NodeId signer) const;
  Bytes pair_key(NodeId a, NodeId b) const;
  const HmacKey& signer_hmac(NodeId signer);
  const HmacKey& pair_hmac(NodeId a, NodeId b);

  Bytes master_;
  // Derived keys are pure functions of (master, node ids): cache their
  // precomputed HMAC midstates so each sign/verify/mac pays only the
  // message-dependent hashing, not key derivation (two SHA-256 passes per
  // operation in the naive path).
  std::unordered_map<NodeId, HmacKey> signer_hmacs_;
  std::unordered_map<std::uint64_t, HmacKey> pair_hmacs_;
};

}  // namespace spider
