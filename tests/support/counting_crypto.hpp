// FastCrypto that counts the verdicts it computes, for tests that pin how
// much verification work reaches the provider. Install it through the
// World(seed, unique_ptr<CryptoProvider>) seam; with the World's seed it
// derives the same keys as the default engine, so runs are unchanged.
#pragma once

#include <cstddef>

#include "crypto/provider.hpp"

namespace spider {

class CountingCrypto : public FastCrypto {
 public:
  using FastCrypto::FastCrypto;

  bool verify(NodeId signer, BytesView message, BytesView signature) override {
    // SimNode::open verifies a frame's [tag][body] in place, so its
    // signature directly follows the message; verify_statement verifies a
    // freshly re-encoded [tag][statement] against a signature held
    // elsewhere.
    if (message.data() + message.size() == signature.data()) {
      ++frame_verifies;
    } else {
      ++statement_verifies;
    }
    return FastCrypto::verify(signer, message, signature);
  }

  bool verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) override {
    ++mac_verifies;
    return FastCrypto::verify_mac(from, to, message, tag);
  }

  [[nodiscard]] std::size_t calls() const {
    return frame_verifies + statement_verifies + mac_verifies;
  }

  std::size_t frame_verifies = 0;
  std::size_t statement_verifies = 0;
  std::size_t mac_verifies = 0;
};

}  // namespace spider
