// IRMC-SC: sender-side collection (paper §4, Fig. 19/20).
//
// Senders exchange signed hashes (SigShares) inside their region, assemble
// certificates of fs+1 shares, and a per-receiver collector forwards a
// single Certificate message across the wide-area link; a certificate that
// verifies is the vouch of its fs+1 signers. Receivers monitor collector
// liveness via Progress messages and switch collectors (Select) on
// timeout. Minimizes WAN traffic at the cost of extra sender CPU.
//
// On top of the window engine (irmc.hpp), a sender keeps a ring of
// 2 * capacity slots per subchannel: its own payloads and certificates for
// the window, and the group's shares for the window plus the slack a
// receiver stores.
#pragma once

#include "irmc/irmc.hpp"
#include "irmc/messages.hpp"

namespace spider {

class ScSender final : public IrmcSenderEndpoint {
 public:
  ScSender(ComponentHost& host, IrmcConfig cfg);
  ~ScSender() override;

 private:
  struct Share {
    std::uint64_t digest;  // digest prefix the share signs
    Bytes sig;             // signature over that sender's SigShare
  };
  struct Slot {
    Position p = 0;
    bool own = false;  // transmitted here: `payload` is our copy
    Payload payload;   // memoizes its digest for the share re-check
    std::vector<std::optional<Share>> shares;  // per sender index, sized on first use
    Payload certificate;  // full signed wire, shared by collector sends
    void clear() {
      own = false;
      payload = {};
      shares.clear();
      certificate = {};
    }
  };
  struct Sub : Window {
    irmc::Ring<Slot> ring;                 // 2 * capacity slots
    std::vector<std::optional<std::uint32_t>> collector;  // chosen per receiver (absent: ri % ns)
  };

  [[nodiscard]] std::unique_ptr<Window> new_window() const override {
    return std::make_unique<Sub>();
  }
  void transmit(Subchannel sc, Window& w, Position p, Bytes m) override;
  void release(Window& w, Position old, Position lo) override;
  void on_content(NodeId from, BytesView frame) override;

  void try_certificate(Subchannel sc, Sub& s, Slot& slot);
  void on_progress_timer();

  std::uint32_t my_index_ = 0;
  EventQueue::EventId progress_timer_ = EventQueue::kInvalidEvent;
};

class ScReceiver final : public IrmcReceiverEndpoint {
 public:
  ScReceiver(ComponentHost& host, IrmcConfig cfg);
  ~ScReceiver() override;

  /// Collector currently selected for a subchannel (test introspection).
  [[nodiscard]] std::uint32_t collector(Subchannel sc) const;

 private:
  struct Sub : Window {
    std::vector<std::optional<Position>> progress;  // claimed per sender (absent: 0)
    std::optional<Position> merged;                 // fs+1-highest progress
    std::optional<std::uint32_t> collector;         // absent: my index % ns
    EventQueue::EventId gap_timer = EventQueue::kInvalidEvent;
  };

  [[nodiscard]] std::unique_ptr<Window> new_window() const override {
    return std::make_unique<Sub>();
  }
  void on_content(NodeId from, std::uint32_t sender, BytesView frame) override;

  [[nodiscard]] std::uint32_t collector_of(const Sub& s) const {
    return s.collector.value_or(my_index_ % cfg_.ns());
  }
  [[nodiscard]] bool has_gap(const Sub& s) const;
  void arm_gap_timer(Subchannel sc, Sub& s);
  void on_gap_timer(Subchannel sc);

  std::uint32_t my_index_ = 0;
  std::vector<Position> kth_buf_;
};

}  // namespace spider
