// IRMC-RC: receiver-side collection (paper §4, Fig. 18).
//
// Every sender endpoint forwards its own signed <Send, m, sc, p> to every
// receiver endpoint; each Send is one sender's vouch for the content, and
// the receiver delivers once fs+1 match. Simple and CPU-cheap for senders,
// but transfers the payload |senders| x |receivers| times across the
// wide-area link.
//
// On top of the window engine (irmc.hpp), a sender retains the signed wire
// of every position in its window [lo, lo + capacity - 1] in a ring of
// `capacity` slots, and replays them when a receiver that stalled for a
// full timer period Nacks.
#pragma once

#include "irmc/irmc.hpp"
#include "irmc/messages.hpp"

namespace spider {

class RcSender final : public IrmcSenderEndpoint {
 public:
  RcSender(ComponentHost& host, IrmcConfig cfg);

 private:
  /// A transmitted wire frame (tagged + signed) retained within the window
  /// for retransmission (models the paper's reliable point-to-point links).
  /// The original multicast and every replay share this one buffer; an
  /// empty wire marks a free slot.
  struct Retained {
    Position p = 0;
    Payload wire;
    void clear() { wire = {}; }
  };
  struct Sub : Window {
    irmc::Ring<Retained> sent;  // `capacity` slots
  };

  [[nodiscard]] std::unique_ptr<Window> new_window() const override {
    return std::make_unique<Sub>();
  }
  void transmit(Subchannel sc, Window& w, Position p, Bytes m) override;
  void release(Window& w, Position old, Position lo) override;
  void on_content(NodeId from, BytesView frame) override;
};

class RcReceiver final : public IrmcReceiverEndpoint {
 public:
  RcReceiver(ComponentHost& host, IrmcConfig cfg);
  ~RcReceiver() override;

 private:
  struct Sub : Window {
    std::optional<Position> last_stalled;  // pending position at the previous nack tick
  };

  [[nodiscard]] std::unique_ptr<Window> new_window() const override {
    return std::make_unique<Sub>();
  }
  void on_content(NodeId from, std::uint32_t sender, BytesView frame) override;
  void parked() override;
  void arm_nack_timer();
  void on_nack_timer();

  EventQueue::EventId nack_timer_ = EventQueue::kInvalidEvent;
};

}  // namespace spider
