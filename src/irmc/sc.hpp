// IRMC-SC: sender-side collection (paper §4, Fig. 19/20).
//
// Senders exchange signed hashes (SigShares) inside their region, assemble
// certificates of fs+1 shares, and a per-receiver collector forwards a
// single Certificate message across the wide-area link. Receivers monitor
// collector liveness via Progress messages and switch collectors (Select)
// on timeout. Minimizes WAN traffic at the cost of extra sender CPU.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "irmc/irmc.hpp"
#include "irmc/messages.hpp"

namespace spider {

class ScSender : public Component, public IrmcSenderEndpoint {
 public:
  ScSender(ComponentHost& host, IrmcConfig cfg);
  ~ScSender() override;

  void send(Subchannel sc, Position p, Bytes m, SendCallback done) override;
  void move_window(Subchannel sc, Position p) override;
  Position window_start(Subchannel sc) const override;

  void on_message(NodeId from, Reader& r) override;

 private:
  struct Queued {
    Bytes m;
    SendCallback cb;
  };
  struct SlotShares {
    // sender index -> (digest key, signature over that sender's SigShare)
    std::map<std::uint32_t, std::pair<std::uint64_t, Bytes>> shares;
  };

  [[nodiscard]] Position win_lo(Subchannel sc) const;
  std::optional<std::uint32_t> sender_index(NodeId node) const;
  std::optional<std::uint32_t> receiver_index(NodeId node) const;

  void start_transmit(Subchannel sc, Position p, Bytes m);
  void try_certificate(Subchannel sc, Position p);
  void send_certificate_to(std::uint32_t receiver_idx, Subchannel sc, Position p);
  void recompute_window(Subchannel sc);
  void flush_queue(Subchannel sc);
  void on_progress_timer();

  IrmcConfig cfg_;
  std::uint32_t my_index_ = 0;
  std::map<Subchannel, Position> awin_;
  std::map<std::pair<std::uint32_t, Subchannel>, Position> rwin_;
  std::map<Subchannel, std::multimap<Position, Queued>> queued_;
  std::map<Subchannel, Position> own_move_;

  // Own payload copies; Payload so the per-share digest re-check in
  // try_certificate reuses one memoized hash instead of re-hashing.
  std::map<Subchannel, std::map<Position, Payload>> payloads_;
  std::map<Subchannel, std::map<Position, SlotShares>> shares_;
  // Full signed wire frames; collector sends share one buffer.
  std::map<Subchannel, std::map<Position, Payload>> certificates_;
  // receiver index -> collector sender index chosen by that receiver.
  std::map<Subchannel, std::map<std::uint32_t, std::uint32_t>> collector_;
  EventQueue::EventId progress_timer_ = EventQueue::kInvalidEvent;
  EventQueue::EventId announce_timer_ = EventQueue::kInvalidEvent;
  void send_move(Subchannel sc, Position p);
  void on_announce_timer();
};

class ScReceiver : public Component, public IrmcReceiverEndpoint {
 public:
  ScReceiver(ComponentHost& host, IrmcConfig cfg);
  ~ScReceiver() override;

  void receive(Subchannel sc, Position p, ReceiveCallback cb) override;
  void move_window(Subchannel sc, Position p) override;
  Position window_start(Subchannel sc) const override;

  void on_message(NodeId from, Reader& r) override;

  /// Collector currently selected for a subchannel (test introspection).
  [[nodiscard]] std::uint32_t collector(Subchannel sc) const;

 private:
  [[nodiscard]] Position win_lo(Subchannel sc) const;
  std::optional<std::uint32_t> sender_index(NodeId node) const;
  void internal_move(Subchannel sc, Position p);
  void deliver_ready(Subchannel sc, Position p);
  [[nodiscard]] bool has_gap(Subchannel sc) const;
  void arm_gap_timer(Subchannel sc);
  void on_gap_timer(Subchannel sc);

  IrmcConfig cfg_;
  std::uint32_t my_index_ = 0;
  std::map<Subchannel, Position> awin_;
  std::map<Subchannel, std::map<Position, Payload>> ready_;
  std::map<Subchannel, std::map<Position, std::vector<ReceiveCallback>>> pending_;
  std::map<std::pair<std::uint32_t, Subchannel>, Position> smoves_;

  std::map<std::pair<std::uint32_t, Subchannel>, Position> pe_;  // per-sender progress
  std::map<Subchannel, Position> pm_;                            // merged fs+1-highest
  std::map<Subchannel, std::uint32_t> collector_;
  std::map<Subchannel, EventQueue::EventId> gap_timers_;
};

}  // namespace spider
