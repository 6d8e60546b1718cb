// IRMC-RC: receiver-side collection (paper §4, Fig. 18).
//
// Every sender endpoint forwards its own signed <Send, m, sc, p> to every
// receiver endpoint; each receiver collects fs+1 matching Sends before
// delivering. Simple and CPU-cheap for senders, but transfers the payload
// |senders| x |receivers| times across the wide-area link.
//
// State layout. Each endpoint keeps one record per subchannel, found by a
// single hash lookup; all per-position state lives in a ring inside it,
// indexed by p % size. The paper bounds that state by the window, so the
// rings never hold two live positions in one slot:
//   - a sender retains the signed wire of every position in its window
//     [lo, lo + capacity - 1] for retransmission: a ring of `capacity`;
//   - a receiver stores Sends for its window plus one more window of slack
//     for senders running ahead, [lo, lo + 2 * capacity - 1]: a ring of
//     2 * capacity slots, each with its candidate list (digest, payload,
//     voter indices, ascending digest order) and the delivered payload.
// Per-peer window requests are per-index vectors. Absent entries keep the
// defaults of the maps they replace: a window start nobody set reads 1,
// while a request slot touched by a Move reads from 0 on.
//
// Timer loops that emit messages (the sender's window announcements and
// the receiver's Nacks) visit subchannels in ascending order, so the
// message order — and with it every simulated run — does not depend on
// the hash table's iteration order.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "irmc/irmc.hpp"
#include "irmc/messages.hpp"

namespace spider {

class RcSender : public Component, public IrmcSenderEndpoint {
 public:
  RcSender(ComponentHost& host, IrmcConfig cfg);
  ~RcSender() override;

  void send(Subchannel sc, Position p, Bytes m, SendCallback done) override;
  void move_window(Subchannel sc, Position p) override;
  Position window_start(Subchannel sc) const override;

  void on_message(NodeId from, Reader& r) override;

 private:
  struct Queued {
    Position p;
    Bytes m;
    SendCallback cb;
  };
  /// A transmitted wire frame (tagged + signed) retained within the window
  /// for retransmission (models the paper's reliable point-to-point links).
  /// The original multicast and every replay share this one buffer; an
  /// empty wire marks a free slot.
  struct Retained {
    Position p = 0;
    Payload wire;
  };
  struct Sub {
    std::optional<Position> win;       // active window lower bound (absent: 1)
    std::optional<Position> own_move;  // dedup of our own Move broadcasts
    std::vector<std::optional<Position>> rwin;  // window requested per receiver
    std::vector<Queued> queued;        // sends above the window, by position
    std::vector<Retained> sent;        // ring of `capacity` slots
  };

  Sub& sub(Subchannel sc);
  void recompute_window(Subchannel sc, Sub& s);
  void transmit(Subchannel sc, Sub& s, Position p, const Bytes& m);
  void flush_queue(Subchannel sc, Sub& s);
  std::optional<std::uint32_t> receiver_index(NodeId node) const;

  IrmcConfig cfg_;
  std::unordered_map<Subchannel, Sub> subs_;
  std::vector<std::pair<Subchannel, Sub*>> order_;  // subs_ by ascending key
  std::vector<Position> kth_buf_;
  EventQueue::EventId announce_timer_ = EventQueue::kInvalidEvent;
  void send_move(Subchannel sc, Position p);
  void on_announce_timer();
};

class RcReceiver : public Component, public IrmcReceiverEndpoint {
 public:
  RcReceiver(ComponentHost& host, IrmcConfig cfg);

  void receive(Subchannel sc, Position p, ReceiveCallback cb) override;
  void move_window(Subchannel sc, Position p) override;
  Position window_start(Subchannel sc) const override;

  void on_message(NodeId from, Reader& r) override;

 private:
  struct Candidate {
    std::uint64_t digest;
    Payload payload;  // zero-copy slice of the first vouching Send's wire
    std::vector<std::uint32_t> voters;  // sender indices that vouched
  };
  struct Slot {
    Position p = 0;
    std::vector<Candidate> candidates;  // empty: slot free
    bool ready = false;                 // fs+1 quorum reached
    Payload delivered;
  };
  struct Waiters {
    Position p;
    std::vector<ReceiveCallback> cbs;
  };
  struct Sub {
    std::optional<Position> win;  // active window lower bound (absent: 1)
    std::vector<std::optional<Position>> smoves;  // window requested per sender
    std::vector<Slot> ring;       // 2 * capacity slots
    std::vector<Waiters> pending;  // pending receive() calls, by position
    std::optional<Position> last_stalled;  // pending position at the previous nack tick
  };

  Sub& sub(Subchannel sc);
  void internal_move(Subchannel sc, Sub& s, Position p);
  void try_deliver(Subchannel sc, Sub& s, Slot& slot);
  std::optional<std::uint32_t> sender_index(NodeId node) const;

  IrmcConfig cfg_;
  std::unordered_map<Subchannel, Sub> subs_;
  std::vector<std::pair<Subchannel, Sub*>> order_;  // subs_ by ascending key
  std::vector<Position> kth_buf_;
  EventQueue::EventId nack_timer_ = EventQueue::kInvalidEvent;
  void arm_nack_timer();
  void on_nack_timer();

 public:
  ~RcReceiver() override;
};

}  // namespace spider
