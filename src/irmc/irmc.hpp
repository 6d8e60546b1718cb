// Inter-Regional Message Channels (IRMC) — paper §3.2, §4, Appendix A.5.
//
// An IRMC forwards messages from a group of sender replicas to a group of
// receiver replicas in another region. Subchannels are independent bounded
// FIFO queues addressed by (subchannel, position); a message is delivered
// only after fs+1 senders vouched for identical content at the same
// position, so no message forged by up to fs faulty senders can pass.
// Window-based flow control is built in (move_window).
//
// The paper's blocking send()/receive() calls are expressed as callbacks:
//   - send(): the callback fires when the call "returns" in paper terms —
//     immediately when the position is inside (sent) or below (dropped as
//     too old) the window, deferred while the position is above the window.
//   - receive(): the callback fires with the message, or with TooOld when
//     the window has moved past the requested position.
//
// IrmcSenderEndpoint and IrmcReceiverEndpoint below are the window engine
// both variants share (Fig. 14): window starts, Move requests and their
// fr+1 / fs+1-highest agreement, the queue of sends above the window,
// parked receive() calls, the storage horizon and delivery. A variant
// only decides how a position's content gets vouched for (rc.hpp: one
// signed Send per sender; sc.hpp: certificates of signed shares).
//
// State layout. Each endpoint keeps one record per subchannel, found by a
// single hash lookup; per-position state lives in rings inside it, indexed
// by p % size. The paper bounds that state by the window, so a ring never
// holds two live positions in one slot. Per-peer window requests are
// per-index vectors; a window start nobody set reads 1, while a request
// slot touched by a Move reads from 0 on. Timer loops visit subchannels in
// ascending order, so the message order — and with it every simulated run
// — does not depend on the hash table's iteration order.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "sim/component.hpp"

namespace spider {

struct IrmcConfig {
  std::vector<NodeId> senders;
  std::vector<NodeId> receivers;
  std::uint32_t fs = 1;        // Byzantine senders tolerated
  std::uint32_t fr = 1;        // Byzantine receivers tolerated
  Position capacity = 16;      // per-subchannel window capacity (>= 1)
  std::uint32_t channel_tag = tags::kIrmc;  // component tag for this channel

  // IRMC-SC collector liveness; RC's Nack timer also waits collector_timeout.
  Duration progress_interval = 50 * kMillisecond;
  Duration collector_timeout = 300 * kMillisecond;

  // Window announcement heartbeat (every kWindowAnnounceInterval): senders
  // re-announce their requested window starts so that receivers that were
  // unreachable (and missed Move messages) learn that they fell behind.
  // Models the retransmission behaviour of the reliable links the paper
  // assumes. Receivers ignore it.
  bool announce_window = false;

  [[nodiscard]] std::uint32_t ns() const { return static_cast<std::uint32_t>(senders.size()); }
  [[nodiscard]] std::uint32_t nr() const { return static_cast<std::uint32_t>(receivers.size()); }
  [[nodiscard]] std::optional<std::uint32_t> sender_index(NodeId n) const {
    return index_of(senders, n);
  }
  [[nodiscard]] std::optional<std::uint32_t> receiver_index(NodeId n) const {
    return index_of(receivers, n);
  }

 private:
  static std::optional<std::uint32_t> index_of(const std::vector<NodeId>& group, NodeId n) {
    for (std::uint32_t i = 0; i < group.size(); ++i) {
      if (group[i] == n) return i;
    }
    return std::nullopt;
  }
};

constexpr Duration kWindowAnnounceInterval = 200 * kMillisecond;

/// Result of a receive(): either a delivered message or a TooOld exception
/// carrying the new window start (paper Fig. 14). The message is a
/// refcounted Payload sharing the receiver's stored buffer — delivery
/// copies nothing; call message.to_bytes() for an owned copy.
struct RecvResult {
  bool too_old = false;
  Position window_start = 0;  // set when too_old
  Payload message;            // set otherwise
};

namespace irmc {

/// k+1-highest of the per-peer window requests, absent ones reading
/// `absent`. `buf` is reused across calls.
Position kth_highest(const std::vector<std::optional<Position>>& req, std::size_t k,
                     Position absent, std::vector<Position>& buf);

/// Whether content for position `p` may be stored while the window starts
/// at `lo`: the window plus one more window of slack for senders running
/// ahead, [lo, lo + 2 * capacity - 1].
constexpr bool storable(Position lo, Position p, Position capacity) {
  return p >= lo && p <= lo + 2 * capacity - 1;
}

/// One record of type W per subchannel, found by a single hash lookup, and
/// the records by ascending subchannel for timer loops.
template <typename W>
class Windows {
 public:
  /// The record for `sc`, built by `make` on first use.
  template <typename Make>
  W& get(Subchannel sc, Make make) {
    auto [it, added] = map_.try_emplace(sc);
    if (added) {
      it->second = make();
      auto at = std::upper_bound(order_.begin(), order_.end(), sc,
                                 [](Subchannel k, const auto& e) { return k < e.first; });
      order_.insert(at, {sc, it->second.get()});
    }
    return *it->second;
  }
  const W* find(Subchannel sc) const {
    auto it = map_.find(sc);
    return it == map_.end() ? nullptr : it->second.get();
  }
  const std::vector<std::pair<Subchannel, W*>>& ascending() const { return order_; }

 private:
  std::unordered_map<Subchannel, std::unique_ptr<W>> map_;
  std::vector<std::pair<Subchannel, W*>> order_;
};

/// Per-position state of one subchannel in `size` slots, slot p % size.
/// `Slot` has a position `p` and a clear() that keeps its buffers.
template <typename Slot>
class Ring {
 public:
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  /// The slot holding `p`, or nullptr.
  const Slot* find(Position p) const {
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[p % slots_.size()];
    return s.p == p ? &s : nullptr;
  }
  /// The slot for `p`, allocating `size` slots on first use; a slot that
  /// holds another (released) position is cleared first.
  Slot& claim(Position p, std::size_t size) {
    if (slots_.empty()) slots_.resize(size);
    Slot& s = slots_[p % slots_.size()];
    if (s.p != p) {
      s.clear();
      s.p = p;
    }
    return s;
  }
  /// Clears the slots of positions [from, to); none below `from` is held.
  void release(Position from, Position to) {
    for (Position q = from; q < to && q - from < slots_.size(); ++q) {
      Slot& s = slots_[q % slots_.size()];
      if (s.p == q) s.clear();
    }
  }

 private:
  std::vector<Slot> slots_;
};

}  // namespace irmc

/// Sender side of the window engine. The fr+1-highest of the receivers'
/// Move requests is the window start; a send inside [start, start +
/// capacity - 1] is handed to the variant's transmit(), one below it is
/// dropped as too old, one above it waits in position order.
class IrmcSenderEndpoint : public Component {
 public:
  /// (too_old, window_start): too_old=true means the message was discarded
  /// because the window had already advanced past the position.
  using SendCallback = std::function<void(bool too_old, Position window_start)>;

  ~IrmcSenderEndpoint() override;

  void send(Subchannel sc, Position p, Bytes m, SendCallback done = {});
  /// Ask the receiver side to move the subchannel window forward.
  void move_window(Subchannel sc, Position p);
  /// Current active-window lower bound (as agreed by fr+1 receivers).
  [[nodiscard]] Position window_start(Subchannel sc) const {
    const Window* w = windows_.find(sc);
    return w ? start(*w) : 1;
  }

  void on_message(NodeId from, Reader& r) final;

 protected:
  struct Queued {
    Position p;
    Bytes m;
    SendCallback cb;
  };
  /// One subchannel's window; a variant derives its record from it.
  struct Window {
    Window() = default;
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;
    virtual ~Window() = default;
    std::optional<Position> win;       // active window lower bound (absent: 1)
    std::optional<Position> own_move;  // dedup of our own Move broadcasts
    std::vector<std::optional<Position>> rwin;  // window requested per receiver
    std::vector<Queued> queued;        // sends above the window, by position
  };

  IrmcSenderEndpoint(ComponentHost& host, IrmcConfig cfg);

  /// The variant's subchannel record.
  [[nodiscard]] virtual std::unique_ptr<Window> new_window() const = 0;
  /// Ships content `m` for position `p`, which lies inside the window.
  virtual void transmit(Subchannel sc, Window& w, Position p, Bytes m) = 0;
  /// The window start moved from `old` to `lo`: drop what lies below it.
  virtual void release(Window& w, Position old, Position lo) = 0;
  /// Every inbound message but a receiver's Move (`frame` starts with its
  /// irmc::MsgType byte).
  virtual void on_content(NodeId from, BytesView frame) = 0;

  [[nodiscard]] static Position start(const Window& w) { return w.win.value_or(1); }
  /// The record for `sc`, created on first use.
  Window& window(Subchannel sc) { return windows_.get(sc, [this] { return new_window(); }); }

  const IrmcConfig cfg_;
  irmc::Windows<Window> windows_;

 private:
  void recompute_window(Subchannel sc, Window& w);
  void flush_queue(Subchannel sc, Window& w);
  void on_announce_timer();

  std::vector<Position> kth_buf_;
  EventQueue::EventId announce_timer_ = EventQueue::kInvalidEvent;
};

/// Receiver side of the window engine. The fs+1-highest of the senders'
/// Move requests forces the window start forward; content is stored within
/// the irmc::storable() horizon, and a position is delivered once fs+1
/// distinct senders vouched for the same content.
class IrmcReceiverEndpoint : public Component {
 public:
  using ReceiveCallback = std::function<void(RecvResult)>;

  void receive(Subchannel sc, Position p, ReceiveCallback cb);
  void move_window(Subchannel sc, Position p);
  [[nodiscard]] Position window_start(Subchannel sc) const {
    const Window* w = windows_.find(sc);
    return w ? start(*w) : 1;
  }

  void on_message(NodeId from, Reader& r) final;

  /// Invoked the first time traffic for an unknown subchannel arrives.
  /// Spider's agreement replicas use this to start per-client pull loops
  /// for dynamically appearing client subchannels.
  std::function<void(Subchannel)> on_new_subchannel;

 protected:
  struct Candidate {
    std::uint64_t digest;
    Payload payload;  // zero-copy slice of the first vouching frame
    std::vector<std::uint32_t> voters;  // sender indices that vouched
  };
  struct Slot {
    Position p = 0;
    std::vector<Candidate> candidates;  // by ascending digest
    bool ready = false;                 // fs+1 senders vouched
    Payload delivered;
    void clear() {
      candidates.clear();
      ready = false;
      delivered = {};
    }
  };
  struct Waiters {
    Position p;
    std::vector<ReceiveCallback> cbs;
  };
  /// One subchannel's window; a variant derives its record from it.
  struct Window {
    Window() = default;
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;
    virtual ~Window() = default;
    std::optional<Position> win;  // active window lower bound (absent: 1)
    std::vector<std::optional<Position>> smoves;  // window requested per sender
    irmc::Ring<Slot> ring;        // 2 * capacity slots
    std::vector<Waiters> pending;  // pending receive() calls, by position
    bool noticed = false;          // on_new_subchannel fired
  };

  /// `deliver_event` names the trace instant of a delivery.
  IrmcReceiverEndpoint(ComponentHost& host, IrmcConfig cfg, const char* deliver_event);

  /// The variant's subchannel record.
  [[nodiscard]] virtual std::unique_ptr<Window> new_window() const = 0;
  /// Every inbound message but a Move, from the sender with index `sender`
  /// (`frame` starts with its irmc::MsgType byte).
  virtual void on_content(NodeId from, std::uint32_t sender, BytesView frame) = 0;
  /// A receive() call was parked.
  virtual void parked() {}

  [[nodiscard]] static Position start(const Window& w) { return w.win.value_or(1); }
  /// The record for `sc`, created on first use.
  Window& window(Subchannel sc) { return windows_.get(sc, [this] { return new_window(); }); }
  /// window() for inbound traffic: fires on_new_subchannel the first time.
  Window& noticed_window(Subchannel sc);
  /// Records that the senders `voters` vouched for `payload` (digest prefix
  /// `digest`) at the storable position `p`; delivers on fs+1 voters.
  void vouch(Subchannel sc, Window& w, Position p, std::uint64_t digest, BytesView payload,
             std::span<const std::uint32_t> voters);

  const IrmcConfig cfg_;
  irmc::Windows<Window> windows_;

 private:
  void advance(Subchannel sc, Window& w, Position p);
  void deliver_if_vouched(Subchannel sc, Window& w, Slot& slot);

  const char* deliver_event_;
  std::vector<Position> kth_buf_;
};

enum class IrmcKind : std::uint8_t {
  ReceiverCollect,  // IRMC-RC: each sender forwards signed Sends directly
  SenderCollect,    // IRMC-SC: senders assemble certificates (collectors)
};

std::unique_ptr<IrmcSenderEndpoint> make_irmc_sender(IrmcKind kind, ComponentHost& host,
                                                     IrmcConfig cfg);
std::unique_ptr<IrmcReceiverEndpoint> make_irmc_receiver(IrmcKind kind, ComponentHost& host,
                                                         IrmcConfig cfg);

}  // namespace spider
