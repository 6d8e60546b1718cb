// Simulated process with a single-server CPU queue.
//
// Every inbound message or timer is handled as a CPU task: handling starts
// when the CPU is free, runs the component logic (which may charge crypto /
// processing costs via charge()), and outbound messages are released when
// the accumulated CPU work completes. This yields realistic queueing and
// lets benchmarks report CPU utilization (paper Figure 9c).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/payload.hpp"
#include "net/transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/topology.hpp"

namespace spider {

class World;
class CryptoProvider;
namespace obs {
class Tracer;
}

/// Modeled-CPU cost categories, for the per-replica breakdown the paper's
/// Figure 9c style plots need (crypto vs serde vs application work).
enum class CpuCat : std::uint8_t {
  kSerde = 0,   // message decode/encode + per-message/per-KB base costs
  kCrypto = 1,  // sign/verify/MAC/hash charges
  kApp = 2,     // application execution (state machine apply)
  kOther = 3,   // everything else charged explicitly
};
inline constexpr std::size_t kCpuCatCount = 4;

class SimNode : public TransportEndpoint {
 public:
  SimNode(World& world, NodeId id, Site site);
  ~SimNode() override;

  SimNode(const SimNode&) = delete;
  SimNode& operator=(const SimNode&) = delete;

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] Site site() const override { return site_; }
  World& world() { return world_; }
  [[nodiscard]] Time now() const;
  CryptoProvider& crypto();

  /// Protocol logic: called once per inbound message, on the CPU.
  virtual void on_message(NodeId from, BytesView data) = 0;

  /// Transport entry point (schedules CPU handling; do not call from logic).
  void deliver(NodeId from, Payload data) override;

  // ---- usable from within handlers ------------------------------------
  /// Adds CPU work to the current task (delays this task's outputs and all
  /// following tasks). `cat` attributes the cost for the per-category
  /// breakdown (busy_in()); timing is identical for every category.
  void charge(Duration cost, CpuCat cat = CpuCat::kOther);
  void charge_sign();
  void charge_verify();
  void charge_mac();
  void charge_hash(std::size_t nbytes);
  /// Application-work charge (state-machine execution).
  void charge_app(Duration cost) { charge(cost, CpuCat::kApp); }

  /// Queues a message; it leaves this node when the current task's CPU work
  /// is done (or immediately if called outside a task). The Payload form is
  /// zero-copy: a multicast that passes the same Payload per destination
  /// shares one serialized buffer end-to-end. `cls` picks the wire on the
  /// socket backend (UDP for kUnordered, framed TCP otherwise); the sim
  /// delivers both classes over the same reliable FIFO channel.
  void send_to(NodeId to, Payload data, TrafficClass cls = TrafficClass::kOrdered);
  void send_to(NodeId to, Bytes data, TrafficClass cls = TrafficClass::kOrdered) {
    send_to(to, Payload(std::move(data)), cls);
  }

  /// The wire message currently being handled (set while on_message runs;
  /// null inside timer tasks). Lets handlers reuse the inbound buffer's
  /// memoized digests via hash_cached().
  [[nodiscard]] const Payload* current_message() const { return current_msg_; }

  /// SHA-256 of `sub`, memoized on the inbound message buffer when `sub`
  /// points into it (the common case for nested wire views). Digests are
  /// bit-identical to Sha256::hash(sub); only wall-clock cost changes —
  /// call charge_hash() separately for the modeled CPU cost.
  [[nodiscard]] Sha256Digest hash_cached(BytesView sub) const;

  // ---- authenticated frames ---------------------------------------------
  // Every authenticated wire frame is [u32 tag][body][auth]. `auth` is a
  // signature by the sender or a (sender -> receiver) MAC, taken over the
  // frame's own prefix [tag][body]. A signed statement (a client request,
  // a checkpoint vote, an IRMC share, an HFT partial) is re-encoded by its
  // verifier and signed over the same [tag][statement] layout. These five
  // operations (plus the uncharged mac_frame below) are the only protocol
  // path to the crypto provider; each charges its one modeled crypto cost
  // before it computes.

  /// MAC seal: charges one MAC; returns [tag][body][mac(self -> to)] in one
  /// allocation.
  Payload seal_mac(std::uint32_t tag_word, NodeId to, BytesView body);
  /// Signed seal: charges one sign; returns [tag][body][sig(self)], one
  /// buffer a multicast shares across all recipients.
  Payload seal_signed(std::uint32_t tag_word, BytesView body);
  /// Open: `rest` is an inbound frame after its tag, [body][auth]. Returns
  /// the body when `auth` is `from`'s signature (is_sig) or its MAC to this
  /// node; nothing otherwise. A frame no longer than its trailer is dropped
  /// without a charge; any other pays one verify or MAC.
  std::optional<BytesView> open(NodeId from, std::uint32_t tag_word, BytesView rest,
                                bool is_sig);
  /// Signs the statement [tag][statement] (charges one sign).
  Bytes sign_statement(std::uint32_t tag_word, BytesView statement);
  /// Verifies `signer`'s signature over [tag][statement] (charges one verify).
  bool verify_statement(NodeId signer, std::uint32_t tag_word, BytesView statement,
                        BytesView sig);

  /// Retains `sub` beyond the current handler: a zero-copy slice of the
  /// inbound message when `sub` points into it, an owned copy otherwise.
  [[nodiscard]] Payload capture(BytesView sub) const {
    if (current_msg_ && current_msg_->contains(sub)) return current_msg_->slice_of(sub);
    return Payload(sub);
  }

  /// Timer: fires as a CPU task after `delay`. Returns a cancellable id.
  EventQueue::EventId set_timer(Duration delay, std::function<void()> fn);
  void cancel_timer(EventQueue::EventId id);

  /// Zero-cost deferral: like set_timer but models no CPU work (internal
  /// pipeline bookkeeping, not protocol handling). Still guarded by this
  /// node's liveness token, so it is safe across a crash (destruction).
  EventQueue::EventId defer(Duration delay, std::function<void()> fn);

  // ---- stats -----------------------------------------------------------
  [[nodiscard]] Duration busy_time() const { return busy_accum_; }
  /// Modeled CPU time attributed to one category; the four categories sum
  /// to busy_time().
  [[nodiscard]] Duration busy_in(CpuCat cat) const {
    return busy_cat_[static_cast<std::size_t>(cat)];
  }
  void reset_busy_time() {
    busy_accum_ = 0;
    for (Duration& d : busy_cat_) d = 0;
  }

  /// The world's tracer (nullptr when tracing is off — the null sink).
  [[nodiscard]] obs::Tracer* tracer() const;

 protected:
  /// The verdict behind open(), uncharged: a signature by `from` (is_sig)
  /// or a (from -> this) MAC over [u32 tag_word][body]. When `body`/`auth`
  /// are the standard trailer split of the message being handled it
  /// verifies zero-copy over the frame prefix; otherwise (detached bytes)
  /// it rebuilds [tag][body]. Both give the same verdict.
  bool check_auth_frame(NodeId from, std::uint32_t tag_word, BytesView body, BytesView auth,
                        bool is_sig);
  /// seal_mac() without the modeled MAC charge. Only the HFT baseline's
  /// replica-to-replica frames use it: that model never charged their
  /// sender-side MACs, and its figures are pinned to that cost model.
  Payload mac_frame(std::uint32_t tag_word, NodeId to, BytesView body);

 private:
  friend class SimNetwork;
  struct Task {
    std::function<void()> logic;
    Duration base_cost;
  };
  /// [u32 tag_word][body], the bytes a detached statement is signed over.
  static Bytes statement_bytes(std::uint32_t tag_word, BytesView body);
  bool verify_auth(NodeId from, BytesView msg, BytesView auth, bool is_sig);
  void run_task(std::function<void()> logic, Duration base_cost);
  void enqueue_task(std::function<void()> logic, Duration base_cost);
  void schedule_drain(Time at);
  void drain();

  World& world_;
  NodeId id_;
  Site site_;
  // Liveness token captured by every event this node schedules on the
  // world queue (drains, timers, outbox flushes). Destroying the node —
  // how a process *crash* is modeled — flips it, turning all still-pending
  // events into no-ops, so a replica can be torn down and later rebuilt
  // under the same NodeId without dangling callbacks.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Time busy_until_ = 0;
  Duration busy_accum_ = 0;
  Duration busy_cat_[kCpuCatCount] = {0, 0, 0, 0};

  // FIFO CPU queue with a single drain event (O(1) per task).
  std::deque<Task> task_queue_;
  bool drain_scheduled_ = false;

  // Set while a task executes.
  bool in_task_ = false;
  Duration task_charge_ = 0;
  const Payload* current_msg_ = nullptr;
  struct Outgoing {
    NodeId to;
    Payload data;
    TrafficClass cls;
  };
  std::vector<Outgoing> outbox_;
};

}  // namespace spider
