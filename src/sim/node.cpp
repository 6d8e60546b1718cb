#include "sim/node.hpp"

#include "common/serde.hpp"
#include "crypto/provider.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

SimNode::SimNode(World& world, NodeId id, Site site) : world_(world), id_(id), site_(site) {
  world_.transport().attach(this);
}

SimNode::~SimNode() {
  *alive_ = false;
  world_.transport().detach(id_);
}

Time SimNode::now() const { return world_.queue().now(); }

obs::Tracer* SimNode::tracer() const { return world_.tracer(); }

CryptoProvider& SimNode::crypto() { return world_.crypto(); }

void SimNode::deliver(NodeId from, Payload data) {
  const CryptoCosts& c = crypto().costs();
  Duration base = c.proc_per_msg + c.proc_per_kb * static_cast<Duration>(data.size()) / 1024;
  enqueue_task(
      [this, from, msg = std::move(data)]() {
        struct Scope {
          SimNode* n;
          ~Scope() { n->current_msg_ = nullptr; }
        } scope{this};
        current_msg_ = &msg;
        on_message(from, msg.view());
      },
      base);
}

Sha256Digest SimNode::hash_cached(BytesView sub) const {
  if (current_msg_ && current_msg_->contains(sub)) return current_msg_->digest_of(sub);
  return Sha256::hash(sub);
}

Payload SimNode::seal_mac(std::uint32_t tag_word, NodeId to, BytesView body) {
  charge_mac();
  return mac_frame(tag_word, to, body);
}

Payload SimNode::mac_frame(std::uint32_t tag_word, NodeId to, BytesView body) {
  Writer w(4 + body.size() + crypto().mac_size());
  w.u32(tag_word);
  w.raw(body);
  const Bytes mac = crypto().mac(id_, to, w.data());
  w.raw(mac);
  return Payload(std::move(w));
}

Payload SimNode::seal_signed(std::uint32_t tag_word, BytesView body) {
  charge_sign();
  Writer w(4 + body.size() + crypto().signature_size());
  w.u32(tag_word);
  w.raw(body);
  const Bytes sig = crypto().sign(id_, w.data());
  w.raw(sig);
  return Payload(std::move(w));
}

std::optional<BytesView> SimNode::open(NodeId from, std::uint32_t tag_word, BytesView rest,
                                       bool is_sig) {
  const std::size_t auth_len = is_sig ? crypto().signature_size() : crypto().mac_size();
  if (rest.size() <= auth_len) return std::nullopt;
  const BytesView body = rest.first(rest.size() - auth_len);
  if (is_sig) {
    charge_verify();
  } else {
    charge_mac();
  }
  if (!check_auth_frame(from, tag_word, body, rest.subspan(body.size()), is_sig)) {
    return std::nullopt;
  }
  return body;
}

Bytes SimNode::sign_statement(std::uint32_t tag_word, BytesView statement) {
  charge_sign();
  return crypto().sign(id_, statement_bytes(tag_word, statement));
}

bool SimNode::verify_statement(NodeId signer, std::uint32_t tag_word, BytesView statement,
                               BytesView sig) {
  charge_verify();
  return verify_auth(signer, statement_bytes(tag_word, statement), sig, /*is_sig=*/true);
}

bool SimNode::check_auth_frame(NodeId from, std::uint32_t tag_word, BytesView body,
                               BytesView auth, bool is_sig) {
  // Fast path precondition: body/auth are the standard trailer split of the
  // inbound frame [u32 tag][body][auth]. The auth bytes [tag][body] are
  // then content-identical to the frame prefix, so verifying over the
  // prefix view produces the same verdict without rebuilding.
  const Payload* frame = current_msg_;
  if (frame != nullptr && frame->size() == 4 + body.size() + auth.size() &&
      body.data() == frame->data() + 4 && auth.data() == body.data() + body.size()) {
    return verify_auth(from, BytesView(frame->data(), 4 + body.size()), auth, is_sig);
  }
  return verify_auth(from, statement_bytes(tag_word, body), auth, is_sig);
}

Bytes SimNode::statement_bytes(std::uint32_t tag_word, BytesView body) {
  Writer w(4 + body.size());
  w.u32(tag_word);
  w.raw(body);
  return std::move(w).take();
}

bool SimNode::verify_auth(NodeId from, BytesView msg, BytesView auth, bool is_sig) {
  return is_sig ? crypto().verify(from, msg, auth) : crypto().verify_mac(from, id_, msg, auth);
}

void SimNode::enqueue_task(std::function<void()> logic, Duration base_cost) {
  task_queue_.push_back(Task{std::move(logic), base_cost});
  if (!drain_scheduled_) schedule_drain(std::max(now(), busy_until_));
}

void SimNode::schedule_drain(Time at) {
  drain_scheduled_ = true;
  world_.queue().schedule_at(at, [this, alive = alive_] {
    if (*alive) drain();
  });
}

void SimNode::drain() {
  drain_scheduled_ = false;
  if (task_queue_.empty()) return;
  if (now() < busy_until_) {
    // Work got charged outside a task since this drain was scheduled.
    schedule_drain(busy_until_);
    return;
  }
  Task t = std::move(task_queue_.front());
  task_queue_.pop_front();
  run_task(std::move(t.logic), t.base_cost);
  if (!task_queue_.empty()) schedule_drain(busy_until_);
}

void SimNode::run_task(std::function<void()> logic, Duration base_cost) {
  in_task_ = true;
  task_charge_ = base_cost;
  busy_cat_[static_cast<std::size_t>(CpuCat::kSerde)] += base_cost;
  logic();
  in_task_ = false;

  Time start = now();
  busy_until_ = start + task_charge_;
  busy_accum_ += task_charge_;

  // CPU slice for the trace: [start, start + task_charge_] is exactly the
  // modeled execution window of this task on the single-server CPU.
  if (obs::Tracer* t = world_.tracer(); t && task_charge_ > 0) {
    t->complete(start, task_charge_, id_, "cpu", "task");
  }

  // Outputs leave the node once the CPU work is done. A node destroyed
  // (crashed) before that point never got its messages onto the wire.
  if (!outbox_.empty()) {
    std::vector<Outgoing> out = std::move(outbox_);
    outbox_.clear();
    world_.queue().schedule_at(busy_until_, [this, alive = alive_, out = std::move(out)]() mutable {
      if (!*alive) return;
      for (Outgoing& o : out) world_.transport().send(id_, o.to, std::move(o.data), o.cls);
    });
  }
}

void SimNode::charge(Duration cost, CpuCat cat) {
  busy_cat_[static_cast<std::size_t>(cat)] += cost;
  if (in_task_) {
    task_charge_ += cost;
  } else {
    busy_until_ = std::max(busy_until_, now()) + cost;
    busy_accum_ += cost;
  }
}

void SimNode::charge_sign() { charge(crypto().costs().sign, CpuCat::kCrypto); }
void SimNode::charge_verify() { charge(crypto().costs().verify, CpuCat::kCrypto); }
void SimNode::charge_mac() { charge(crypto().costs().mac, CpuCat::kCrypto); }
void SimNode::charge_hash(std::size_t nbytes) {
  charge(crypto().costs().hash_per_kb * static_cast<Duration>(nbytes + 1023) / 1024,
         CpuCat::kCrypto);
}

void SimNode::send_to(NodeId to, Payload data, TrafficClass cls) {
  const CryptoCosts& c = crypto().costs();
  charge(c.proc_per_msg / 2 + c.proc_per_kb * static_cast<Duration>(data.size()) / 1024,
         CpuCat::kSerde);
  if (in_task_) {
    outbox_.push_back(Outgoing{to, std::move(data), cls});
  } else {
    world_.transport().send(id_, to, std::move(data), cls);
  }
}

EventQueue::EventId SimNode::set_timer(Duration delay, std::function<void()> fn) {
  return world_.queue().schedule_after(delay, [this, alive = alive_, fn = std::move(fn)]() {
    if (!*alive) return;
    enqueue_task(fn, crypto().costs().proc_per_msg / 2);
  });
}

void SimNode::cancel_timer(EventQueue::EventId id) { world_.queue().cancel(id); }

EventQueue::EventId SimNode::defer(Duration delay, std::function<void()> fn) {
  return world_.queue().schedule_after(delay, [alive = alive_, fn = std::move(fn)]() {
    if (*alive) fn();
  });
}

}  // namespace spider
