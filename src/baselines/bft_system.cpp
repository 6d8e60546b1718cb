#include "baselines/bft_system.hpp"

#include "sim/world.hpp"

namespace spider {

namespace {
constexpr Duration kExecCost = 8;
}  // namespace

BftReplica::BftReplica(World& world, NodeId self, Site site, std::uint32_t index,
                       const BftConfig& cfg, std::vector<NodeId> all,
                       std::unique_ptr<Application> app)
    : ComponentHost(world, self, site), f_(cfg.f),
      checkpoint_interval_(cfg.checkpoint_interval), app_(std::move(app)) {
  PbftConfig pc;
  pc.replicas = std::move(all);
  pc.my_index = index;
  pc.f = cfg.f;
  pc.weights = cfg.weights;
  pc.quorum_weight = cfg.quorum_weight;
  pc.request_timeout = cfg.request_timeout;
  pc.view_change_timeout = cfg.view_change_timeout;
  pc.max_batch = cfg.max_batch;
  pc.batch_delay = cfg.batch_delay;
  pbft_ = std::make_unique<PbftReplica>(
      *this, pc,
      PbftReplica::BatchDeliverFn(
          [this](SeqNr first, const std::vector<Bytes>& batch) { on_deliver_batch(first, batch); }));
  // A-Validity: only order authenticated client requests.
  pbft_->validate = [this](BytesView wire) {
    try {
      Reader r(wire);
      ClientFrame frame = ClientFrame::decode(r);
      if (frame.req.kind == OpKind::WeakRead) return false;
      return verify_statement(frame.req.client, tags::kClient, frame.req.encode(),
                              frame.signature);
    } catch (const SerdeError&) {
      return false;
    }
  };

  checkpointer_ = std::make_unique<Checkpointer>(
      *this, tags::kCheckpoint, pc.replicas, cfg.f,
      [this](SeqNr s, BytesView state) { on_stable_checkpoint(s, state); });
  checkpointer_->snapshot_now = [this] {
    last_cp_ = std::max(last_cp_, sn_);
    return std::make_pair(sn_, snapshot_state());
  };
}

void BftReplica::on_message(NodeId from, BytesView data) {
  try {
    Reader r(data);
    std::uint32_t tag = r.u32();
    if (tag == tags::kClient) {
      handle_client(from, r);
      return;
    }
  } catch (const SerdeError&) {
    return;
  }
  ComponentHost::on_message(from, data);
}

void BftReplica::handle_client(NodeId from, Reader& r) {
  std::optional<BytesView> body = open(from, tags::kClient, r.raw(r.remaining()),
                                      /*is_sig=*/false);
  if (!body) return;

  Reader br(*body);
  ClientFrame frame = ClientFrame::decode(br);
  const ClientRequest& req = frame.req;
  if (req.client != from) return;

  if (req.kind == OpKind::WeakRead || req.kind == OpKind::StrongRead) {
    // PBFT optimized reads: answer directly from local state. Weak reads
    // need f+1 matching replies, strong reads 2f+1 (both requiring a WAN
    // quorum in this architecture — the point of paper Figure 8).
    charge(kExecCost);
    Bytes result = app_->execute_weak(req.op);
    reply_to(from, req.counter, result, true);
    return;
  }

  std::uint64_t& last = t_[req.client];
  if (req.counter <= last) {
    auto uit = replies_.find(req.client);
    if (uit != replies_.end() && uit->second.counter == req.counter) {
      reply_to(from, req.counter, uit->second.result, false);
    }
    return;
  }
  // Signature is re-checked in the consensus validator; ordering the raw
  // frame keeps the proposal identical across replicas.
  pbft_->order(to_bytes(*body));
}

void BftReplica::on_deliver_batch(SeqNr first, const std::vector<Bytes>& batch) {
  if (first > sn_ + 1) {
    // Execution gap: the consensus floor jumped past instances we never
    // executed (a view change adopted peers' stable floor while this
    // replica trailed). Executing above the gap would silently diverge
    // from the group; hold the delivery back and recover the missing
    // prefix through a peer checkpoint instead.
    stash_[first] = batch;
    checkpointer_->fetch_cp(first - 1);
    return;
  }
  apply_batch(first, batch);
  drain_stash();
}

void BftReplica::apply_batch(SeqNr first, const std::vector<Bytes>& batch) {
  // Skip any head entries an adopted checkpoint already covers.
  const std::size_t skip = first <= sn_ ? static_cast<std::size_t>(sn_ + 1 - first) : 0;
  sn_ = std::max(sn_, first + static_cast<SeqNr>(batch.size()) - 1);
  for (std::size_t i = skip; i < batch.size(); ++i) execute_one(batch[i]);
  // `checkpoint_interval` counts logical requests; sn_ rests on a batch
  // boundary here, so checkpoints never land mid-batch.
  if (sn_ >= last_cp_ + checkpoint_interval_) {
    last_cp_ = sn_;
    checkpointer_->gen_cp(sn_, snapshot_state());
  }
}

void BftReplica::drain_stash() {
  while (!stash_.empty()) {
    auto it = stash_.begin();
    const SeqNr first = it->first;
    const SeqNr last = first + static_cast<SeqNr>(it->second.size()) - 1;
    if (last <= sn_) {
      stash_.erase(it);  // fully covered by an adopted checkpoint
      continue;
    }
    if (first > sn_ + 1) return;  // still gapped: wait for the checkpoint
    std::vector<Bytes> batch = std::move(it->second);
    stash_.erase(it);
    apply_batch(first, batch);
  }
}

void BftReplica::execute_one(const Bytes& request) {
  if (request.empty()) return;  // null request from a view change
  try {
    Reader r(request);
    ClientFrame frame = ClientFrame::decode(r);
    const ClientRequest& req = frame.req;
    std::uint64_t& last = t_[req.client];
    ReplyCacheEntry& e = replies_[req.client];
    if (req.counter <= e.counter) {
      if (req.counter == e.counter) reply_to(req.client, req.counter, e.result, false);
      return;
    }
    last = std::max(last, req.counter);
    charge(kExecCost);
    Bytes result;
    try {
      result = req.kind == OpKind::StrongRead ? app_->execute_readonly(req.op)
                                              : app_->execute(req.op);
    } catch (const SerdeError&) {
      // Applications decode an op fully before mutating, so a rejected op
      // left the state untouched.
      result = rejected_op_reply();
    }
    e.counter = req.counter;
    e.result = std::move(result);
    reply_to(req.client, req.counter, e.result, false);
  } catch (const SerdeError&) {
    return;
  }
}

void BftReplica::reply_to(NodeId client, std::uint64_t counter, BytesView result, bool weak) {
  Bytes out = to_bytes(result);
  if (corrupt_replies) corrupt_reply_payload(out);  // see sim/byzantine.hpp
  ReplyMsg reply{counter, std::move(out), weak};
  send_to(client, seal_mac(tags::kClient, client, reply.encode()));
}

Bytes BftReplica::snapshot_state() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(replies_.size()));
  for (const auto& [client, e] : replies_) {
    w.u32(client);
    w.u64(e.counter);
    w.bytes(e.result);
  }
  w.bytes(app_->snapshot());
  return std::move(w).take();
}

void BftReplica::on_stable_checkpoint(SeqNr s, BytesView state) {
  // Adopt BEFORE collecting garbage: gc() advances the floor and delivers
  // committed instances above it synchronously, so checking `s > sn_`
  // afterwards would see the post-gap sequence number and skip the
  // adoption — permanently losing the executions this replica missed
  // below s (state divergence).
  last_cp_ = std::max(last_cp_, s);
  if (s > sn_) {
    try {
      Reader r(state);
      std::uint32_t n = r.u32();
      std::map<NodeId, ReplyCacheEntry> replies;
      for (std::uint32_t i = 0; i < n; ++i) {
        NodeId c = r.u32();
        ReplyCacheEntry e;
        e.counter = r.u64();
        e.result = r.bytes();
        replies[c] = std::move(e);
      }
      app_->restore(r.bytes_view());
      replies_ = std::move(replies);
      for (const auto& [c, e] : replies_) t_[c] = std::max(t_[c], e.counter);
      sn_ = s;
      // Pending requests the checkpoint proves already executed must stop
      // driving view changes (we missed their commit while partitioned or
      // down; nothing will ever deliver them here again).
      pbft_->drop_pending_if([this](BytesView wire) {
        try {
          Reader fr(wire);
          ClientFrame frame = ClientFrame::decode(fr);
          auto it = t_.find(frame.req.client);
          return it != t_.end() && frame.req.counter <= it->second;
        } catch (const SerdeError&) {
          return false;
        }
      });
    } catch (const SerdeError&) {
    }
  }
  pbft_->gc(s + 1);
  drain_stash();
}

void BftReplica::recover() { checkpointer_->fetch_cp(1); }

void BftReplica::apply_byzantine(const ByzantineFlags& f) {
  corrupt_replies = f.corrupt_replies;
  pbft_->mute = f.mute;
  pbft_->mute_rx = f.mute_rx;
  pbft_->equivocate = f.equivocate;
  checkpointer_->forge_checkpoints = f.forge_checkpoints;
}

BftSystem::BftSystem(World& world, BftConfig cfg) : world_(world), cfg_(std::move(cfg)) {
  for (std::size_t i = 0; i < cfg_.sites.size(); ++i) ids_.push_back(world_.allocate_id());
  for (std::size_t i = 0; i < cfg_.sites.size(); ++i) {
    replicas_.push_back(std::make_unique<BftReplica>(world_, ids_[i], cfg_.sites[i],
                                                     static_cast<std::uint32_t>(i), cfg_, ids_,
                                                     cfg_.make_app()));
  }
}

std::vector<NodeId> BftSystem::replica_ids() const { return ids_; }

bool BftSystem::crash_node(NodeId id) {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) {
      replicas_[i].reset();
      return true;
    }
  }
  return false;
}

bool BftSystem::restart_node(NodeId id) {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) {
      if (!replicas_[i]) {
        replicas_[i] = std::make_unique<BftReplica>(world_, ids_[i], cfg_.sites[i],
                                                    static_cast<std::uint32_t>(i), cfg_, ids_,
                                                    cfg_.make_app());
        auto bit = byz_flags_.find(id);
        if (bit != byz_flags_.end() && bit->second.any()) {
          replicas_[i]->apply_byzantine(bit->second);
        }
        replicas_[i]->recover();
      }
      return true;
    }
  }
  return false;
}

bool BftSystem::set_byzantine(NodeId id, const ByzantineFlags& flags) {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) {
      byz_flags_[id] = flags;
      if (replicas_[i]) replicas_[i]->apply_byzantine(flags);
      return true;
    }
  }
  return false;
}

bool BftSystem::is_crashed(NodeId id) const {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) return replicas_[i] == nullptr;
  }
  return false;
}

ClientGroupInfo BftSystem::client_info() const {
  return ClientGroupInfo{0, replica_ids(), cfg_.f, 2 * cfg_.f + 1};
}

std::unique_ptr<SpiderClient> BftSystem::make_client(Site site, Duration retry) {
  return std::make_unique<SpiderClient>(world_, site, client_info(), retry);
}

}  // namespace spider
