#include "spider/execution_replica.hpp"

#include <set>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

namespace {
// Modeled CPU cost of executing one application operation.
constexpr Duration kExecCost = 8;
}  // namespace

ExecutionReplica::ExecutionReplica(World& world, Site site, ExecutionConfig cfg,
                                   std::unique_ptr<Application> app)
    : ComponentHost(world, cfg.self == kInvalidNode ? world.allocate_id() : cfg.self, site),
      cfg_(std::move(cfg)), app_(std::move(app)),
      checkpoints_(world.metrics().counter("exec_checkpoints_taken",
                                           {.node = id(), .role = "exec"})),
      catchups_(world.metrics().counter("exec_catchups", {.node = id(), .role = "exec"})),
      map_(cfg_.shard_map), shard_index_(cfg_.shard_index) {
  IrmcConfig req_cfg;
  req_cfg.senders = cfg_.members;
  req_cfg.receivers = cfg_.agreement;
  req_cfg.fs = cfg_.fe;
  req_cfg.fr = cfg_.fa;
  req_cfg.capacity = cfg_.request_capacity;
  req_cfg.channel_tag = request_channel_tag(cfg_.group);
  req_cfg.progress_interval = cfg_.progress_interval;
  req_cfg.collector_timeout = cfg_.collector_timeout;
  request_tx_ = make_irmc_sender(cfg_.irmc_kind, *this, req_cfg);

  IrmcConfig com_cfg;
  com_cfg.senders = cfg_.agreement;
  com_cfg.receivers = cfg_.members;
  com_cfg.fs = cfg_.fa;
  com_cfg.fr = cfg_.fe;
  com_cfg.capacity = cfg_.commit_capacity;
  com_cfg.channel_tag = commit_channel_tag(cfg_.group);
  com_cfg.progress_interval = cfg_.progress_interval;
  com_cfg.collector_timeout = cfg_.collector_timeout;
  commit_rx_ = make_irmc_receiver(cfg_.irmc_kind, *this, com_cfg);

  auto trusted = std::make_shared<std::set<NodeId>>(cfg_.members.begin(), cfg_.members.end());
  trusted_peers_ = trusted;
  checkpointer_ = std::make_unique<Checkpointer>(
      *this, tags::kCheckpoint, cfg_.members, cfg_.fe,
      [this](SeqNr s, BytesView state) { on_stable_checkpoint(s, state); },
      [trusted](NodeId n) { return trusted->count(n) > 0; });
  checkpointer_->snapshot_now = [this] {
    last_cp_ = std::max(last_cp_, sn_);
    return std::make_pair(sn_, snapshot_state());
  };

  request_next_execute();
}

void ExecutionReplica::apply_byzantine(const ByzantineFlags& f) {
  corrupt_replies = f.corrupt_replies;
  drop_forwarding = f.drop_forwarding;
  checkpointer_->forge_checkpoints = f.forge_checkpoints;
}

void ExecutionReplica::add_checkpoint_peers(const std::vector<NodeId>& peers) {
  checkpointer_->add_fetch_peers(peers);
  for (NodeId p : peers) trusted_peers_->insert(p);
}

void ExecutionReplica::on_message(NodeId from, BytesView data) {
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

void ExecutionReplica::handle_client(NodeId from, Reader& r) {
  std::optional<BytesView> body = open(from, tags::kClient, r.raw(r.remaining()),
                                      /*is_sig=*/false);
  if (!body) return;

  Reader br(*body);
  ClientFrame frame = ClientFrame::decode(br);
  const ClientRequest& req = frame.req;
  if (req.client != from) return;  // claimed identity must match the channel

  if (req.kind == OpKind::WeakRead) {
    // Fast path: answer from local state, no ordering (paper §3.3). Keys
    // this shard no longer owns get a versioned redirect instead of a
    // stale answer.
    if (!owns_keys(req.op)) {
      reply_to(from, req.counter, make_wrong_shard_reply(*map_), /*weak=*/true);
      return;
    }
    charge_app(kExecCost);
    if (auto* t = tracer()) {
      t->async(obs::Ph::kAsyncInstant, now(), id(),
               obs::request_id(req.client, req.counter, /*weak=*/true), "request",
               "weak-exec");
    }
    Bytes result = app_->execute_weak(req.op);
    reply_to(from, req.counter, result, /*weak=*/true);
    return;
  }

  std::uint64_t& last = t_[req.client];
  if (req.counter < last) return;  // superseded by a newer request
  if (req.counter == last) {
    // Retry of the latest request: serve the cached reply if we have it.
    auto uit = replies_.find(req.client);
    if (uit != replies_.end() && uit->second.counter == req.counter &&
        !uit->second.placeholder) {
      reply_to(from, req.counter, uit->second.result, /*weak=*/false);
      return;
    }
    // No reply yet: the request is still in flight, and our original
    // forward may have been lost before reaching fs+1 agreement receivers
    // (e.g. a partition cut the request channel right after we recorded
    // the counter). Fall through and re-drive the channel with the
    // identical Send — the receive side dedups, so the worst case is a
    // redundant transmission (reliable-link retransmission model).
  }

  if (!verify_statement(req.client, tags::kClient, req.encode(), frame.signature)) return;

  last = req.counter;
  if (drop_forwarding) return;  // Byzantine: silently refuse to forward
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncInstant, now(), id(),
             obs::request_id(req.client, req.counter), "request", "forward");
  }
  request_tx_->move_window(req.client, req.counter);
  request_tx_->send(req.client, req.counter,
                    RequestMsg{std::move(frame), cfg_.group}.encode(), {});
}

void ExecutionReplica::request_next_execute() {
  // Batches are stored at the position of their first sequence number, and
  // sn_ always rests on a batch boundary, so sn_ + 1 addresses the next
  // stored batch.
  commit_rx_->receive(0, sn_ + 1, [this](RecvResult res) {
    if (!res.too_old) {
      try {
        Reader r(res.message);
        ExecuteBatchMsg batch = ExecuteBatchMsg::decode(r);
        process_batch(batch);
      } catch (const SerdeError&) {
        // Channel contents are vouched for by fa+1 agreement replicas;
        // malformed content would indicate a local bug. Skip defensively.
        ++sn_;
      }
      request_next_execute();
      return;
    }
    if (sn_ + 1 >= res.window_start) {
      // Already caught up (e.g. a checkpoint applied before this fired).
      request_next_execute();
      return;
    }
    // We missed garbage-collected Executes: fetch an execution checkpoint
    // from our group or any other group (paper §3.4/3.5).
    waiting_checkpoint_ = true;
    checkpointer_->fetch_cp(res.window_start - 1);
  });
}

void ExecutionReplica::process_batch(const ExecuteBatchMsg& batch) {
  // Apply the whole batch atomically (in one event, checkpointing only at
  // the end), so a recovering replica never resumes mid-batch.
  for (const ExecuteMsg& x : batch.items) process_execute(x);
  if (cut_checkpoint_) {
    // A migration op executed in this batch: certify the cut/adopt
    // immediately so trailing or recovering replicas pick up the new map
    // and range state through ordinary checkpoint transfer.
    cut_checkpoint_ = false;
    last_cp_ = sn_;
    checkpoints_.inc();
    checkpointer_->gen_cp(sn_, snapshot_state());
    return;
  }
  maybe_checkpoint();
}

void ExecutionReplica::process_execute(const ExecuteMsg& x) {
  sn_ += 1;

  switch (x.kind) {
    case ExecuteKind::Full: {
      ReplyCacheEntry& e = replies_[x.client];
      if (e.counter >= x.counter) {
        // Duplicate/old: resend cached reply if this is our client.
        if (x.origin == cfg_.group && e.counter == x.counter && !e.placeholder) {
          reply_to(x.client, x.counter, e.result, false);
        }
        break;
      }
      charge_app(kExecCost);
      if (auto* t = tracer()) {
        t->async(obs::Ph::kAsyncInstant, now(), id(),
                 obs::request_id(x.client, x.counter), "request", "execute",
                 "seq", sn_);
      }
      // Ownership is decided at commit time — the op was ordered, but if a
      // migration committed first this shard must redirect, not execute,
      // so every replica attributes the key to the same owner.
      Bytes result;
      if (is_sys_op(x.op)) {
        result = execute_sys_op(x.client, x.op);
      } else if (!owns_keys(x.op)) {
        result = make_wrong_shard_reply(*map_);
      } else {
        try {
          result = x.op_kind == OpKind::StrongRead ? app_->execute_readonly(x.op)
                                                   : app_->execute(x.op);
        } catch (const SerdeError&) {
          // Applications decode an op fully before mutating, so a rejected
          // op left the state untouched; the rest of the batch still runs.
          result = rejected_op_reply();
        }
      }
      e.counter = x.counter;
      e.result = std::move(result);
      e.placeholder = false;
      if (x.origin == cfg_.group) reply_to(x.client, x.counter, e.result, false);
      break;
    }
    case ExecuteKind::Placeholder: {
      ReplyCacheEntry& e = replies_[x.client];
      if (x.counter > e.counter) {
        e.counter = x.counter;
        e.result.clear();
        e.placeholder = true;
      }
      break;
    }
    case ExecuteKind::Reconfig: {
      ReplyCacheEntry& e = replies_[x.client];
      if (x.counter > e.counter) {
        e.counter = x.counter;
        e.result = to_bytes(std::string("reconfig-ok"));
        e.placeholder = false;
        if (x.origin == cfg_.group) reply_to(x.client, x.counter, e.result, false);
      }
      break;
    }
    case ExecuteKind::Noop:
      break;
  }
}

bool ExecutionReplica::owns_keys(BytesView op) const {
  if (!map_) return true;
  for (const std::string& key : app_->op_keys(op)) {
    if (map_->shard_of(key) != shard_index_) return false;
  }
  return true;
}

Bytes ExecutionReplica::execute_sys_op(NodeId client, BytesView op) {
  if (client != cfg_.admin) return make_migrate_fail_reply();
  try {
    Reader r(op);
    const std::uint8_t code = r.u8();
    if (code == kSysOpMigrateOut) {
      MigrateOutCmd cmd = MigrateOutCmd::decode(r);
      r.expect_done();
      return migrate_out(cmd);
    }
    if (code == kSysOpMigrateIn) {
      MigrateInCmd cmd = MigrateInCmd::decode(r);
      r.expect_done();
      return migrate_in(cmd);
    }
  } catch (const SerdeError&) {
  }
  return make_migrate_fail_reply();
}

Bytes ExecutionReplica::migrate_out(const MigrateOutCmd& cmd) {
  if (!map_ || cmd.delta.base_version != map_->version()) return make_migrate_fail_reply();
  std::optional<ShardMap> next;
  try {
    next = map_->with_delta(cmd.delta);
  } catch (const std::invalid_argument&) {
    return make_migrate_fail_reply();
  }
  // Cut exactly the keys this shard owned under the old map but does not
  // own under the new one. data_ iteration order is deterministic, so fe+1
  // replicas produce byte-identical state and the reply quorum certifies it.
  Bytes state = app_->extract_keys([&](std::string_view key) {
    const std::uint64_t h = ShardMap::hash_key(key);
    return map_->shard_of_hash(h) == shard_index_ && next->shard_of_hash(h) != shard_index_;
  });
  map_ = std::move(next);
  cut_checkpoint_ = true;
  ++migrations_;
  return make_migrate_out_reply(map_->version(), state);
}

Bytes ExecutionReplica::migrate_in(const MigrateInCmd& cmd) {
  if (!map_ || cmd.delta.base_version != map_->version()) return make_migrate_fail_reply();
  std::optional<ShardMap> next;
  try {
    next = map_->with_delta(cmd.delta);
  } catch (const std::invalid_argument&) {
    return make_migrate_fail_reply();
  }
  try {
    app_->absorb_keys(cmd.state);
  } catch (const SerdeError&) {
    return make_migrate_fail_reply();
  }
  map_ = std::move(next);
  cut_checkpoint_ = true;
  ++migrations_;
  return make_migrate_in_reply(map_->version());
}

void ExecutionReplica::reply_to(NodeId client, std::uint64_t counter, BytesView result,
                                bool weak) {
  Bytes out = to_bytes(result);
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncInstant, now(), id(),
             obs::request_id(client, counter, weak), "request", "reply");
  }
  // Byzantine tampering, outvoted by fe+1 matching correct replies (fe+1
  // corruptors are the linearizability checker's canary).
  if (corrupt_replies) corrupt_reply_payload(out);
  ReplyMsg reply{counter, std::move(out), weak};
  // Weak (direct-path) replies are idempotent and client-retried, so they
  // ride the unordered datagram channel on the socket backend; ordered
  // replies stay on the reliable control channel.
  send_to(client, seal_mac(tags::kClient, client, reply.encode()),
          weak ? TrafficClass::kUnordered : TrafficClass::kOrdered);
}

void ExecutionReplica::maybe_checkpoint() {
  // `ke` counts logical requests; with batching sn_ may jump past an exact
  // multiple, so checkpoint whenever a full interval has elapsed. sn_ is a
  // batch boundary here, keeping checkpoints aligned with stored batches.
  if (sn_ < last_cp_ + cfg_.ke) return;
  last_cp_ = sn_;
  checkpoints_.inc();
  if (auto* t = tracer()) {
    t->instant(now(), id(), "checkpoint", "gen_cp", "seq", sn_);
  }
  checkpointer_->gen_cp(sn_, snapshot_state());
}

Bytes ExecutionReplica::snapshot_state() const {
  // Sized exactly up front, so the state is written into one allocation.
  Bytes app = app_->snapshot();
  // Resharding deployments append the enforced map so adopted checkpoints
  // carry ownership along with state. Absent map = absent section, which
  // keeps the original byte format for every existing deployment.
  Bytes map = map_ ? map_->encode() : Bytes{};
  std::size_t size = 4 + 4 + app.size() + (map_ ? 4 + 4 + map.size() : 0);
  for (const auto& [client, e] : replies_) size += 4 + 8 + 1 + 4 + e.result.size();

  Writer w(size);
  w.u32(static_cast<std::uint32_t>(replies_.size()));
  for (const auto& [client, e] : replies_) {
    w.u32(client);
    w.u64(e.counter);
    w.boolean(e.placeholder);
    w.bytes(e.result);
  }
  w.bytes(app);
  if (map_) {
    w.u32(shard_index_);
    w.bytes(map);
  }
  return std::move(w).take();
}

void ExecutionReplica::apply_state(SeqNr s, BytesView state) {
  // Decode every section before applying any, so a malformed checkpoint
  // leaves the replica as it was (restore() itself decodes before it
  // replaces the application state).
  Reader r(state);
  std::uint32_t n = r.u32();
  std::map<NodeId, ReplyCacheEntry> replies;
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeId client = r.u32();
    ReplyCacheEntry e;
    e.counter = r.u64();
    e.placeholder = r.boolean();
    e.result = r.bytes();
    replies[client] = std::move(e);
  }
  BytesView app_state = r.bytes_view();
  std::optional<ShardMap> map;
  std::uint32_t shard_index = shard_index_;
  if (r.remaining() > 0) {
    shard_index = r.u32();
    Reader tr(r.bytes_view());
    map = ShardMap::decode(tr);
    tr.expect_done();
  }
  app_->restore(app_state);
  if (map) {
    shard_index_ = shard_index;
    map_ = std::move(map);
  }
  replies_ = std::move(replies);
  sn_ = s;
  catchups_.inc();
  if (auto* t = tracer()) {
    t->instant(now(), id(), "checkpoint", "catchup", "seq", s);
  }
}

void ExecutionReplica::on_stable_checkpoint(SeqNr s, BytesView state) {
  commit_rx_->move_window(0, s + 1);  // allow garbage collection (L. 42-44)
  if (s > sn_) {
    try {
      apply_state(s, state);
    } catch (const SerdeError&) {
      return;  // defensive; see process_execute
    }
  }
  last_cp_ = std::max(last_cp_, s);
  if (waiting_checkpoint_) {
    waiting_checkpoint_ = false;
    request_next_execute();
  }
}

}  // namespace spider
