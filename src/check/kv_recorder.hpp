// Glue between KV clients and the HistoryRecorder.
//
// Every client type in the repo (SpiderClient for Spider and the PBFT/HFT
// baselines, ShardedClient for sharded deployments) exposes the same
// write/strong_read/weak_read(Bytes op, OpCallback) surface, so one set of
// templates issues an operation and logs its invocation/response pair.
// The response is recorded from inside the client callback, i.e. with the
// completion timestamp the client observed.
#pragma once

#include "app/kvstore.hpp"
#include "check/history.hpp"

namespace spider {

template <class Client>
HistoryRecorder::OpId recorded_put(HistoryRecorder& h, Client& c, std::uint64_t client_id,
                                   const std::string& key, const std::string& value) {
  HistoryRecorder::OpId id = h.invoke(client_id, HistOp::Put, key, to_bytes(value));
  c.write(kv_put(key, to_bytes(value)), [&h, id](Bytes reply, Duration) {
    KvReply r = kv_decode_reply(reply);
    h.respond(id, r.ok, std::move(r.value));
  });
  return id;
}

template <class Client>
HistoryRecorder::OpId recorded_strong_get(HistoryRecorder& h, Client& c,
                                          std::uint64_t client_id, const std::string& key) {
  HistoryRecorder::OpId id = h.invoke(client_id, HistOp::StrongGet, key);
  c.strong_read(kv_get(key), [&h, id](Bytes reply, Duration) {
    KvReply r = kv_decode_reply(reply);
    h.respond(id, r.ok, std::move(r.value));
  });
  return id;
}

template <class Client>
HistoryRecorder::OpId recorded_weak_get(HistoryRecorder& h, Client& c,
                                        std::uint64_t client_id, const std::string& key) {
  HistoryRecorder::OpId id = h.invoke(client_id, HistOp::WeakGet, key);
  c.weak_read(kv_get(key), [&h, id](Bytes reply, Duration) {
    KvReply r = kv_decode_reply(reply);
    h.respond(id, r.ok, std::move(r.value));
  });
  return id;
}

// ---- routed variants (ShardedClient) ---------------------------------------
// Same recording, but through the *_routed entry points so the shard that
// served each op lands in the history (kShardUnattributed when the op failed
// before reaching one). Resharding tests audit these attributions against the
// map version in force at completion time.

template <class Client>
HistoryRecorder::OpId recorded_put_routed(HistoryRecorder& h, Client& c,
                                          std::uint64_t client_id, const std::string& key,
                                          const std::string& value) {
  HistoryRecorder::OpId id = h.invoke(client_id, HistOp::Put, key, to_bytes(value));
  c.write_routed(kv_put(key, to_bytes(value)),
                 [&h, id](Bytes reply, Duration, std::uint32_t shard) {
                   KvReply r = kv_decode_reply(reply);
                   h.attribute_shard(id, shard);
                   h.respond(id, r.ok, std::move(r.value));
                 });
  return id;
}

template <class Client>
HistoryRecorder::OpId recorded_strong_get_routed(HistoryRecorder& h, Client& c,
                                                 std::uint64_t client_id,
                                                 const std::string& key) {
  HistoryRecorder::OpId id = h.invoke(client_id, HistOp::StrongGet, key);
  c.strong_read_routed(kv_get(key), [&h, id](Bytes reply, Duration, std::uint32_t shard) {
    KvReply r = kv_decode_reply(reply);
    h.attribute_shard(id, shard);
    h.respond(id, r.ok, std::move(r.value));
  });
  return id;
}

template <class Client>
HistoryRecorder::OpId recorded_weak_get_routed(HistoryRecorder& h, Client& c,
                                               std::uint64_t client_id,
                                               const std::string& key) {
  HistoryRecorder::OpId id = h.invoke(client_id, HistOp::WeakGet, key);
  c.weak_read_routed(kv_get(key), [&h, id](Bytes reply, Duration, std::uint32_t shard) {
    KvReply r = kv_decode_reply(reply);
    h.attribute_shard(id, shard);
    h.respond(id, r.ok, std::move(r.value));
  });
  return id;
}

}  // namespace spider
