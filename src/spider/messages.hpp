// Spider protocol messages (paper Figures 15-17).
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/serde.hpp"
#include "sim/topology.hpp"

namespace spider {

/// Operation categories a client can issue (paper §3.3) plus reconfiguration
/// commands handled by the agreement group (paper §3.6).
enum class OpKind : std::uint8_t {
  Write = 1,       // ordered, executed by all groups
  StrongRead = 2,  // ordered, executed only by the client's group
  WeakRead = 3,    // unordered fast path, never enters the agreement
  Reconfig = 4,    // AddGroup / RemoveGroup admin command
};

/// The client-signed request core: <Write, w, c, tc>. The signature covers
/// exactly these bytes.
struct ClientRequest {
  OpKind kind = OpKind::Write;
  NodeId client = kInvalidNode;
  std::uint64_t counter = 0;  // tc
  Bytes op;                   // application operation (or reconfig command)

  Bytes encode() const;
  static ClientRequest decode(Reader& r);
};

/// Client -> execution group frame: request core + client signature
/// (writes / strong reads) and a per-replica MAC appended on the wire.
struct ClientFrame {
  ClientRequest req;
  Bytes signature;  // empty for weak reads

  Bytes encode() const;
  static ClientFrame decode(Reader& r);
};

/// <Request, r, e>: what execution replicas push into the request channel.
struct RequestMsg {
  ClientFrame frame;
  GroupId origin = 0;  // execution group the client is attached to

  Bytes encode() const;
  static RequestMsg decode(Reader& r);
};

/// What flows through the commit channel for one sequence number.
enum class ExecuteKind : std::uint8_t {
  Full = 1,         // full request: execute it
  Placeholder = 2,  // strong read executed elsewhere: only consume (c, tc)
  Noop = 3,         // null request decided during fault handling
  Reconfig = 4,     // registry change applied by the agreement group
};

struct ExecuteMsg {
  ExecuteKind kind = ExecuteKind::Noop;
  SeqNr seq = 0;
  GroupId origin = 0;         // group whose client issued the request
  NodeId client = kInvalidNode;
  std::uint64_t counter = 0;  // tc
  OpKind op_kind = OpKind::Write;
  Bytes op;                   // payload for Full

  Bytes encode() const;
  static ExecuteMsg decode(Reader& r);
};

/// Atomic unit flowing through a commit channel: every Execute decided by
/// one consensus instance, stored at the IRMC position of its first
/// sequence number. Execution replicas apply the whole batch in order
/// before answering clients or checkpointing, so positions — like the
/// flow-control windows above them — keep counting logical requests.
struct ExecuteBatchMsg {
  std::vector<ExecuteMsg> items;  // >= 1 entries with consecutive seqs

  [[nodiscard]] SeqNr first() const { return items.front().seq; }
  [[nodiscard]] SeqNr last() const { return items.back().seq; }
  [[nodiscard]] SeqNr size() const { return static_cast<SeqNr>(items.size()); }

  Bytes encode() const;
  static ExecuteBatchMsg decode(Reader& r);
};

/// Replica -> client reply <Reply, u, tc>, MAC'd per client.
struct ReplyMsg {
  std::uint64_t counter = 0;
  Bytes result;
  bool weak = false;  // weakly consistent fast-path reply

  Bytes encode() const;
  static ReplyMsg decode(Reader& r);
};

/// Result for an ordered op the application rejects as malformed. Every
/// correct replica rejects it the same way, so this fixed reply (the
/// status-byte framing's "failed", like other replica-made replies) still
/// reaches a matching quorum and the client's next op is not stuck behind it.
Bytes rejected_op_reply();

/// Reconfiguration commands (payload of OpKind::Reconfig).
struct ReconfigCmd {
  bool add = true;  // true = AddGroup, false = RemoveGroup
  GroupId group = 0;
  Region region = Region::Virginia;
  std::vector<NodeId> members;

  Bytes encode() const;
  static ReconfigCmd decode(Reader& r);
};

/// Execution-replica registry entry (paper §3.1): the agreement group's
/// record of the active execution groups, part of its checkpoint state.
struct RegistryEntry {
  GroupId group = 0;
  Region region = Region::Virginia;
  std::vector<NodeId> members;

  void encode_into(Writer& w) const;
  static RegistryEntry decode(Reader& r);
};

struct RegistrySnapshot {
  std::uint64_t version = 0;
  std::vector<RegistryEntry> groups;

  Bytes encode() const;
  static RegistrySnapshot decode(Reader& r);
};

}  // namespace spider
