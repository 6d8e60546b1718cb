// Spider agreement replica (paper Fig. 17).
//
// Pulls client requests out of per-group request channels, feeds them into
// the consensus black box (PBFT), and pushes the totally ordered Execute
// stream into every execution group's commit channel. Implements the
// paper's global flow control: the agreement window (AG-WIN) advances only
// with stable agreement checkpoints, and a delivery is considered complete
// once ne - z commit channels accepted it, so up to z trailing execution
// groups cannot stall the system (§3.5). Also hosts the execution-replica
// registry and applies AddGroup / RemoveGroup commands (§3.6).
#pragma once

#include <deque>
#include <map>
#include <set>

#include "consensus/pbft_replica.hpp"
#include "irmc/irmc.hpp"
#include "spider/checkpointer.hpp"
#include "spider/execution_replica.hpp"
#include "spider/messages.hpp"

namespace spider {

struct AgreementConfig {
  NodeId self = kInvalidNode;  // explicit id (kInvalidNode = allocate)
  std::vector<NodeId> members;  // 3fa+1 agreement replicas
  std::uint32_t my_index = 0;
  std::uint32_t fa = 1;
  std::uint32_t fe = 1;                  // fe of execution groups (fr for commit channels)
  IrmcKind irmc_kind = IrmcKind::ReceiverCollect;
  std::uint64_t ka = 16;                 // agreement checkpoint interval (logical requests)
  std::uint64_t ag_win = 64;             // AG-WIN (>= ka; counts logical requests)
  std::uint64_t max_batch = 1;           // consensus requests per instance
  Duration batch_delay = 0;              // max wait for a batch to fill
  std::uint32_t z = 0;                   // trailing groups that may be skipped
  Position commit_capacity = 64;
  Position request_capacity = 2;
  Duration request_timeout = 2 * kSecond;
  Duration view_change_timeout = 4 * kSecond;
  NodeId admin = kInvalidNode;           // only this client may reconfigure
  std::vector<RegistryEntry> initial_groups;
  Duration progress_interval = 50 * kMillisecond;
  Duration collector_timeout = 300 * kMillisecond;
};

class AgreementReplica : public ComponentHost {
 public:
  AgreementReplica(World& world, Site site, AgreementConfig cfg);

  /// Crash-recovery bootstrap: actively fetch the group's latest stable
  /// agreement checkpoint instead of waiting for the next periodic one
  /// (which may never come if client traffic stopped).
  void recover();

  /// Applies a Byzantine flag set (FaultPlan via the system's
  /// set_byzantine): mute / mute_rx / equivocate drive the consensus
  /// engine, forge_checkpoints the agreement checkpointer; execution-role
  /// flags are ignored (agreement replicas never answer clients).
  void apply_byzantine(const ByzantineFlags& f);

  // Introspection ---------------------------------------------------------
  [[nodiscard]] SeqNr ordered_seq() const { return sn_; }
  [[nodiscard]] const RegistrySnapshot& registry() const { return registry_; }
  [[nodiscard]] PbftReplica& consensus() { return *pbft_; }
  [[nodiscard]] const Checkpointer& checkpointer() const { return *checkpointer_; }
  [[nodiscard]] std::size_t group_count() const { return channels_.size(); }

 private:
  struct Channel {
    RegistryEntry info;
    std::unique_ptr<IrmcReceiverEndpoint> request_rx;
    std::unique_ptr<IrmcSenderEndpoint> commit_tx;
  };
  void setup_channel(const RegistryEntry& info, bool backfill);
  void remove_channel(GroupId g);
  void start_pull(GroupId g, Subchannel c);
  void start_pull_again(GroupId g, Subchannel c);
  bool validate_request(BytesView wire) const;

  void on_deliver(SeqNr first, const std::vector<Bytes>& batch);
  void process_queue();
  void handle_ordered(SeqNr first, const std::vector<Bytes>& batch);
  void dispatch_execute(const ExecuteBatchMsg& canonical, bool count_completions);
  ExecuteBatchMsg derive_for(GroupId g, const ExecuteBatchMsg& canonical) const;
  void trim_hist();
  void apply_reconfig(const ReconfigCmd& cmd);
  void maybe_checkpoint();
  Bytes snapshot_state() const;
  void on_stable_checkpoint(SeqNr s, BytesView state);

  AgreementConfig cfg_;
  std::unique_ptr<PbftReplica> pbft_;
  std::unique_ptr<Checkpointer> checkpointer_;
  std::map<GroupId, Channel> channels_;
  RegistrySnapshot registry_;

  SeqNr sn_ = 0;
  SeqNr last_cp_ = 0;  // seq of the last checkpoint this replica generated
  SeqNr win_hi_ = 0;   // upper bound of the agreement window
  std::map<NodeId, std::uint64_t> t_;       // latest agreed counter per client
  std::map<NodeId, std::uint64_t> t_plus_;  // next expected counter per client
  /// Recent Execute batches covering the last |commit window| logical
  /// sequence numbers; front is always a batch boundary so commit-channel
  /// window moves stay aligned with batch positions. Each batch keeps its
  /// encoding, which snapshot_state() writes as-is: a batch is encoded once
  /// when ordered (or when adopted from a checkpoint), not every `ka`.
  struct HistEntry {
    ExecuteBatchMsg batch;
    Bytes encoded;  // batch.encode()
  };
  std::deque<HistEntry> hist_;
  std::set<std::pair<GroupId, Subchannel>> pulling_;

  std::deque<std::pair<SeqNr, std::vector<Bytes>>> deliver_queue_;
  bool processing_ = false;
};

}  // namespace spider
