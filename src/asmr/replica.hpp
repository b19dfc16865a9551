// The ASMR replica (§4.1): an infinite sequence of
//   ① accountable SBC on transaction batches,
//   ② a concurrent confirmation phase (decision announcements from more
//     than (δ+1/3)·n distinct replicas),
//   ③ an exclusion consensus over proofs of fraud with a committee that
//     shrinks at runtime (Alg. 1),
//   ④ an inclusion consensus over pool candidates with the even
//     `choose` selection, and
//   ⑤ reconciliation, which merges the decisions of a disagreement
//     through the Blockchain Manager.
// The same class runs the Red Belly baseline (accountability off) and
// the Polygraph baseline (accountability on, recovery off).
#pragma once

#include <memory>
#include <set>

#include "asmr/membership.hpp"
#include "asmr/payload.hpp"
#include "bm/block_manager.hpp"
#include "chain/mempool.hpp"
#include "consensus/sbc.hpp"
#include "sim/network.hpp"
#include "sync/checkpoint.hpp"

namespace zlb::asmr {

struct ReplicaConfig {
  /// Synthetic batch size per proposal (the paper uses 10,000).
  std::uint32_t batch_tx_count = 1000;
  std::uint32_t avg_tx_bytes = 400;
  /// Certificates + PoF machinery (off = Red Belly baseline).
  bool accountable = true;
  /// Membership change + reconciliation (off = Polygraph baseline).
  bool recovery = true;
  /// Confirmation phase ② (requires accountable).
  bool confirmation = true;
  /// Batches carry real blocks instead of synthetic refs.
  bool synthetic = true;
  /// Assumed deceitful ratio for the confirmation threshold (δ in §4.1.1).
  double assumed_delta = 5.0 / 9.0;
  /// Only votes for slots below this cap are logged for PoF extraction
  /// (simulator-memory bound; sim-time costs are unaffected).
  std::uint32_t log_slot_cap = 0xffffffffu;
  /// How many regular instances to run before going quiescent.
  std::uint64_t max_instances = 1;
  /// Modelled wire size of a certificate vote (sig + metadata).
  std::uint32_t cert_vote_bytes = 130;
  /// Polygraph-style certified broadcast on every vote (the baseline's
  /// RSA certificates; ZLB's optimization keeps them on round>1 ESTs).
  bool cert_on_all_votes = false;
  std::uint32_t max_rounds = 64;
  /// Distributed transaction verification: each transaction is checked
  /// by (tx_verify_quorums*t + 1) replicas. Red Belly uses t+1 (=1);
  /// ZLB's accountable verification needs 2t+1 (=2) so that fraud in
  /// the verification itself is attributable; 3 ~ every replica.
  std::uint32_t tx_verify_quorums = 2;
  /// Divisor for amortized verification of always-piggybacked
  /// certificates (cert_on_all_votes).
  std::uint32_t cert_unit_divisor = 8;
  /// Blocks a new replica downloads during catch-up (modelled).
  std::uint32_t catchup_blocks = 10;
  /// Functional mode (synthetic=false): snapshot the Blockchain-
  /// Manager state every this many decided regular instances
  /// (in-memory, deterministic). Catch-up then ships a real state
  /// snapshot instead of only a modelled download, so an included pool
  /// replica starts from the actual ledger. 0 = snapshot on demand at
  /// catch-up time.
  std::uint64_t checkpoint_interval = 0;
  /// Mempool capacity (0 = unbounded); submit() drops at the bound.
  std::size_t mempool_capacity = 0;
  /// FAULT INJECTION — model checker only (zlb_mc --inject-bug=epoch).
  /// Skips the Alg. 1 line 19 freeze of the pending regular instance
  /// when a membership change starts: the retired engine keeps
  /// counting stale votes and can commit under the old epoch after
  /// the inclusion decision bumps it, the exact class of bug the
  /// epoch-boundary invariant exists to catch. Never set outside
  /// zlb_mc.
  bool mc_resume_stale_engines = false;
  /// FAULT INJECTION — model checker only (zlb_mc --inject-bug=quorum).
  /// Forwarded into every engine's SbcEngine::Config::mc_quorum_delta.
  std::uint32_t mc_quorum_delta = 0;
};

struct ReplicaMetrics {
  std::uint64_t txs_decided = 0;
  std::uint64_t txs_confirmed = 0;
  std::uint64_t instances_decided = 0;
  SimTime first_decide_time = -1;
  SimTime last_decide_time = -1;
  SimTime detect_time = -1;    ///< fd distinct PoFs gathered
  SimTime exclude_time = -1;   ///< exclusion consensus decided
  SimTime include_time = -1;   ///< inclusion consensus decided
  SimTime activation_time = -1;  ///< standby replica finished catch-up
  std::uint32_t excluded_count = 0;
  std::uint32_t included_count = 0;
  std::uint64_t pof_count = 0;
  std::uint64_t conflicts_seen = 0;  ///< conflicting DecisionMsgs received
  /// Functional catch-up: a real state snapshot was installed at
  /// activation (and the watermark it covered).
  bool snapshot_installed = false;
  InstanceId snapshot_upto = 0;
};

/// Observability side-channel: propose / first-RBC-deliver sim
/// timestamps per regular instance. Kept outside DecisionRecord (whose
/// entries are created lazily at decide time and serialized into
/// fingerprint()) so that phase tracing can never perturb the model
/// checker's visited-state keys.
struct PhaseTimes {
  SimTime propose_time = -1;  ///< our proposal entered the RBC
  SimTime deliver_time = -1;  ///< first proposal slot RBC-delivered
};

/// Per-instance decision record (what the harness compares across
/// replicas to count disagreements, §5.2).
struct DecisionRecord {
  bool decided = false;
  SimTime decide_time = -1;
  std::vector<std::uint8_t> bitmask;
  std::vector<crypto::Hash32> digests;  ///< digest per 1-slot, slot order
  std::vector<std::uint32_t> one_slots;
  std::uint64_t tx_count = 0;
  bool confirmed = false;
  bool reconcile_sent = false;
  std::set<ReplicaId> confirmations;
  std::set<std::uint32_t> conflicted_slots;
  std::set<std::uint32_t> evidence_sent;
};

class Replica : public sim::Process {
 public:
  Replica(sim::Simulator& sim, sim::Network& net,
          crypto::SignatureScheme& scheme, ReplicaId id,
          std::vector<ReplicaId> committee, std::vector<ReplicaId> pool,
          ReplicaConfig config);

  /// Active committee member: starts Γ0.
  void start();
  /// Pool candidate: stays passive until a catch-up activates it.
  void start_standby();

  void on_message(ReplicaId from, BytesView data) override;

  /// Client API (functional mode): enqueue a signed transaction.
  void submit(const chain::Transaction& tx);

  [[nodiscard]] ReplicaId id() const { return me_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] const consensus::Committee& committee() const {
    return committee_;
  }
  [[nodiscard]] const ReplicaMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const consensus::PofStore& pofs() const {
    return membership_.pofs();
  }
  [[nodiscard]] bm::BlockManager& block_manager() { return bm_; }
  [[nodiscard]] const bm::BlockManager& block_manager() const { return bm_; }
  /// First regular instance not yet applied to the ledger (commit order
  /// is instance order; see parked_commit_count).
  [[nodiscard]] InstanceId commit_floor() const { return commit_floor_; }
  /// Out-of-order decisions parked behind an undecided gap.
  [[nodiscard]] std::size_t parked_commit_count() const {
    return parked_commits_.size();
  }
  [[nodiscard]] const sync::CheckpointManager* checkpoints() const {
    return checkpoints_ ? checkpoints_.get() : nullptr;
  }
  [[nodiscard]] const DecisionRecord* decision(std::uint32_t epoch,
                                               InstanceId index) const;
  [[nodiscard]] const std::vector<ReplicaId>& excluded() const {
    return membership_.excluded();
  }
  /// Debug/test access to a live engine (nullptr if absent).
  [[nodiscard]] const consensus::SbcEngine* engine(
      const consensus::InstanceKey& key) const {
    const auto it = engines_.find(key);
    return it == engines_.end() ? nullptr : it->second.get();
  }
  /// All decision records (model checker / harness introspection).
  [[nodiscard]] const std::map<consensus::InstanceKey, DecisionRecord>&
  records() const {
    return records_;
  }
  /// Phase timestamps for a regular instance (nullptr if never traced).
  [[nodiscard]] const PhaseTimes* phase_times(
      const consensus::InstanceKey& key) const {
    const auto it = phase_times_.find(key);
    return it == phase_times_.end() ? nullptr : &it->second;
  }
  /// Canonical serialization of all protocol-relevant replica state.
  /// Two replicas with equal fingerprints react identically to
  /// identical future inputs — the model checker's visited-state key.
  void fingerprint(Writer& w) const;

 private:
  using Engine = consensus::SbcEngine;
  using Key = consensus::InstanceKey;

  void start_instance(InstanceId k);
  Engine* get_or_create_engine(const Key& key);
  Engine* find_engine(const Key& key);
  void wire_and_propose(const Key& key, Engine& engine);
  /// `key` is taken by value: the caller is the engine's own decided
  /// hook, whose captured key dies if a handler below destroys the
  /// engine (confirmation-phase prune).
  void on_engine_decided(Key key);
  void on_regular_decided(const Key& key, Engine& engine);
  void on_exclusion_decided(const Key& key, Engine& engine);
  void on_inclusion_decided(const Key& key, Engine& engine);
  void dispatch(ReplicaId from, BytesView data, bool replaying);
  void buffer_msg(ReplicaId from, BytesView data);
  void replay_pending();
  void handle_decision_msg(const consensus::DecisionMsg& msg);
  void handle_evidence(const consensus::EvidenceMsg& msg);
  void handle_catchup(ReplicaId from, Reader& r);
  void observe_vote(const consensus::SignedVote& vote);
  void note_new_pofs();
  void maybe_start_membership();
  void send_catchup(ReplicaId to);
  void commit_outcome(const Key& key, Engine& engine);
  [[nodiscard]] std::size_t confirm_threshold() const;
  [[nodiscard]] std::uint32_t tx_verify_units(std::uint32_t tx_count) const;
  [[nodiscard]] std::uint64_t decision_cert_wire() const;

  sim::Simulator& sim_;
  sim::Network& net_;
  crypto::SignatureScheme& scheme_;
  ReplicaId me_;
  ReplicaConfig config_;

  bool active_ = false;
  std::uint32_t epoch_ = 0;
  consensus::Committee committee_;
  std::vector<ReplicaId> epoch_members_;  ///< snapshot for the current epoch
  std::vector<ReplicaId> pool_;

  std::map<Key, std::unique_ptr<Engine>> engines_;
  std::set<Key> tombstones_;  ///< pruned instances must never be re-run
  std::map<Key, DecisionRecord> records_;
  std::map<Key, PhaseTimes> phase_times_;  ///< never fingerprinted
  std::map<Key, std::vector<consensus::DecisionMsg>> others_;
  std::vector<std::pair<ReplicaId, Bytes>> pending_buffer_;
  bool in_replay_ = false;
  InstanceId next_index_ = 0;
  bool instance_running_ = false;

  Membership membership_;  ///< Alg. 1 state and decisions

  // Catch-up (standby -> active).
  std::map<crypto::Hash32, std::set<ReplicaId>> catchup_votes_;
  std::map<crypto::Hash32, InstanceId> catchup_index_;
  /// Best (highest-watermark) snapshot seen per catch-up digest, as
  /// (watermark, canonical bytes); installed at activation (functional
  /// mode). The watermark is cached so freshness comparisons do not
  /// re-decode the stored image on every arriving catch-up.
  std::map<crypto::Hash32, std::pair<InstanceId, Bytes>> catchup_snapshot_;

  chain::Mempool mempool_;
  bm::BlockManager bm_;
  /// First regular instance not yet applied to bm_. Commit order equals
  /// instance order on every replica: an out-of-order decision parks in
  /// parked_commits_ until the gap below it decides (the live node's
  /// commit pipeline enforces the same floor).
  InstanceId commit_floor_ = 0;
  std::map<InstanceId, std::vector<chain::Block>> parked_commits_;
  /// Functional mode: deterministic in-memory checkpoints serving the
  /// snapshot-based catch-up (src/sync).
  std::unique_ptr<sync::CheckpointManager> checkpoints_;
  ReplicaMetrics metrics_;
};

}  // namespace zlb::asmr
