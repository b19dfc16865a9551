// Accountable Set Byzantine Consensus engine (§2.3): one instance of
// the superblock reduction — an all-to-all accountable reliable
// broadcast (Bracha, signed echo/ready) feeding one accountable binary
// consensus per proposer slot (DBFT/Polygraph rounds: BV-broadcast EST,
// AUX, decide when the AUX value set is {v} with v = r mod 2). The
// decided bitmask applied to the delivered proposals is the instance
// outcome.
//
// Accountability: every vote is signed; the owner observes every valid
// vote (PoF extraction), and decisions expose per-slot certificates
// (quorum of AUX votes) that travel in the confirmation phase. In
// accountable mode, ESTs of rounds > 1 model Polygraph's certificate
// piggybacking as extra wire bytes + verification units.
//
// Zero phase: the binary consensus of a slot whose proposal has not
// been delivered starts with input 0 once enough other slots are far
// enough along. Which "far enough" is a driver choice
// (Config::zero_phase_on_decided_ones):
//  - the default starts it once n-t slots have RBC-DELIVERED. The
//    simulator replica, the split-brain adversary, the baselines and
//    zlb_mc run this rule; the attack model and zlb_mc's pinned state
//    counts are built on it, so moving them is a protocol change of
//    its own.
//  - DBFT's rule (Red Belly/Polygraph) starts it once n-t slots have
//    DECIDED 1. The live TCP node runs this rule: there each proposer
//    opens an instance one network hop after the peer whose frame
//    opened it, so under the delivery rule the slowest proposer's
//    batch misses the trigger by milliseconds and is decided 0 in
//    about a quarter of the instances. Waiting for n-t decisions gives
//    its RBC the time of one binary-consensus round.
//
// Dynamic committees: vote thresholds are evaluated against a *live*
// committee that the exclusion consensus (Alg. 1) shrinks at runtime;
// `recheck()` re-evaluates every pending threshold after a shrink. The
// proposer-slot mapping is fixed at instance creation.
#pragma once

#include <functional>
#include <map>
#include <set>

#include "consensus/committee.hpp"
#include "consensus/pof.hpp"

namespace zlb::consensus {

class SbcEngine {
 public:
  struct Config {
    /// Membership-change generation this engine belongs to. Must match
    /// the instance key's epoch — a mismatch means the caller wired an
    /// engine across an epoch boundary, and the engine refuses all
    /// input (constructed stopped) rather than mixing memberships.
    std::uint32_t epoch = 0;
    bool accountable = true;
    /// Modelled wire bytes of one certificate vote piggybacked on
    /// round>1 ESTs (sig + metadata).
    std::uint32_t cert_vote_bytes = 130;
    /// Polygraph-style certified broadcast: EVERY vote carries its
    /// justification certificate (quorum x cert_vote_bytes on the wire,
    /// verification amortized by cert_unit_divisor thanks to caching).
    bool cert_on_all_votes = false;
    std::uint32_t cert_unit_divisor = 8;
    /// Stop processing a slot's binary consensus after this many rounds
    /// (memory guard; honest executions decide in <= 3 rounds, stragglers
    /// adopt certified decisions instead).
    std::uint32_t max_rounds = 64;
    /// FAULT INJECTION — model checker only (zlb_mc --inject-bug=quorum).
    /// Subtracted from the live quorum threshold, deliberately breaking
    /// the n-t intersection argument so the checker can demonstrate it
    /// finds the resulting agreement violation. Never set in production
    /// paths; the default is a correct engine.
    std::uint32_t mc_quorum_delta = 0;
    /// Record every outbound wire message (proposal + votes) so a live
    /// deployment can replay them for anti-entropy resync. The
    /// simulator's network is reliable, so it leaves this off; a lossy
    /// transport (TCP connection churn) needs the replay to keep the
    /// paper's liveness argument, which assumes reliable delivery.
    bool record_wire = false;
    /// Start the zero phase once live_quorum() slots DECIDED 1 (DBFT's
    /// rule) instead of once live_quorum() slots delivered. The live
    /// node sets it; the simulator keeps the delivery rule (see the
    /// header comment).
    bool zero_phase_on_decided_ones = false;
  };

  struct Hooks {
    /// Broadcast `data` to every slot-map member (including self).
    std::function<void(Bytes data, std::uint32_t verify_units,
                       std::uint64_t extra_wire)>
        broadcast;
    /// Payload validity check (kind-specific; may be null = accept).
    std::function<bool(BytesView payload)> validate;
    /// Fired once, when all slots decided and decided payloads delivered.
    std::function<void()> decided;
    /// Every valid accountable vote passes through here (PoF logging).
    std::function<void(const SignedVote&)> observe;
    /// Fired each time a slot's RBC delivers (observability: the
    /// lifecycle tracer timestamps the deliver phase). Purely passive —
    /// the engine's behavior and fingerprint are identical with or
    /// without it.
    std::function<void(std::uint32_t slot)> slot_delivered;
  };

  struct OutcomeEntry {
    std::uint32_t epoch = 0;  ///< epoch the deciding instance ran under
    std::uint32_t slot = 0;
    crypto::Hash32 digest{};
    Bytes payload;
    std::uint32_t tx_count = 0;
    std::uint64_t extra_wire = 0;
  };

  SbcEngine(InstanceKey key, std::vector<ReplicaId> slot_members,
            const Committee* live, ReplicaId me,
            crypto::SignatureScheme& scheme, Config config, Hooks hooks);

  /// Proposes `payload` in this replica's own slot. No-op if this
  /// replica is not a slot member or already proposed. `verify_units`
  /// models the signature-verification work each receiver performs on
  /// the batch (e.g. sharded transaction verification).
  void propose(Bytes payload, std::uint64_t extra_wire,
               std::uint32_t tx_count, std::uint32_t verify_units = 1);

  /// Handles a proposal whose envelope signature was already verified.
  void handle_proposal(const ProposalMsg& msg);
  /// Handles an echo/ready/est/aux vote (signature already verified).
  void handle_vote(const SignedVote& vote);

  /// Re-evaluates all thresholds after the live committee changed.
  void recheck();

  /// Γk.stop() — freezes the engine (Alg. 1 line 19).
  void stop() { stopped_ = true; }
  /// Alg. 1 line 49: un-freezes a stopped engine so it can finish under
  /// the (possibly shrunk) live committee. No-op on an epoch-mismatch
  /// engine, which is permanently dead.
  void resume() {
    if (config_.epoch == key_.epoch) stopped_ = false;
  }
  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] std::uint32_t epoch() const { return key_.epoch; }

  [[nodiscard]] bool has_decided() const { return instance_decided_; }
  [[nodiscard]] bool has_proposed() const { return proposed_; }
  [[nodiscard]] const std::vector<OutcomeEntry>& outcome() const {
    return outcome_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& bitmask() const {
    return bitmask_;
  }
  [[nodiscard]] const InstanceKey& key() const { return key_; }
  [[nodiscard]] std::size_t slot_count() const { return slot_members_.size(); }
  [[nodiscard]] std::size_t delivered_count() const { return delivered_; }
  /// Sum of the binary-consensus rounds each decided slot took
  /// (adopted decisions count 0) — the per-instance round-count
  /// observable; honest executions stay at slot_count() or barely
  /// above.
  [[nodiscard]] std::uint64_t total_rounds() const;

  /// Force-adopt a certified decision for a slot (straggler catch-up
  /// from a verified DecisionMsg). Does not emit votes.
  void adopt_slot_decision(std::uint32_t slot, std::uint8_t value,
                           const crypto::Hash32* digest_hint);

  /// Everything this engine ever broadcast, in emission order (empty
  /// unless config.record_wire). Signed and idempotent on receivers —
  /// first-vote-per-signer dedup — so a resync layer may resend any
  /// suffix of it at will.
  [[nodiscard]] const std::vector<Bytes>& wire_log() const {
    return wire_log_;
  }
  /// Every OTHER proposer's proposal this engine holds, re-encoded for
  /// the wire (each carries its proposer's signature, so forwarding is
  /// sound). A stalled peer may be missing exactly one of these — and
  /// when the proposer has since been excluded, nobody's own wire log
  /// can resend it; any honest holder can.
  [[nodiscard]] std::vector<Bytes> known_proposals() const;

  /// Introspection for tests and debugging.
  struct SlotDebug {
    std::uint32_t epoch = 0;
    bool delivered = false;
    bool started = false;
    bool decided = false;
    std::uint8_t decided_value = 0;
    std::uint32_t round = 0;
    /// Binary-consensus round the slot decided in (0 when adopted from
    /// a certificate rather than locally derived). The confirmation
    /// phase filters the AUX first-vote log by this round to assemble
    /// the slot's decision certificate.
    std::uint32_t decided_round = 0;
    std::size_t est0 = 0, est1 = 0, aux = 0;
    std::size_t echoes = 0, readies = 0, payloads = 0;
    bool echoed = false, readied = false;
  };
  [[nodiscard]] SlotDebug slot_debug(std::uint32_t slot) const;

  /// Serializes every protocol-relevant field into `w`, canonically
  /// (all internal containers are ordered). Two engines with equal
  /// fingerprints behave identically under identical future inputs —
  /// this is the model checker's visited-state key.
  void fingerprint(Writer& w) const;

 private:
  struct RoundState {
    std::array<bool, 2> est_sent{false, false};
    std::array<std::set<ReplicaId>, 2> est_votes;
    std::array<std::size_t, 2> est_counts{0, 0};  ///< in-live est voters
    std::array<bool, 2> bin_values{false, false};
    bool aux_sent = false;
    std::map<ReplicaId, std::uint8_t> aux_first;  ///< first AUX per signer
    std::array<std::size_t, 2> aux_counts{0, 0};  ///< in-live aux voters
  };

  struct SlotState {
    // RBC.
    std::map<crypto::Hash32, ProposalMsg> payloads;  ///< digest -> proposal
    bool echoed = false;
    bool readied = false;
    std::map<ReplicaId, crypto::Hash32> echo_first;
    std::map<ReplicaId, crypto::Hash32> ready_first;
    std::map<crypto::Hash32, std::size_t> echo_counts;   ///< in-live echoes
    std::map<crypto::Hash32, std::size_t> ready_counts;  ///< in-live readies
    bool delivered = false;
    crypto::Hash32 delivered_digest{};
    // Binary consensus.
    bool started = false;
    std::uint32_t round = 1;
    std::uint8_t est = 0;
    std::map<std::uint32_t, RoundState> rounds;
    bool decided = false;
    std::uint8_t decided_value = 0;
    std::uint32_t decided_round = 0;
  };

  [[nodiscard]] std::size_t live_quorum() const;
  [[nodiscard]] std::size_t live_amplify() const;
  [[nodiscard]] bool in_live(ReplicaId id) const;

  void broadcast_vote(VoteType type, std::uint32_t slot, std::uint32_t round,
                      Bytes value, std::uint64_t extra_wire = 0,
                      std::uint32_t extra_units = 0);
  void maybe_echo(std::uint32_t slot, const crypto::Hash32& digest);
  void maybe_ready(std::uint32_t slot);
  void maybe_deliver(std::uint32_t slot);
  void maybe_start_zero_phase();
  void start_bincon(std::uint32_t slot, std::uint8_t est);
  void send_est(std::uint32_t slot, std::uint32_t round, std::uint8_t value);
  void process_round(std::uint32_t slot);
  void decide_slot(std::uint32_t slot, std::uint8_t value,
                   std::uint32_t round);
  void check_instance_decided();
  void recheck_slot(std::uint32_t slot);
  void rebuild_counts(std::uint32_t slot);

  InstanceKey key_;
  std::vector<ReplicaId> slot_members_;  ///< fixed slot -> replica map
  Committee slot_committee_;             ///< committee over slot_members_
  const Committee* live_;                ///< dynamic committee (may be null)
  ReplicaId me_;
  crypto::SignatureScheme& scheme_;
  Config config_;
  Hooks hooks_;

  std::vector<SlotState> slots_;
  std::size_t delivered_ = 0;
  std::size_t decided_ones_ = 0;
  bool zero_phase_started_ = false;
  bool proposed_ = false;
  bool stopped_ = false;
  bool instance_decided_ = false;
  std::vector<OutcomeEntry> outcome_;
  std::vector<std::uint8_t> bitmask_;
  std::vector<Bytes> wire_log_;  ///< outbound messages (record_wire)
};

}  // namespace zlb::consensus
