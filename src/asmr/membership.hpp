// Alg. 1's membership-change decisions, written once: proof-of-fraud
// intake, the fd trigger, the shrinking exclusion committee C′, the
// exclusion outcome, and the inclusion proposal and choice. Sans-IO: no
// sends, no clocks, no engines. The simulator replica (which zlb_mc
// explores) and the live TCP node each hold one Membership and keep
// only their own transport-side concerns around it: engines and hooks,
// payload codecs, freezing and resuming instances, broadcasts and epoch
// bookkeeping.
#pragma once

#include <optional>
#include <vector>

#include "consensus/committee.hpp"
#include "consensus/pof.hpp"
#include "consensus/sbc.hpp"

namespace zlb::asmr {

class Membership {
 public:
  Membership() = default;
  // Engines hold a pointer to C′: never copied or moved.
  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// Logs an accountable vote; a conflicting one queues its PoF.
  void observe(const consensus::SignedVote& vote);
  /// Gossiped PoFs (Alg. 1 lines 13-16): queues each verifiable one
  /// against a replica not yet proven deceitful.
  void intake(const std::vector<consensus::ProofOfFraud>& pofs,
              const crypto::SignatureScheme& scheme);
  /// Exclusion-proposal check: a non-empty set of verifiable PoFs, each
  /// against one of `members`. An accepted set is queued whole.
  bool accept_claim(const std::vector<consensus::ProofOfFraud>& pofs,
                    const std::vector<ReplicaId>& members,
                    const crypto::SignatureScheme& scheme);
  [[nodiscard]] bool has_pending() const { return !pending_pofs_.empty(); }
  struct Registered {
    std::vector<consensus::ProofOfFraud> fresh;  ///< new culprits: gossip
    bool cprime_shrank = false;  ///< recheck the running exclusion
  };
  /// Moves the queued PoFs into the store; while an exclusion runs, C′
  /// loses every proven culprit (Alg. 1 lines 23-27).
  Registered register_pending();

  /// The trigger: at least fd proven culprits inside `committee`.
  [[nodiscard]] bool proven_fd(const consensus::Committee& committee) const;
  /// Starts a change: C′ = `members` minus every proven culprit.
  void begin(const std::vector<ReplicaId>& members);
  /// The PoFs an exclusion proposal carries: only those against
  /// `members`. Earlier culprits stay stored (banned from inclusion),
  /// but a claim naming a non-member fails validation.
  [[nodiscard]] std::vector<consensus::ProofOfFraud> claim_pofs(
      const std::vector<ReplicaId>& members) const;
  /// Adopts the decided proposals' PoFs; cons-exclude becomes the proven
  /// culprits among `members`, in member order, and leaves C′. False
  /// when this change's exclusion was already decided.
  bool decide_exclusion(
      const std::vector<std::vector<consensus::ProofOfFraud>>& decided,
      const std::vector<ReplicaId>& members);

  /// A pool replica outside `committee` that was never excluded.
  [[nodiscard]] bool includable(ReplicaId id, const std::vector<ReplicaId>& pool,
                                const consensus::Committee& committee) const;
  /// pool.take(|cons-exclude|), offset by `me`'s slot in `committee` so
  /// proposals differ and choose() spreads the picks evenly.
  [[nodiscard]] std::vector<ReplicaId> inclusion_proposal(
      const std::vector<ReplicaId>& pool, const consensus::Committee& committee,
      ReplicaId me) const;
  /// The even `choose` (Alg. 1 line 44) over the decided candidate
  /// lists (undecodable ones skipped), banning `members` and everyone
  /// excluded; cons-exclude joins the excluded set and the change ends.
  /// nullopt when no change is running.
  std::optional<std::vector<ReplicaId>> decide_inclusion(
      const std::vector<consensus::SbcEngine::OutcomeEntry>& decided,
      const std::vector<ReplicaId>& members);
  /// Ends the running change without an outcome.
  void abort();
  /// A change decided elsewhere overtook ours; `excluded` is the
  /// cumulative exclusion list it carries.
  void adopt(const std::vector<ReplicaId>& excluded);

  [[nodiscard]] bool running() const { return membership_running_; }
  /// C′, the exclusion engine's live committee (address-stable).
  [[nodiscard]] const consensus::Committee& cprime() const {
    return exclusion_live_;
  }
  [[nodiscard]] const std::vector<ReplicaId>& cons_exclude() const {
    return cons_exclude_;
  }
  [[nodiscard]] const std::vector<ReplicaId>& excluded() const {
    return excluded_ids_;
  }
  [[nodiscard]] const consensus::PofStore& pofs() const { return pofs_; }
  /// For vote-log pruning of settled instances.
  [[nodiscard]] consensus::PofStore& pofs() { return pofs_; }
  void fingerprint(Writer& w) const;

 private:
  consensus::PofStore pofs_;
  std::vector<consensus::ProofOfFraud> pending_pofs_;
  bool membership_running_ = false;
  consensus::Committee exclusion_live_;  ///< C′, shrinks at runtime
  std::vector<ReplicaId> cons_exclude_;  ///< decided by the exclusion
  std::vector<ReplicaId> excluded_ids_;  ///< everyone excluded so far
};

}  // namespace zlb::asmr
