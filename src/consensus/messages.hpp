// Wire format of the accountable consensus. Every protocol step is a
// signed vote; equivocation on the accountable vote kinds (RBC send /
// echo / ready and binary-consensus AUX) from the same (instance, slot,
// round) is exactly what a proof of fraud exhibits. EST amplification
// may legitimately relay both binary values (Bracha BV-broadcast), so
// EST equivocation is NOT punishable and never used for PoFs.
#pragma once

#include <map>
#include <optional>

#include "chain/block.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace zlb::consensus {

/// Which state machine an SBC instance drives (§4.1.1).
enum class InstanceKind : std::uint8_t {
  kRegular = 0,    ///< ① ASMR consensus on transaction batches
  kExclusion = 1,  ///< ③ exclusion consensus on PoF sets
  kInclusion = 2,  ///< ④ inclusion consensus on pool candidates
};

struct InstanceKey {
  std::uint32_t epoch = 0;  ///< membership-change generation
  InstanceKind kind = InstanceKind::kRegular;
  InstanceId index = 0;     ///< Γ_k within the epoch

  void encode(Writer& w) const {
    w.u32(epoch);
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(index);
  }
  [[nodiscard]] static InstanceKey decode(Reader& r) {
    InstanceKey k;
    k.epoch = r.u32();
    const std::uint8_t kind = r.u8();
    if (kind > 2) throw DecodeError("InstanceKey: bad kind");
    k.kind = static_cast<InstanceKind>(kind);
    k.index = r.u64();
    return k;
  }
  friend bool operator==(const InstanceKey& a, const InstanceKey& b) {
    return a.epoch == b.epoch && a.kind == b.kind && a.index == b.index;
  }
  friend bool operator<(const InstanceKey& a, const InstanceKey& b) {
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.index < b.index;
  }
};

struct InstanceKeyHasher {
  std::size_t operator()(const InstanceKey& k) const noexcept {
    return static_cast<std::size_t>(
        mix64((static_cast<std::uint64_t>(k.epoch) << 32) ^
              (static_cast<std::uint64_t>(k.kind) << 60) ^ k.index));
  }
};

/// Signed protocol steps.
enum class VoteType : std::uint8_t {
  kSend = 0,   ///< RBC proposal (value = payload digest)
  kEcho = 1,   ///< RBC echo (value = digest)
  kReady = 2,  ///< RBC ready (value = digest)
  kEst = 3,    ///< BV-broadcast estimate (value = bit; equivocation legal)
  kAux = 4,    ///< binary-consensus auxiliary vote (value = bit)
};

[[nodiscard]] const char* to_string(VoteType t);

/// Is equivocation on this vote type proof of fraud?
[[nodiscard]] inline bool accountable(VoteType t) {
  return t != VoteType::kEst;
}

/// The signed body of a protocol step. `value` holds a 32-byte digest
/// for RBC votes and a single byte (0/1) for binary-consensus votes.
struct VoteBody {
  InstanceKey key;
  std::uint32_t slot = 0;
  std::uint32_t round = 0;  ///< 0 for RBC votes
  VoteType type = VoteType::kSend;
  Bytes value;

  void encode(Writer& w) const;
  [[nodiscard]] static VoteBody decode(Reader& r);
  [[nodiscard]] Bytes signing_bytes() const;
  friend bool operator==(const VoteBody& a, const VoteBody& b) {
    return a.key == b.key && a.slot == b.slot && a.round == b.round &&
           a.type == b.type && a.value == b.value;
  }
  /// Same signed step (ignoring the value) — the precondition for a PoF.
  [[nodiscard]] bool same_step(const VoteBody& o) const {
    return key == o.key && slot == o.slot && round == o.round &&
           type == o.type;
  }
};

struct SignedVote {
  ReplicaId signer = 0;
  VoteBody body;
  Bytes signature;

  void encode(Writer& w) const;
  [[nodiscard]] static SignedVote decode(Reader& r);
  friend bool operator==(const SignedVote& a, const SignedVote& b) {
    return a.signer == b.signer && a.body == b.body &&
           a.signature == b.signature;
  }
};

/// Top-level wire messages.
enum class MsgTag : std::uint8_t {
  kVote = 1,          ///< SignedVote (echo/ready/est/aux)
  kProposal = 2,      ///< SignedVote(kSend) + payload bytes
  kDecision = 3,      ///< confirmation-phase decision announcement
  kEvidence = 4,      ///< per-slot vote log for conflict resolution
  kPofGossip = 5,     ///< proofs of fraud
  kCatchupReq = 6,
  kCatchupResp = 7,
  kReconcile = 8,     ///< decided blocks pushed after a conflict (merge)
  /// Live-deployment anti-entropy heartbeat: the sender's lowest
  /// undecided instance. Receivers replay their recorded wire for
  /// instances the sender is still missing (net/live_node.cpp) —
  /// the resend path that makes the lossy TCP transport live up to
  /// the reliable-delivery assumption of the liveness proof.
  kResyncStatus = 9,
  /// Chunked checkpoint transfer (src/sync): a replica whose floor is
  /// below a peer's checkpoint watermark is offered a signed snapshot
  /// manifest, pulls the image chunk by chunk, verifies each chunk's
  /// merkle path against the signed root, installs the state and only
  /// wire-replays the post-checkpoint tail. Bodies in sync/frames.hpp.
  kSnapshotManifest = 10,
  kSnapshotChunkReq = 11,
  kSnapshotChunk = 12,
  /// Live membership change (Alg. 1 lines 45-47): veterans of a decided
  /// exclusion+inclusion announce the new epoch to the admitted standby
  /// replicas (and to straggling veterans reporting a stale epoch). A
  /// standby activates after t+1 matching announcements.
  kEpochAnnounce = 13,
};

/// Proposal = RBC send vote + the batch payload it commits to.
struct ProposalMsg {
  SignedVote vote;           ///< type kSend; value = sha256(payload)
  Bytes payload;             ///< serialized proposal content
  std::uint64_t extra_wire = 0;  ///< bulk bytes modelled but not carried
  std::uint32_t tx_count = 0;

  void encode(Writer& w) const;
  [[nodiscard]] static ProposalMsg decode(Reader& r);
};

/// One slot's decision certificate: quorum of AUX votes for (round, value).
struct SlotCert {
  std::uint32_t slot = 0;
  std::uint32_t round = 0;
  std::uint8_t value = 0;
  std::vector<SignedVote> votes;

  void encode(Writer& w) const;
  [[nodiscard]] static SlotCert decode(Reader& r);
};

/// Confirmation-phase announcement of a full-instance decision (§4.1.1 ②).
struct DecisionMsg {
  ReplicaId sender = 0;
  InstanceKey key;
  std::vector<std::uint8_t> bitmask;        ///< one byte per slot
  std::vector<crypto::Hash32> digests;       ///< digests of decided slots
  std::vector<SlotCert> certs;               ///< per-slot justification
  Bytes signature;                           ///< sender over the summary

  [[nodiscard]] Bytes summary_bytes() const;
  [[nodiscard]] crypto::Hash32 decision_digest() const;
  /// Digest of each decided-1 slot: `digests` lists them in slot order.
  [[nodiscard]] std::map<std::uint32_t, crypto::Hash32> digest_by_slot() const;
  void encode(Writer& w) const;
  [[nodiscard]] static DecisionMsg decode(Reader& r);
};

/// Signed announcement of a completed membership change: the new epoch,
/// the regular-instance index it starts at (everything below stays in
/// earlier epochs), and the full new committee. Standby replicas adopt
/// it after t+1 matching copies from distinct signers — the same rule
/// the simulator's catch-up applies.
struct EpochAnnounceMsg {
  ReplicaId sender = 0;
  std::uint32_t epoch = 0;
  InstanceId start_index = 0;            ///< first regular index of `epoch`
  std::vector<ReplicaId> members;        ///< committee of `epoch`, sorted
  std::vector<ReplicaId> excluded;       ///< everyone excluded so far
  Bytes signature;

  [[nodiscard]] Bytes signing_bytes() const;
  /// Content digest (signer-independent): what t+1 copies must agree on.
  [[nodiscard]] crypto::Hash32 content_digest() const;
  void encode(Writer& w) const;
  [[nodiscard]] static EpochAnnounceMsg decode(Reader& r);
};

/// Vote log pushed when two decisions conflict on a slot.
struct EvidenceMsg {
  InstanceKey key;
  std::uint32_t slot = 0;
  std::vector<SignedVote> votes;

  void encode(Writer& w) const;
  [[nodiscard]] static EvidenceMsg decode(Reader& r);
};

/// Serialization helpers: tag + body.
[[nodiscard]] Bytes encode_vote_msg(const SignedVote& v);
[[nodiscard]] Bytes encode_proposal_msg(const ProposalMsg& p);
[[nodiscard]] Bytes encode_decision_msg(const DecisionMsg& d);
[[nodiscard]] Bytes encode_evidence_msg(const EvidenceMsg& e);
[[nodiscard]] Bytes encode_epoch_announce_msg(const EpochAnnounceMsg& m);

}  // namespace zlb::consensus
