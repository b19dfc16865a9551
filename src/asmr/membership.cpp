#include "asmr/membership.hpp"

#include <algorithm>
#include <set>

#include "asmr/payload.hpp"

namespace zlb::asmr {

using consensus::ProofOfFraud;

namespace {
bool has(const std::vector<ReplicaId>& ids, ReplicaId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}
}  // namespace

void Membership::observe(const consensus::SignedVote& vote) {
  auto pof = pofs_.observe(vote);
  if (pof.has_value()) pending_pofs_.push_back(*pof);
}

void Membership::intake(const std::vector<ProofOfFraud>& pofs,
                        const crypto::SignatureScheme& scheme) {
  for (const auto& pof : pofs) {
    if (pofs_.is_culprit(pof.culprit())) continue;
    if (!consensus::verify_pof(pof, scheme)) continue;
    pending_pofs_.push_back(pof);
  }
}

bool Membership::accept_claim(const std::vector<ProofOfFraud>& pofs,
                              const std::vector<ReplicaId>& members,
                              const crypto::SignatureScheme& scheme) {
  if (pofs.empty()) return false;
  for (const auto& pof : pofs) {
    // Membership first: a claim naming an arbitrary id is refused
    // before the scheme is asked to check a signature under it.
    if (!has(members, pof.culprit())) return false;
    if (!consensus::verify_pof(pof, scheme)) return false;
  }
  // Deferred to the end of message handling (register_pending).
  pending_pofs_.insert(pending_pofs_.end(), pofs.begin(), pofs.end());
  return true;
}

Membership::Registered Membership::register_pending() {
  Registered out;
  // observe() already registered locally detected PoFs; add_pof is
  // idempotent and only reports culprits new to the store.
  for (const auto& pof : pending_pofs_) {
    if (pofs_.add_pof(pof)) out.fresh.push_back(pof);
  }
  pending_pofs_.clear();
  if (membership_running_) {
    // Alg. 1 lines 23-27: shrink C′ at runtime.
    std::vector<ReplicaId> to_remove;
    for (ReplicaId m : exclusion_live_.members()) {
      if (pofs_.is_culprit(m)) to_remove.push_back(m);
    }
    if (!to_remove.empty()) {
      exclusion_live_.remove(to_remove);
      out.cprime_shrank = true;
    }
  }
  return out;
}

bool Membership::proven_fd(const consensus::Committee& committee) const {
  std::size_t in_committee = 0;
  for (ReplicaId id : pofs_.culprits()) {
    if (committee.contains(id)) ++in_committee;
  }
  return in_committee >= committee.fd();
}

void Membership::begin(const std::vector<ReplicaId>& members) {
  membership_running_ = true;
  // Alg. 1 lines 20-22: C′ = C \ culprits.
  std::vector<ReplicaId> cprime;
  for (ReplicaId m : members) {
    if (!pofs_.is_culprit(m)) cprime.push_back(m);
  }
  exclusion_live_.reset(std::move(cprime));
}

std::vector<ProofOfFraud> Membership::claim_pofs(
    const std::vector<ReplicaId>& members) const {
  std::vector<ProofOfFraud> out;
  for (const auto& pof : pofs_.pofs()) {
    if (has(members, pof.culprit())) out.push_back(pof);
  }
  return out;
}

bool Membership::decide_exclusion(
    const std::vector<std::vector<ProofOfFraud>>& decided,
    const std::vector<ReplicaId>& members) {
  if (!cons_exclude_.empty()) return false;
  std::set<ReplicaId> culprits;
  for (const auto& pofs : decided) {
    for (const auto& pof : pofs) {
      pofs_.add_pof(pof);
      culprits.insert(pof.culprit());
    }
  }
  for (ReplicaId id : members) {
    if (culprits.count(id) != 0) cons_exclude_.push_back(id);
  }
  exclusion_live_.remove(cons_exclude_);
  return true;
}

bool Membership::includable(ReplicaId id, const std::vector<ReplicaId>& pool,
                            const consensus::Committee& committee) const {
  return has(pool, id) && !committee.contains(id) && !has(excluded_ids_, id);
}

std::vector<ReplicaId> Membership::inclusion_proposal(
    const std::vector<ReplicaId>& pool, const consensus::Committee& committee,
    ReplicaId me) const {
  std::vector<ReplicaId> candidates;
  for (ReplicaId id : pool) {
    if (includable(id, pool, committee)) candidates.push_back(id);
  }
  std::vector<ReplicaId> prop;
  if (candidates.empty()) return prop;
  const int my_slot = std::max(0, committee.slot_of(me));
  const std::size_t want = std::min(cons_exclude_.size(), candidates.size());
  const std::size_t start =
      (static_cast<std::size_t>(my_slot) * want) % candidates.size();
  for (std::size_t i = 0; i < want; ++i) {
    prop.push_back(candidates[(start + i) % candidates.size()]);
  }
  return prop;
}

std::optional<std::vector<ReplicaId>> Membership::decide_inclusion(
    const std::vector<consensus::SbcEngine::OutcomeEntry>& decided,
    const std::vector<ReplicaId>& members) {
  if (!membership_running_) return std::nullopt;
  std::vector<std::vector<ReplicaId>> proposals;
  for (const auto& entry : decided) {
    try {
      proposals.push_back(decode_replica_ids(
          BytesView(entry.payload.data(), entry.payload.size())));
    } catch (const DecodeError&) {
    }
  }
  std::unordered_set<ReplicaId> banned(members.begin(), members.end());
  banned.insert(excluded_ids_.begin(), excluded_ids_.end());
  auto chosen = choose_inclusion(cons_exclude_.size(), proposals, banned);
  excluded_ids_.insert(excluded_ids_.end(), cons_exclude_.begin(),
                       cons_exclude_.end());
  abort();
  return chosen;
}

void Membership::abort() {
  membership_running_ = false;
  cons_exclude_.clear();
}

void Membership::adopt(const std::vector<ReplicaId>& excluded) {
  const std::set<ReplicaId> unique(excluded.begin(), excluded.end());
  excluded_ids_.assign(unique.begin(), unique.end());
  abort();
}

void Membership::fingerprint(Writer& w) const {
  w.boolean(membership_running_);
  const auto ids = [&w](const std::vector<ReplicaId>& v) {
    w.varint(v.size());
    for (ReplicaId id : v) w.u32(id);
  };
  ids(excluded_ids_);
  ids(exclusion_live_.members());
  ids(cons_exclude_);
  pofs_.fingerprint(w);
  w.varint(pending_pofs_.size());
  for (const auto& pof : pending_pofs_) pof.encode(w);
}

}  // namespace zlb::asmr
