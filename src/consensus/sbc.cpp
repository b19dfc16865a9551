#include "consensus/sbc.hpp"

namespace zlb::consensus {

namespace {
Bytes bit_value(std::uint8_t b) {
  return Bytes{b};
}

crypto::Hash32 digest_of(BytesView payload) {
  return crypto::sha256(payload);
}
}  // namespace

SbcEngine::SbcEngine(InstanceKey key, std::vector<ReplicaId> slot_members,
                     const Committee* live, ReplicaId me,
                     crypto::SignatureScheme& scheme, Config config,
                     Hooks hooks)
    : key_(key),
      slot_members_(std::move(slot_members)),
      slot_committee_(slot_members_),
      live_(live),
      me_(me),
      scheme_(scheme),
      config_(config),
      hooks_(std::move(hooks)) {
  slots_.resize(slot_members_.size());
  // Epoch threading is explicit: the caller names the epoch twice (key
  // and config) and a disagreement means the engine was wired across a
  // membership boundary — refuse everything rather than mix epochs.
  if (config_.epoch != key_.epoch) stopped_ = true;
}

std::size_t SbcEngine::live_quorum() const {
  const std::size_t q =
      live_ != nullptr ? live_->quorum() : slot_committee_.quorum();
  // mc_quorum_delta is the model checker's injected safety bug: a
  // weakened quorum no longer guarantees intersection in an honest
  // member, which zlb_mc must detect as an agreement violation.
  const std::size_t delta = config_.mc_quorum_delta;
  return q > delta ? q - delta : 1;
}

std::size_t SbcEngine::live_amplify() const {
  return live_ != nullptr ? live_->amplify() : slot_committee_.amplify();
}

bool SbcEngine::in_live(ReplicaId id) const {
  return live_ != nullptr ? live_->contains(id)
                          : slot_committee_.contains(id);
}

void SbcEngine::broadcast_vote(VoteType type, std::uint32_t slot,
                               std::uint32_t round, Bytes value,
                               std::uint64_t extra_wire,
                               std::uint32_t extra_units) {
  if (config_.accountable && config_.cert_on_all_votes) {
    const auto q = static_cast<std::uint32_t>(live_quorum());
    extra_wire += static_cast<std::uint64_t>(q) * config_.cert_vote_bytes;
    extra_units += std::max<std::uint32_t>(1, q / config_.cert_unit_divisor);
  }
  SignedVote vote;
  vote.signer = me_;
  vote.body = VoteBody{key_, slot, round, type, std::move(value)};
  const Bytes sb = vote.body.signing_bytes();
  vote.signature = scheme_.sign(me_, BytesView(sb.data(), sb.size()));
  Bytes wire = encode_vote_msg(vote);
  if (config_.record_wire) wire_log_.push_back(wire);
  hooks_.broadcast(std::move(wire), 1 + extra_units, extra_wire);
}

void SbcEngine::propose(Bytes payload, std::uint64_t extra_wire,
                        std::uint32_t tx_count,
                        std::uint32_t verify_units) {
  if (stopped_ || proposed_) return;
  const int slot = slot_committee_.slot_of(me_);
  if (slot < 0) return;
  proposed_ = true;

  ProposalMsg msg;
  msg.vote.signer = me_;
  const crypto::Hash32 digest = digest_of(BytesView(payload.data(),
                                                    payload.size()));
  msg.vote.body =
      VoteBody{key_, static_cast<std::uint32_t>(slot), 0, VoteType::kSend,
               Bytes(digest.begin(), digest.end())};
  const Bytes sb = msg.vote.body.signing_bytes();
  msg.vote.signature = scheme_.sign(me_, BytesView(sb.data(), sb.size()));
  msg.payload = std::move(payload);
  msg.extra_wire = extra_wire;
  msg.tx_count = tx_count;
  // Receiver verifies the envelope plus (a share of) the batch content.
  Bytes wire = encode_proposal_msg(msg);
  if (config_.record_wire) wire_log_.push_back(wire);
  hooks_.broadcast(std::move(wire), verify_units, extra_wire);
}

void SbcEngine::handle_proposal(const ProposalMsg& msg) {
  if (stopped_) return;
  const VoteBody& body = msg.vote.body;
  if (!(body.key == key_) || body.type != VoteType::kSend) return;
  if (body.slot >= slots_.size()) return;
  // The proposer must own the slot it proposes in.
  if (slot_members_[body.slot] != msg.vote.signer) return;
  const crypto::Hash32 digest =
      digest_of(BytesView(msg.payload.data(), msg.payload.size()));
  if (body.value.size() != 32 ||
      !std::equal(digest.begin(), digest.end(), body.value.begin())) {
    return;  // digest mismatch: drop
  }
  if (hooks_.validate &&
      !hooks_.validate(BytesView(msg.payload.data(), msg.payload.size()))) {
    return;  // invalid payload: never echo it
  }
  if (hooks_.observe) hooks_.observe(msg.vote);

  SlotState& st = slots_[body.slot];
  st.payloads.emplace(digest, msg);
  maybe_echo(body.slot, digest);
  maybe_ready(body.slot);
  maybe_deliver(body.slot);
}

void SbcEngine::maybe_echo(std::uint32_t slot, const crypto::Hash32& digest) {
  SlotState& st = slots_[slot];
  if (st.echoed) return;
  st.echoed = true;
  broadcast_vote(VoteType::kEcho, slot, 0, Bytes(digest.begin(), digest.end()));
}

void SbcEngine::handle_vote(const SignedVote& vote) {
  if (stopped_) return;
  const VoteBody& body = vote.body;
  if (!(body.key == key_)) return;
  if (body.slot >= slots_.size()) return;
  if (!slot_committee_.contains(vote.signer)) return;
  if (hooks_.observe && accountable(body.type)) hooks_.observe(vote);

  SlotState& st = slots_[body.slot];
  switch (body.type) {
    case VoteType::kSend:
      return;  // proposals arrive via handle_proposal
    case VoteType::kEcho: {
      if (body.value.size() != 32) return;
      crypto::Hash32 d;
      std::copy(body.value.begin(), body.value.end(), d.begin());
      if (st.echo_first.emplace(vote.signer, d).second &&
          in_live(vote.signer)) {
        ++st.echo_counts[d];
      }
      maybe_ready(body.slot);
      break;
    }
    case VoteType::kReady: {
      if (body.value.size() != 32) return;
      crypto::Hash32 d;
      std::copy(body.value.begin(), body.value.end(), d.begin());
      if (st.ready_first.emplace(vote.signer, d).second &&
          in_live(vote.signer)) {
        ++st.ready_counts[d];
      }
      maybe_ready(body.slot);
      maybe_deliver(body.slot);
      break;
    }
    case VoteType::kEst: {
      if (body.value.size() != 1 || body.value[0] > 1) return;
      if (body.round == 0 || body.round > config_.max_rounds) return;
      RoundState& rs = st.rounds[body.round];
      if (rs.est_votes[body.value[0]].insert(vote.signer).second &&
          in_live(vote.signer)) {
        ++rs.est_counts[body.value[0]];
      }
      recheck_slot(body.slot);
      break;
    }
    case VoteType::kAux: {
      if (body.value.size() != 1 || body.value[0] > 1) return;
      if (body.round == 0 || body.round > config_.max_rounds) return;
      RoundState& rs = st.rounds[body.round];
      if (rs.aux_first.emplace(vote.signer, body.value[0]).second &&
          in_live(vote.signer)) {
        ++rs.aux_counts[body.value[0]];
      }
      recheck_slot(body.slot);
      break;
    }
  }
}

void SbcEngine::maybe_ready(std::uint32_t slot) {
  SlotState& st = slots_[slot];
  const auto& echo_counts = st.echo_counts;
  const auto& ready_counts = st.ready_counts;
  if (!st.readied) {
    for (const auto& [d, c] : echo_counts) {
      if (c >= live_quorum()) {
        st.readied = true;
        broadcast_vote(VoteType::kReady, slot, 0, Bytes(d.begin(), d.end()));
        return;
      }
    }
    // Ready amplification: t+1 readies for a digest.
    for (const auto& [d, c] : ready_counts) {
      if (c >= live_amplify()) {
        st.readied = true;
        broadcast_vote(VoteType::kReady, slot, 0, Bytes(d.begin(), d.end()));
        return;
      }
    }
  }
}

void SbcEngine::maybe_deliver(std::uint32_t slot) {
  SlotState& st = slots_[slot];
  if (st.delivered) return;
  for (const auto& [d, c] : st.ready_counts) {
    if (c >= live_quorum() && st.payloads.count(d) != 0) {
      st.delivered = true;
      st.delivered_digest = d;
      ++delivered_;
      if (hooks_.slot_delivered) hooks_.slot_delivered(slot);
      if (!st.started) start_bincon(slot, 1);
      maybe_start_zero_phase();
      check_instance_decided();
      return;
    }
  }
}

void SbcEngine::maybe_start_zero_phase() {
  if (zero_phase_started_) return;
  const std::size_t ready =
      config_.zero_phase_on_decided_ones ? decided_ones_ : delivered_;
  if (ready < live_quorum()) return;
  zero_phase_started_ = true;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].started) start_bincon(s, 0);
  }
}

void SbcEngine::start_bincon(std::uint32_t slot, std::uint8_t est) {
  SlotState& st = slots_[slot];
  if (st.started || st.decided) return;
  st.started = true;
  st.est = est;
  st.round = 1;
  send_est(slot, 1, est);
  recheck_slot(slot);
}

void SbcEngine::send_est(std::uint32_t slot, std::uint32_t round,
                         std::uint8_t value) {
  SlotState& st = slots_[slot];
  RoundState& rs = st.rounds[round];
  if (rs.est_sent[value]) return;
  rs.est_sent[value] = true;
  // Model Polygraph's certificate piggybacking: round>1 ESTs carry the
  // justification certificate (quorum of round r-1 votes).
  std::uint64_t extra_wire = 0;
  std::uint32_t extra_units = 0;
  if (config_.accountable && round > 1) {
    const auto q = static_cast<std::uint32_t>(live_quorum());
    extra_wire = static_cast<std::uint64_t>(q) * config_.cert_vote_bytes;
    extra_units = q;
  }
  broadcast_vote(VoteType::kEst, slot, round, bit_value(value), extra_wire,
                 extra_units);
}

void SbcEngine::recheck_slot(std::uint32_t slot) {
  SlotState& st = slots_[slot];
  if (st.decided) return;
  bool progressed = true;
  while (progressed && !st.decided) {
    progressed = false;
    const std::uint32_t r = st.round;
    if (r > config_.max_rounds) return;
    RoundState& rs = st.rounds[r];

    // BV-broadcast amplification + bin_values.
    for (std::uint8_t v = 0; v <= 1; ++v) {
      const std::size_t count = rs.est_counts[v];
      if (count >= live_amplify() && !rs.est_sent[v] && st.started) {
        send_est(slot, r, v);
      }
      if (count >= live_quorum() && !rs.bin_values[v]) {
        rs.bin_values[v] = true;
        progressed = true;
      }
    }
    // AUX once bin_values is non-empty.
    if ((rs.bin_values[0] || rs.bin_values[1]) && !rs.aux_sent &&
        st.started) {
      rs.aux_sent = true;
      const std::uint8_t w = rs.bin_values[1] ? 1 : 0;
      broadcast_vote(VoteType::kAux, slot, r, bit_value(w));
      progressed = true;
    }
    // Decision rule.
    const std::array<std::size_t, 2> aux_counts{
        rs.bin_values[0] ? rs.aux_counts[0] : 0,
        rs.bin_values[1] ? rs.aux_counts[1] : 0};
    const std::size_t q = live_quorum();
    const std::uint8_t parity = static_cast<std::uint8_t>(r % 2);
    std::optional<std::uint8_t> vals_single;
    bool vals_both = false;
    if (aux_counts[parity] >= q) {
      vals_single = parity;  // prefer the decidable value
    } else if (aux_counts[0] >= q && aux_counts[1] == 0) {
      vals_single = 0;
    } else if (aux_counts[1] >= q && aux_counts[0] == 0) {
      vals_single = 1;
    } else if (aux_counts[0] + aux_counts[1] >= q && aux_counts[0] > 0 &&
               aux_counts[1] > 0) {
      vals_both = true;
    } else if (aux_counts[0] >= q) {
      vals_single = 0;
    } else if (aux_counts[1] >= q) {
      vals_single = 1;
    }

    if (vals_single.has_value()) {
      if (*vals_single == parity) {
        decide_slot(slot, *vals_single, r);
        return;
      }
      st.est = *vals_single;
      st.round = r + 1;
      if (st.started) send_est(slot, st.round, st.est);
      progressed = true;
    } else if (vals_both) {
      st.est = parity;
      st.round = r + 1;
      if (st.started) send_est(slot, st.round, st.est);
      progressed = true;
    }
  }
}

void SbcEngine::decide_slot(std::uint32_t slot, std::uint8_t value,
                            std::uint32_t round) {
  SlotState& st = slots_[slot];
  if (st.decided) return;
  st.decided = true;
  st.decided_value = value;
  st.decided_round = round;
  if (value == 1) ++decided_ones_;
  // Help the stragglers terminate: a replica whose round-r AUX set was
  // mixed advances with est = v and decides v at round r+2 (parity) --
  // but only if the deciders keep voting. Emit our (single, consistent)
  // EST/AUX for the next two rounds before going quiet on this slot.
  if (st.started) {
    for (std::uint32_t r = round + 1;
         r <= round + 2 && r <= config_.max_rounds; ++r) {
      send_est(slot, r, value);
      RoundState& rs = st.rounds[r];
      if (!rs.aux_sent) {
        rs.aux_sent = true;
        broadcast_vote(VoteType::kAux, slot, r, bit_value(value));
      }
    }
  }
  if (config_.zero_phase_on_decided_ones) maybe_start_zero_phase();
  check_instance_decided();
}

void SbcEngine::adopt_slot_decision(std::uint32_t slot, std::uint8_t value,
                                    const crypto::Hash32* digest_hint) {
  if (slot >= slots_.size()) return;
  SlotState& st = slots_[slot];
  if (st.decided) return;
  st.decided = true;
  st.decided_value = value;
  st.decided_round = 0;  // adopted, not locally derived
  if (value == 1) ++decided_ones_;
  if (value == 1 && !st.delivered && digest_hint != nullptr &&
      st.payloads.count(*digest_hint) != 0) {
    st.delivered = true;
    st.delivered_digest = *digest_hint;
    ++delivered_;
    if (hooks_.slot_delivered) hooks_.slot_delivered(slot);
  }
  if (config_.zero_phase_on_decided_ones) maybe_start_zero_phase();
  check_instance_decided();
}

std::uint64_t SbcEngine::total_rounds() const {
  std::uint64_t total = 0;
  for (const SlotState& st : slots_) {
    if (st.decided) total += st.decided_round;
  }
  return total;
}

void SbcEngine::check_instance_decided() {
  if (instance_decided_ || stopped_) return;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    const SlotState& st = slots_[s];
    if (!st.decided) return;
    if (st.decided_value == 1 && !st.delivered) return;  // wait for payload
  }
  instance_decided_ = true;
  bitmask_.assign(slots_.size(), 0);
  outcome_.clear();
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    const SlotState& st = slots_[s];
    bitmask_[s] = st.decided_value;
    if (st.decided_value != 1) continue;
    OutcomeEntry entry;
    entry.epoch = key_.epoch;
    entry.slot = s;
    entry.digest = st.delivered_digest;
    const auto it = st.payloads.find(st.delivered_digest);
    if (it != st.payloads.end()) {
      entry.payload = it->second.payload;
      entry.tx_count = it->second.tx_count;
      entry.extra_wire = it->second.extra_wire;
    }
    outcome_.push_back(std::move(entry));
  }
  if (hooks_.decided) hooks_.decided();
}

std::vector<Bytes> SbcEngine::known_proposals() const {
  std::vector<Bytes> out;
  for (const SlotState& st : slots_) {
    for (const auto& [digest, msg] : st.payloads) {
      // Our own proposal is already in wire_log_ — resending it here
      // would double it on every replay.
      if (msg.vote.signer == me_) continue;
      out.push_back(encode_proposal_msg(msg));
    }
  }
  return out;
}

SbcEngine::SlotDebug SbcEngine::slot_debug(std::uint32_t slot) const {
  SlotDebug d;
  d.epoch = key_.epoch;
  if (slot >= slots_.size()) return d;
  const SlotState& st = slots_[slot];
  d.delivered = st.delivered;
  d.started = st.started;
  d.decided = st.decided;
  d.decided_value = st.decided_value;
  d.round = st.round;
  d.decided_round = st.decided_round;
  const auto rit = st.rounds.find(st.round);
  if (rit != st.rounds.end()) {
    d.est0 = rit->second.est_votes[0].size();
    d.est1 = rit->second.est_votes[1].size();
    d.aux = rit->second.aux_first.size();
  }
  d.echoes = st.echo_first.size();
  d.readies = st.ready_first.size();
  d.payloads = st.payloads.size();
  d.echoed = st.echoed;
  d.readied = st.readied;
  return d;
}

void SbcEngine::rebuild_counts(std::uint32_t slot) {
  SlotState& st = slots_[slot];
  st.echo_counts.clear();
  for (const auto& [signer, d] : st.echo_first) {
    if (in_live(signer)) ++st.echo_counts[d];
  }
  st.ready_counts.clear();
  for (const auto& [signer, d] : st.ready_first) {
    if (in_live(signer)) ++st.ready_counts[d];
  }
  for (auto& [round, rs] : st.rounds) {
    for (int v = 0; v <= 1; ++v) {
      rs.est_counts[static_cast<std::size_t>(v)] = 0;
      for (ReplicaId id : rs.est_votes[static_cast<std::size_t>(v)]) {
        if (in_live(id)) ++rs.est_counts[static_cast<std::size_t>(v)];
      }
    }
    rs.aux_counts = {0, 0};
    for (const auto& [signer, val] : rs.aux_first) {
      if (in_live(signer)) ++rs.aux_counts[val];
    }
  }
}

void SbcEngine::recheck() {
  if (stopped_) return;
  // The live committee changed: recompute every threshold counter, then
  // re-run the threshold checks (Alg. 1 line 27).
  for (std::uint32_t s = 0; s < slots_.size(); ++s) rebuild_counts(s);
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    maybe_ready(s);
    maybe_deliver(s);
    recheck_slot(s);
  }
  // The shrunk quorum may already be met by decisions taken before the
  // shrink, with no further decision left to fire the trigger.
  if (config_.zero_phase_on_decided_ones) maybe_start_zero_phase();
}

void SbcEngine::fingerprint(Writer& w) const {
  // Count-derived fields (echo_counts, est_counts, ...) are functions
  // of the first-vote maps and the live committee, so the first-vote
  // maps alone pin them; they are still included because they are
  // cheap and make fingerprint collisions across live-committee
  // changes impossible.
  key_.encode(w);
  w.u32(config_.epoch);
  w.boolean(stopped_);
  w.boolean(proposed_);
  w.boolean(zero_phase_started_);
  w.boolean(instance_decided_);
  w.varint(delivered_);
  w.bytes(BytesView(bitmask_.data(), bitmask_.size()));
  w.varint(outcome_.size());
  for (const OutcomeEntry& e : outcome_) {
    w.u32(e.epoch);
    w.u32(e.slot);
    w.raw(BytesView(e.digest.data(), e.digest.size()));
    w.u32(e.tx_count);
    w.varint(e.payload.size());
  }
  w.varint(slots_.size());
  for (const SlotState& st : slots_) {
    w.varint(st.payloads.size());
    for (const auto& [digest, msg] : st.payloads) {
      w.raw(BytesView(digest.data(), digest.size()));
      w.u32(msg.vote.signer);
    }
    w.boolean(st.echoed);
    w.boolean(st.readied);
    w.varint(st.echo_first.size());
    for (const auto& [signer, digest] : st.echo_first) {
      w.u32(signer);
      w.raw(BytesView(digest.data(), digest.size()));
    }
    w.varint(st.ready_first.size());
    for (const auto& [signer, digest] : st.ready_first) {
      w.u32(signer);
      w.raw(BytesView(digest.data(), digest.size()));
    }
    w.boolean(st.delivered);
    w.raw(BytesView(st.delivered_digest.data(), st.delivered_digest.size()));
    w.boolean(st.started);
    w.u32(st.round);
    w.u8(st.est);
    w.varint(st.rounds.size());
    for (const auto& [round, rs] : st.rounds) {
      w.u32(round);
      for (int v = 0; v <= 1; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        w.boolean(rs.est_sent[vi]);
        w.boolean(rs.bin_values[vi]);
        w.varint(rs.est_votes[vi].size());
        for (ReplicaId id : rs.est_votes[vi]) w.u32(id);
      }
      w.boolean(rs.aux_sent);
      w.varint(rs.aux_first.size());
      for (const auto& [signer, value] : rs.aux_first) {
        w.u32(signer);
        w.u8(value);
      }
    }
    w.boolean(st.decided);
    w.u8(st.decided_value);
    w.u32(st.decided_round);
  }
}

}  // namespace zlb::consensus
