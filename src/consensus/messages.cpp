#include "consensus/messages.hpp"

#include <functional>

namespace zlb::consensus {

const char* to_string(VoteType t) {
  switch (t) {
    case VoteType::kSend: return "send";
    case VoteType::kEcho: return "echo";
    case VoteType::kReady: return "ready";
    case VoteType::kEst: return "est";
    case VoteType::kAux: return "aux";
  }
  return "?";
}

void VoteBody::encode(Writer& w) const {
  key.encode(w);
  w.u32(slot);
  w.u32(round);
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(value);
}

VoteBody VoteBody::decode(Reader& r) {
  VoteBody b;
  b.key = InstanceKey::decode(r);
  b.slot = r.u32();
  b.round = r.u32();
  const std::uint8_t t = r.u8();
  if (t > 4) throw DecodeError("VoteBody: bad type");
  b.type = static_cast<VoteType>(t);
  b.value = r.bytes();
  if (b.value.size() > 32) throw DecodeError("VoteBody: oversized value");
  return b;
}

Bytes VoteBody::signing_bytes() const {
  Writer w;
  w.string("zlb-vote");
  encode(w);
  return w.take();
}

void SignedVote::encode(Writer& w) const {
  w.u32(signer);
  body.encode(w);
  w.bytes(signature);
}

SignedVote SignedVote::decode(Reader& r) {
  SignedVote v;
  v.signer = r.u32();
  v.body = VoteBody::decode(r);
  v.signature = r.bytes();
  if (v.signature.size() > 1024) throw DecodeError("SignedVote: huge sig");
  return v;
}

void ProposalMsg::encode(Writer& w) const {
  vote.encode(w);
  w.bytes(payload);
  w.u64(extra_wire);
  w.u32(tx_count);
}

ProposalMsg ProposalMsg::decode(Reader& r) {
  ProposalMsg p;
  p.vote = SignedVote::decode(r);
  p.payload = r.bytes();
  p.extra_wire = r.u64();
  p.tx_count = r.u32();
  return p;
}

void SlotCert::encode(Writer& w) const {
  w.u32(slot);
  w.u32(round);
  w.u8(value);
  w.varint(votes.size());
  for (const auto& v : votes) v.encode(w);
}

SlotCert SlotCert::decode(Reader& r) {
  SlotCert c;
  c.slot = r.u32();
  c.round = r.u32();
  c.value = r.u8();
  // A signed vote is at least 28 bytes on the wire.
  const std::uint64_t n = r.length_prefix(28, 4096);
  c.votes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) c.votes.push_back(SignedVote::decode(r));
  return c;
}

Bytes DecisionMsg::summary_bytes() const {
  Writer w;
  w.string("zlb-decision");
  w.u32(sender);
  key.encode(w);
  w.bytes(bitmask);
  w.varint(digests.size());
  for (const auto& d : digests) w.raw(BytesView(d.data(), d.size()));
  return w.take();
}

crypto::Hash32 DecisionMsg::decision_digest() const {
  Writer w;
  w.bytes(bitmask);
  for (const auto& d : digests) w.raw(BytesView(d.data(), d.size()));
  return crypto::sha256(BytesView(w.data().data(), w.data().size()));
}

std::map<std::uint32_t, crypto::Hash32> DecisionMsg::digest_by_slot() const {
  std::map<std::uint32_t, crypto::Hash32> out;
  std::size_t di = 0;
  for (std::uint32_t s = 0; s < bitmask.size() && di < digests.size(); ++s) {
    if (bitmask[s] == 1) out[s] = digests[di++];
  }
  return out;
}

void DecisionMsg::encode(Writer& w) const {
  w.u32(sender);
  key.encode(w);
  w.bytes(bitmask);
  w.varint(digests.size());
  for (const auto& d : digests) w.raw(BytesView(d.data(), d.size()));
  w.varint(certs.size());
  for (const auto& c : certs) c.encode(w);
  w.bytes(signature);
}

DecisionMsg DecisionMsg::decode(Reader& r) {
  DecisionMsg d;
  d.sender = r.u32();
  d.key = InstanceKey::decode(r);
  d.bitmask = r.bytes();
  const std::uint64_t nd = r.length_prefix(32, 4096);
  d.digests.reserve(nd);
  for (std::uint64_t i = 0; i < nd; ++i) {
    const Bytes raw = r.raw(32);
    crypto::Hash32 h;
    std::copy(raw.begin(), raw.end(), h.begin());
    d.digests.push_back(h);
  }
  // A cert is at least 13 bytes (slot + round + value + empty votes).
  const std::uint64_t nc = r.length_prefix(13, 4096);
  d.certs.reserve(nc);
  for (std::uint64_t i = 0; i < nc; ++i) d.certs.push_back(SlotCert::decode(r));
  d.signature = r.bytes();
  return d;
}

namespace {
/// The announce's signer-independent content, written once: every
/// serialization (wire, signing bytes, matching digest) goes through
/// here, so a future field cannot ride the wire outside the signature
/// or escape the t+1 content-match.
void write_announce_content(Writer& w, const EpochAnnounceMsg& m) {
  w.u32(m.epoch);
  w.u64(m.start_index);
  w.varint(m.members.size());
  for (ReplicaId id : m.members) w.u32(id);
  w.varint(m.excluded.size());
  for (ReplicaId id : m.excluded) w.u32(id);
}
}  // namespace

Bytes EpochAnnounceMsg::signing_bytes() const {
  Writer w;
  w.string("zlb-epoch-announce");
  w.u32(sender);
  write_announce_content(w, *this);
  return w.take();
}

crypto::Hash32 EpochAnnounceMsg::content_digest() const {
  Writer w;
  write_announce_content(w, *this);
  return crypto::sha256(BytesView(w.data().data(), w.data().size()));
}

void EpochAnnounceMsg::encode(Writer& w) const {
  w.u32(sender);
  write_announce_content(w, *this);
  w.bytes(signature);
}

EpochAnnounceMsg EpochAnnounceMsg::decode(Reader& r) {
  EpochAnnounceMsg m;
  m.sender = r.u32();
  m.epoch = r.u32();
  m.start_index = r.u64();
  const std::uint64_t nm = r.length_prefix(sizeof(std::uint32_t), 65536);
  if (nm == 0) throw DecodeError("EpochAnnounce: empty membership");
  m.members.reserve(nm);
  for (std::uint64_t i = 0; i < nm; ++i) m.members.push_back(r.u32());
  const std::uint64_t ne = r.length_prefix(sizeof(std::uint32_t), 65536);
  m.excluded.reserve(ne);
  for (std::uint64_t i = 0; i < ne; ++i) m.excluded.push_back(r.u32());
  m.signature = r.bytes();
  if (m.signature.size() > 1024) throw DecodeError("EpochAnnounce: huge sig");
  return m;
}

void EvidenceMsg::encode(Writer& w) const {
  key.encode(w);
  w.u32(slot);
  w.varint(votes.size());
  for (const auto& v : votes) v.encode(w);
}

EvidenceMsg EvidenceMsg::decode(Reader& r) {
  EvidenceMsg e;
  e.key = InstanceKey::decode(r);
  e.slot = r.u32();
  // A signed vote is at least 28 bytes on the wire.
  const std::uint64_t n = r.length_prefix(28, 65536);
  e.votes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) e.votes.push_back(SignedVote::decode(r));
  return e;
}

namespace {
Bytes with_tag(MsgTag tag, const std::function<void(Writer&)>& body) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(tag));
  body(w);
  return w.take();
}
}  // namespace

Bytes encode_vote_msg(const SignedVote& v) {
  return with_tag(MsgTag::kVote, [&](Writer& w) { v.encode(w); });
}

Bytes encode_proposal_msg(const ProposalMsg& p) {
  return with_tag(MsgTag::kProposal, [&](Writer& w) { p.encode(w); });
}

Bytes encode_decision_msg(const DecisionMsg& d) {
  return with_tag(MsgTag::kDecision, [&](Writer& w) { d.encode(w); });
}

Bytes encode_evidence_msg(const EvidenceMsg& e) {
  return with_tag(MsgTag::kEvidence, [&](Writer& w) { e.encode(w); });
}

Bytes encode_epoch_announce_msg(const EpochAnnounceMsg& m) {
  return with_tag(MsgTag::kEpochAnnounce, [&](Writer& w) { m.encode(w); });
}

}  // namespace zlb::consensus
