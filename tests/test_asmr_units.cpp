// ASMR payload codecs, the deterministic inclusion choice (Alg. 1
// line 44) and the shared Alg. 1 membership core.
#include <gtest/gtest.h>

#include "asmr/membership.hpp"
#include "asmr/payload.hpp"
#include "common/rng.hpp"

namespace zlb::asmr {
namespace {

TEST(BatchPayload, SyntheticRoundtrip) {
  BatchPayload p;
  p.synthetic = true;
  p.tx_count = 10000;
  p.proposer = 42;
  p.index = 7;
  p.tag = 3;
  const Bytes wire = p.encode();
  const BatchPayload back =
      BatchPayload::decode(BytesView(wire.data(), wire.size()));
  EXPECT_TRUE(back.synthetic);
  EXPECT_EQ(back.tx_count, 10000u);
  EXPECT_EQ(back.proposer, 42u);
  EXPECT_EQ(back.index, 7u);
  EXPECT_EQ(back.tag, 3u);
}

TEST(BatchPayload, TagChangesDigest) {
  BatchPayload a;
  a.synthetic = true;
  a.tx_count = 100;
  BatchPayload b = a;
  b.tag = 1;
  EXPECT_NE(crypto::sha256(BytesView(a.encode().data(), a.encode().size())),
            crypto::sha256(BytesView(b.encode().data(), b.encode().size())));
}

TEST(BatchPayload, MalformedThrows) {
  const Bytes junk = {0x02, 0x03};
  EXPECT_THROW((void)BatchPayload::decode(BytesView(junk.data(), junk.size())),
               DecodeError);
}

TEST(ReplicaIds, Roundtrip) {
  const std::vector<ReplicaId> ids{9, 1, 5};
  const Bytes wire = encode_replica_ids(ids);
  EXPECT_EQ(decode_replica_ids(BytesView(wire.data(), wire.size())), ids);
}

TEST(ChooseInclusion, SpreadsEvenlyAcrossProposals) {
  // Three decided proposals, choose 3: one candidate from each.
  const std::vector<std::vector<ReplicaId>> proposals{
      {10, 11, 12}, {20, 21, 22}, {30, 31, 32}};
  const auto chosen = choose_inclusion(3, proposals, {});
  EXPECT_EQ(chosen, (std::vector<ReplicaId>{10, 20, 30}));
}

TEST(ChooseInclusion, SkipsDuplicatesAndBanned) {
  const std::vector<std::vector<ReplicaId>> proposals{
      {10, 11, 12}, {10, 21, 22}};
  const auto chosen = choose_inclusion(3, proposals, {21});
  // 10 once, 21 banned -> falls back to next offsets.
  EXPECT_EQ(chosen.size(), 3u);
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 10), 1);
  EXPECT_EQ(std::count(chosen.begin(), chosen.end(), 21), 0);
}

TEST(ChooseInclusion, Deterministic) {
  const std::vector<std::vector<ReplicaId>> proposals{
      {3, 1, 4}, {1, 5, 9}, {2, 6, 5}};
  EXPECT_EQ(choose_inclusion(4, proposals, {}),
            choose_inclusion(4, proposals, {}));
}

TEST(ChooseInclusion, InsufficientCandidatesReturnsWhatExists) {
  const std::vector<std::vector<ReplicaId>> proposals{{7}, {7}};
  const auto chosen = choose_inclusion(5, proposals, {});
  EXPECT_EQ(chosen, (std::vector<ReplicaId>{7}));
}

TEST(ChooseInclusion, EmptyProposals) {
  EXPECT_TRUE(choose_inclusion(3, {}, {}).empty());
}

TEST(ChooseInclusion, CapIsRespected) {
  const std::vector<std::vector<ReplicaId>> proposals{
      {1, 2, 3, 4, 5, 6, 7, 8}};
  EXPECT_EQ(choose_inclusion(2, proposals, {}).size(), 2u);
}

class ChooseFairness : public ::testing::TestWithParam<std::uint64_t> {};

// The §4.1.1 ④ fairness property under random proposals: no single
// decided proposal contributes more than its even share (±1, and ±the
// slack created by duplicates/bans), so a deceitful proposer cannot
// pack the inclusion with its own candidates.
TEST_P(ChooseFairness, NoProposalDominates) {
  Rng rng(GetParam());
  const std::size_t proposal_count = 2 + rng.next() % 5;   // 2..6
  const std::size_t per_proposal = 3 + rng.next() % 4;     // 3..6
  std::vector<std::vector<ReplicaId>> proposals(proposal_count);
  for (std::size_t p = 0; p < proposal_count; ++p) {
    for (std::size_t i = 0; i < per_proposal; ++i) {
      // Disjoint candidate pools: the clean case where the even-share
      // bound is exact.
      proposals[p].push_back(
          static_cast<ReplicaId>(100 * (p + 1) + i));
    }
  }
  const std::size_t want = 1 + rng.next() % (proposal_count * per_proposal);
  const auto chosen = choose_inclusion(want, proposals, {});
  ASSERT_EQ(chosen.size(), std::min(want, proposal_count * per_proposal));

  const std::size_t fair_share =
      (chosen.size() + proposal_count - 1) / proposal_count;
  for (std::size_t p = 0; p < proposal_count; ++p) {
    std::size_t from_p = 0;
    for (ReplicaId id : chosen) {
      if (id / 100 == p + 1) ++from_p;
    }
    EXPECT_LE(from_p, fair_share + 1)
        << "proposal " << p << " dominated the inclusion";
  }
  // And the result is duplicate-free.
  auto sorted = chosen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChooseFairness,
                         ::testing::Range<std::uint64_t>(1, 26));

using consensus::Committee;
using consensus::ProofOfFraud;

crypto::SimScheme& scheme() {
  static crypto::SimScheme s(64);
  return s;
}

/// A genuine PoF: `culprit` signed AUX 0 and AUX 1 for the same step.
ProofOfFraud pof_against(ReplicaId culprit) {
  ProofOfFraud pof;
  for (std::uint8_t value : {0, 1}) {
    consensus::SignedVote& v = value == 0 ? pof.first : pof.second;
    v.signer = culprit;
    v.body = consensus::VoteBody{
        consensus::InstanceKey{0, consensus::InstanceKind::kRegular, 0}, 0, 1,
        consensus::VoteType::kAux, Bytes{value}};
    const Bytes sb = v.body.signing_bytes();
    v.signature = scheme().sign(culprit, BytesView(sb.data(), sb.size()));
  }
  return pof;
}

/// Proves `culprits` deceitful through the gossip path.
void prove(Membership& m, const std::vector<ReplicaId>& culprits) {
  std::vector<ProofOfFraud> pofs;
  for (ReplicaId id : culprits) pofs.push_back(pof_against(id));
  m.intake(pofs, scheme());
  (void)m.register_pending();
}

/// An inclusion outcome whose single decided proposal is `ids`.
std::vector<consensus::SbcEngine::OutcomeEntry> decided_ids(
    const std::vector<ReplicaId>& ids) {
  consensus::SbcEngine::OutcomeEntry entry;
  entry.payload = encode_replica_ids(ids);
  return {entry};
}

/// One full change over `members`: culprits proven, excluded and
/// replaced by `chosen`.
void run_change(Membership& m, const std::vector<ReplicaId>& members,
                const std::vector<ReplicaId>& culprits,
                const std::vector<ReplicaId>& chosen) {
  prove(m, culprits);
  m.begin(members);
  ASSERT_TRUE(m.decide_exclusion({m.claim_pofs(members)}, members));
  ASSERT_EQ(m.cons_exclude(), culprits);
  ASSERT_EQ(m.decide_inclusion(decided_ids(chosen), members), chosen);
}

TEST(Membership, TriggerFiresAtExactlyFdCulpritsInCommittee) {
  const Committee committee({0, 1, 2, 3, 4, 5, 6});  // fd = 3
  Membership m;
  prove(m, {0, 1, 42});  // 42 is proven but not in the committee
  EXPECT_FALSE(m.proven_fd(committee));
  prove(m, {2});
  EXPECT_TRUE(m.proven_fd(committee));
}

TEST(Membership, NewCulpritDuringExclusionShrinksCprime) {
  const std::vector<ReplicaId> members{0, 1, 2, 3, 4, 5, 6};
  Membership m;
  prove(m, {0, 1, 2});
  m.begin(members);
  EXPECT_EQ(m.cprime().members(), (std::vector<ReplicaId>{3, 4, 5, 6}));
  m.intake({pof_against(4)}, scheme());
  const auto reg = m.register_pending();
  EXPECT_TRUE(reg.cprime_shrank);
  ASSERT_EQ(reg.fresh.size(), 1u);
  EXPECT_EQ(reg.fresh[0].culprit(), 4u);
  EXPECT_EQ(m.cprime().members(), (std::vector<ReplicaId>{3, 5, 6}));
  // A culprit outside C′ changes nothing.
  m.intake({pof_against(42)}, scheme());
  EXPECT_FALSE(m.register_pending().cprime_shrank);
}

TEST(Membership, DropsUnverifiableAndKnownGossipPofs) {
  Membership m;
  prove(m, {1});
  ProofOfFraud forged = pof_against(2);
  forged.second.signature[0] ^= 1;
  m.intake({forged, pof_against(1)}, scheme());
  EXPECT_FALSE(m.has_pending());
  EXPECT_FALSE(m.pofs().is_culprit(2));
}

TEST(Membership, InclusionProposalSkipsMembersAndExcludedAndFollowsSlot) {
  Membership m;
  // A first change excludes 0 and 1 for good.
  run_change(m, {0, 1, 2, 3}, {0, 1}, {4});
  // The next one excludes 2 and 3 from {2..7}.
  const std::vector<ReplicaId> members{2, 3, 4, 5, 6, 7};
  prove(m, {2, 3});
  m.begin(members);
  ASSERT_TRUE(m.decide_exclusion({m.claim_pofs(members)}, members));
  const Committee survivors({4, 5, 6, 7});
  const std::vector<ReplicaId> pool{0, 1, 5, 10, 11, 12};
  // Candidates: 10, 11, 12 (0 and 1 excluded, 5 a member); two wanted.
  EXPECT_EQ(m.inclusion_proposal(pool, survivors, 4),
            (std::vector<ReplicaId>{10, 11}));  // slot 0: offset 0
  EXPECT_EQ(m.inclusion_proposal(pool, survivors, 5),
            (std::vector<ReplicaId>{12, 10}));  // slot 1: offset 2
  EXPECT_FALSE(m.includable(0, pool, survivors));
  EXPECT_FALSE(m.includable(5, pool, survivors));
  EXPECT_FALSE(m.includable(13, pool, survivors));
  EXPECT_TRUE(m.includable(11, pool, survivors));
}

TEST(Membership, ExclusionOutcomeKeepsOnlyCurrentMembersInOrder) {
  const std::vector<ReplicaId> members{1, 3, 5, 7};
  Membership m;
  m.begin(members);
  ASSERT_TRUE(m.decide_exclusion(
      {{pof_against(42), pof_against(5)}, {pof_against(1), pof_against(9)}},
      members));
  EXPECT_EQ(m.cons_exclude(), (std::vector<ReplicaId>{1, 5}));
  EXPECT_EQ(m.cprime().members(), (std::vector<ReplicaId>{3, 7}));
  // Decided once: a second outcome for the same change is ignored.
  EXPECT_FALSE(m.decide_exclusion({{pof_against(3)}}, members));
  EXPECT_EQ(m.cons_exclude(), (std::vector<ReplicaId>{1, 5}));
}

// Regression: the simulator replica used to propose every stored PoF in
// its exclusion claim. After a first change the store still holds the
// excluded coalition's PoFs, so at the second change every honest claim
// named non-members and the validator rejected it.
TEST(Membership, SecondChangeClaimHoldsOnlyCurrentMembers) {
  Membership m;
  run_change(m, {0, 1, 2, 3}, {0, 1}, {4, 5});
  const std::vector<ReplicaId> members{2, 3, 4, 5};
  prove(m, {4, 5});
  ASSERT_TRUE(m.proven_fd(Committee(members)));
  m.begin(members);
  const auto claim = m.claim_pofs(members);
  ASSERT_EQ(claim.size(), 2u);
  EXPECT_EQ(claim[0].culprit(), 4u);
  EXPECT_EQ(claim[1].culprit(), 5u);
  EXPECT_TRUE(m.accept_claim(claim, members, scheme()));
  // The unfiltered store is exactly what the validator must refuse.
  EXPECT_FALSE(m.accept_claim(m.pofs().pofs(), members, scheme()));
}

}  // namespace
}  // namespace zlb::asmr
