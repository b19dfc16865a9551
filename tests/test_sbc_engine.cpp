// SbcEngine driven directly through a synchronous loopback harness (no
// simulator): Def. 2 properties, RBC behaviour, the zero-input phase,
// stop(), and the runtime committee shrink (recheck) used by the
// exclusion consensus.
#include <gtest/gtest.h>

#include <deque>

#include "consensus/sbc.hpp"

namespace zlb::consensus {
namespace {

class EngineHarness {
 public:
  explicit EngineHarness(std::size_t n, SbcEngine::Config config = {},
                         const Committee* live = nullptr,
                         std::function<bool(BytesView)> validator = nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      members_.push_back(static_cast<ReplicaId>(i));
    }
    decided_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      SbcEngine::Hooks hooks;
      hooks.broadcast = [this, i](Bytes data, std::uint32_t, std::uint64_t) {
        queue_.emplace_back(static_cast<ReplicaId>(i), std::move(data));
      };
      hooks.decided = [this, i]() { decided_[i] = true; };
      hooks.validate = validator;
      engines_.push_back(std::make_unique<SbcEngine>(
          InstanceKey{0, InstanceKind::kRegular, 0}, members_, live,
          static_cast<ReplicaId>(i), scheme_, config, std::move(hooks)));
    }
  }

  SbcEngine& engine(std::size_t i) { return *engines_[i]; }
  [[nodiscard]] bool decided(std::size_t i) const { return decided_[i]; }
  [[nodiscard]] std::size_t n() const { return engines_.size(); }

  /// Delivers queued broadcasts to every engine until quiescent.
  /// Messages matching the hold filter are parked instead.
  void drain() {
    while (!queue_.empty()) {
      auto [from, data] = std::move(queue_.front());
      queue_.pop_front();
      if (hold_ && hold_(data)) {
        held_.emplace_back(from, std::move(data));
        continue;
      }
      for (auto& e : engines_) deliver(*e, data);
    }
  }

  /// Parks every later broadcast matching `filter` until release().
  void hold(std::function<bool(const Bytes&)> filter) {
    hold_ = std::move(filter);
  }
  /// Re-queues the parked broadcasts in order and stops holding.
  void release() {
    hold_ = nullptr;
    for (auto& m : held_) queue_.push_back(std::move(m));
    held_.clear();
  }

  void propose_all(const std::string& prefix = "batch-") {
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      engines_[i]->propose(to_bytes(prefix + std::to_string(i)), 0, 1);
    }
  }

 private:
  void deliver(SbcEngine& e, const Bytes& data) {
    Reader r(BytesView(data.data() + 1, data.size() - 1));
    if (data[0] == static_cast<std::uint8_t>(MsgTag::kProposal)) {
      e.handle_proposal(ProposalMsg::decode(r));
    } else if (data[0] == static_cast<std::uint8_t>(MsgTag::kVote)) {
      e.handle_vote(SignedVote::decode(r));
    }
  }

  crypto::SimScheme scheme_{64};
  std::vector<ReplicaId> members_;
  std::vector<std::unique_ptr<SbcEngine>> engines_;
  std::deque<std::pair<ReplicaId, Bytes>> queue_;
  std::deque<std::pair<ReplicaId, Bytes>> held_;
  std::function<bool(const Bytes&)> hold_;
  std::vector<bool> decided_;
};

/// EST and AUX votes: the binary-consensus traffic, as opposed to RBC.
bool is_bincon_vote(const Bytes& data) {
  if (data[0] != static_cast<std::uint8_t>(MsgTag::kVote)) return false;
  Reader r(BytesView(data.data() + 1, data.size() - 1));
  const VoteType type = SignedVote::decode(r).body.type;
  return type == VoteType::kEst || type == VoteType::kAux;
}

/// Slot 3 of four proposes only after slots 0-2 RBC-delivered at every
/// engine, while no binary consensus has decided yet (all EST/AUX votes
/// are held back until the late proposal delivered too). Returns the
/// bitmask every engine decided.
std::vector<std::uint8_t> late_proposer_outcome(bool on_decided_ones) {
  SbcEngine::Config cfg;
  cfg.zero_phase_on_decided_ones = on_decided_ones;
  EngineHarness h(4, cfg);
  h.hold(is_bincon_vote);
  for (std::size_t i = 0; i < 3; ++i) {
    h.engine(i).propose(to_bytes("batch-" + std::to_string(i)), 0, 1);
  }
  h.drain();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.engine(i).delivered_count(), 3u) << "engine " << i;
    EXPECT_FALSE(h.engine(i).slot_debug(0).decided) << "engine " << i;
    // The delivery rule starts slot 3 with input 0 right here.
    EXPECT_EQ(h.engine(i).slot_debug(3).started, !on_decided_ones)
        << "engine " << i;
  }
  h.engine(3).propose(to_bytes("batch-3"), 0, 1);
  h.drain();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.engine(i).delivered_count(), 4u) << "engine " << i;
  }
  h.release();
  h.drain();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(h.decided(i)) << "engine " << i;
    EXPECT_EQ(h.engine(i).bitmask(), h.engine(0).bitmask());
  }
  return h.engine(0).bitmask();
}

class EngineSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineSizes, AllProposeAllDecideEverything) {
  EngineHarness h(GetParam());
  h.propose_all();
  h.drain();
  const std::size_t quorum = h.n() - (h.n() - 1) / 3;
  for (std::size_t i = 0; i < h.n(); ++i) {
    ASSERT_TRUE(h.decided(i)) << "engine " << i;
    // SBC-Nontriviality/Validity: at least a quorum of the honest
    // proposals is decided (a straggler may race the zero-input phase
    // and legitimately decide 0).
    std::size_t ones = 0;
    for (auto bit : h.engine(i).bitmask()) ones += bit;
    EXPECT_GE(ones, quorum) << "engine " << i;
    EXPECT_EQ(h.engine(i).outcome().size(), ones);
  }
  // SBC-Agreement: identical outcome everywhere.
  for (std::size_t i = 1; i < h.n(); ++i) {
    EXPECT_EQ(h.engine(i).bitmask(), h.engine(0).bitmask());
    ASSERT_EQ(h.engine(i).outcome().size(), h.engine(0).outcome().size());
    for (std::size_t s = 0; s < h.engine(i).outcome().size(); ++s) {
      EXPECT_EQ(h.engine(i).outcome()[s].digest,
                h.engine(0).outcome()[s].digest);
    }
  }
}

TEST_P(EngineSizes, SilentProposerSlotDecidesZero) {
  EngineHarness h(GetParam());
  for (std::size_t i = 0; i + 1 < h.n(); ++i) {
    h.engine(i).propose(to_bytes("batch-" + std::to_string(i)), 0, 1);
  }
  h.drain();
  const std::size_t quorum = h.n() - (h.n() - 1) / 3;
  for (std::size_t i = 0; i + 1 < h.n(); ++i) {
    ASSERT_TRUE(h.decided(i));
    const auto& mask = h.engine(i).bitmask();
    EXPECT_EQ(mask.back(), 0);  // the silent proposer's slot
    std::size_t ones = 0;
    for (auto b : mask) ones += b;
    EXPECT_GE(ones, quorum);
    EXPECT_LE(ones, h.n() - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Committees, EngineSizes,
                         ::testing::Values(4, 7, 10, 13));

TEST(SbcEngine, OutcomePayloadsMatchDigests) {
  EngineHarness h(4);
  h.propose_all("payload-");
  h.drain();
  for (const auto& entry : h.engine(0).outcome()) {
    EXPECT_EQ(entry.digest,
              crypto::sha256(BytesView(entry.payload.data(),
                                       entry.payload.size())));
    EXPECT_EQ(entry.tx_count, 1u);
  }
}

TEST(SbcEngine, InvalidPayloadNeverDecidedOne) {
  // SBC-Validity: a payload every honest replica rejects is never
  // echoed, so its slot decides 0.
  auto reject_batch2 = [](BytesView payload) {
    const Bytes bad = to_bytes("batch-2");
    return !(payload.size() == bad.size() &&
             std::equal(payload.begin(), payload.end(), bad.begin()));
  };
  EngineHarness h(4, SbcEngine::Config{}, nullptr, reject_batch2);
  h.propose_all();
  h.drain();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.decided(i)) << "engine " << i;
    EXPECT_EQ(h.engine(i).bitmask()[2], 0) << "engine " << i;
    EXPECT_EQ(h.engine(i).bitmask(), h.engine(0).bitmask());
  }
}

TEST(SbcEngine, StopFreezesEngine) {
  EngineHarness h(4);
  h.engine(0).stop();
  h.propose_all();
  h.drain();
  EXPECT_FALSE(h.decided(0));
  EXPECT_TRUE(h.engine(0).stopped());
  // The others decide without replica 0 (quorum 3 of 4).
  for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(h.decided(i));
}

TEST(SbcEngine, ProposerCannotUseForeignSlot) {
  EngineHarness h(4);
  // Handcraft a proposal from replica 1 claiming slot 3.
  crypto::SimScheme scheme(64);
  ProposalMsg msg;
  msg.vote.signer = 1;
  const Bytes payload = to_bytes("stolen-slot");
  const auto digest = crypto::sha256(BytesView(payload.data(), payload.size()));
  msg.vote.body = VoteBody{InstanceKey{0, InstanceKind::kRegular, 0}, 3, 0,
                           VoteType::kSend,
                           Bytes(digest.begin(), digest.end())};
  const Bytes sb = msg.vote.body.signing_bytes();
  msg.vote.signature = scheme.sign(1, BytesView(sb.data(), sb.size()));
  msg.payload = payload;
  h.engine(0).handle_proposal(msg);
  // Slot 3 must not have echoed: drain produces nothing for it.
  h.drain();
  EXPECT_FALSE(h.decided(0));
}

TEST(SbcEngine, DigestMismatchDropped) {
  EngineHarness h(4);
  crypto::SimScheme scheme(64);
  ProposalMsg msg;
  msg.vote.signer = 0;
  msg.vote.body = VoteBody{InstanceKey{0, InstanceKind::kRegular, 0}, 0, 0,
                           VoteType::kSend, Bytes(32, 0xee)};  // wrong digest
  const Bytes sb = msg.vote.body.signing_bytes();
  msg.vote.signature = scheme.sign(0, BytesView(sb.data(), sb.size()));
  msg.payload = to_bytes("whatever");
  h.engine(1).handle_vote(msg.vote);
  h.engine(1).handle_proposal(msg);
  h.drain();
  EXPECT_EQ(h.engine(1).delivered_count(), 0u);
}

TEST(SbcEngine, LiveCommitteeShrinkStillDecides) {
  // Exclusion-consensus style: thresholds follow a live committee that
  // loses a member mid-instance; recheck() re-evaluates and the
  // remaining members decide.
  Committee live({0, 1, 2, 3, 4, 5, 6});
  SbcEngine::Config cfg;
  EngineHarness h(7, cfg, &live);
  // Member 6 stays silent the whole time (it is being excluded).
  for (std::size_t i = 0; i < 6; ++i) {
    h.engine(i).propose(to_bytes("p" + std::to_string(i)), 0, 1);
  }
  h.drain();
  // With n=7 thresholds (quorum 5) and only 6 voices, instances can
  // still complete; now shrink to 6 and recheck to mop up any slot that
  // was waiting on the 7-member quorum.
  live.remove({6});
  for (std::size_t i = 0; i < 6; ++i) h.engine(i).recheck();
  h.drain();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(h.decided(i)) << "engine " << i;
  }
}

TEST(SbcEngine, LateProposalKeepsItsSlotUnderDecidedOnesRule) {
  // Delivered before n-t slots DECIDED 1: the slot runs with input 1.
  EXPECT_EQ(late_proposer_outcome(true),
            (std::vector<std::uint8_t>{1, 1, 1, 1}));
}

TEST(SbcEngine, LateProposalLosesItsSlotUnderDeliveryRule) {
  // Delivered after n-t slots delivered: the zero phase already voted
  // the slot 0 everywhere.
  EXPECT_EQ(late_proposer_outcome(false),
            (std::vector<std::uint8_t>{1, 1, 1, 0}));
}

TEST(SbcEngine, AdoptedDecisionsCountTowardDecidedOnesTrigger) {
  SbcEngine::Config cfg;
  cfg.zero_phase_on_decided_ones = true;
  EngineHarness h(4, cfg);
  SbcEngine& straggler = h.engine(3);
  straggler.adopt_slot_decision(0, 1, nullptr);
  straggler.adopt_slot_decision(1, 1, nullptr);
  EXPECT_FALSE(straggler.slot_debug(3).started);
  straggler.adopt_slot_decision(2, 1, nullptr);
  EXPECT_TRUE(straggler.slot_debug(3).started);
  EXPECT_EQ(straggler.slot_debug(3).round, 1u);
}

TEST(SbcEngine, ShrinkRecheckFiresDecidedOnesTrigger) {
  // Four of seven slots decide 1 under a quorum of 5: the zero phase
  // waits. Excluding two members lowers the quorum to 4, which the
  // decisions already meet, and only recheck() can notice.
  Committee live({0, 1, 2, 3, 4, 5, 6});
  SbcEngine::Config cfg;
  cfg.zero_phase_on_decided_ones = true;
  EngineHarness h(7, cfg, &live);
  for (std::size_t i = 0; i < 4; ++i) {
    h.engine(i).propose(to_bytes("p" + std::to_string(i)), 0, 1);
  }
  h.drain();
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(h.engine(i).slot_debug(3).decided) << "engine " << i;
    EXPECT_FALSE(h.engine(i).slot_debug(4).started) << "engine " << i;
    EXPECT_FALSE(h.decided(i)) << "engine " << i;
  }
  live.remove({5, 6});
  for (std::size_t i = 0; i < 7; ++i) h.engine(i).recheck();
  h.drain();
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(h.decided(i)) << "engine " << i;
    EXPECT_EQ(h.engine(i).bitmask(),
              (std::vector<std::uint8_t>{1, 1, 1, 1, 0, 0, 0}));
  }
}

TEST(SbcEngine, AdoptSlotDecisionCompletesInstance) {
  EngineHarness h(4);
  h.propose_all();
  // Engine 3 hears nothing; adopt decisions out-of-band (certified
  // decision path).
  h.drain();
  EngineHarness h2(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& src = h.engine(0);
    for (std::uint32_t s = 0; s < 4; ++s) {
      h2.engine(3).adopt_slot_decision(s, src.bitmask()[s], nullptr);
    }
  }
  // All-one decisions need payloads; without them the instance must NOT
  // complete (no phantom decisions).
  EXPECT_FALSE(h2.decided(3));
}

}  // namespace
}  // namespace zlb::consensus
