// End-to-end consensus over real TCP sockets: LiveCluster runs the
// same SbcEngine the simulator uses, but each replica is its own
// thread with its own event loop, loopback listener and ECDSA key.
// These tests check SBC termination / agreement / nontriviality on the
// real wire path (serialization, framing, partial reads, signatures),
// that decided engines are freed, and that wire input naming unknown
// signers or retired instances changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>

#include "common/serde.hpp"
#include "consensus/messages.hpp"
#include "consensus/pof.hpp"
#include "crypto/signer.hpp"
#include "net/live_node.hpp"

namespace zlb::net {
namespace {

using namespace std::chrono_literals;
using consensus::MsgTag;
using consensus::SignedVote;
using consensus::VoteType;

LiveNodeConfig fast_config(std::uint64_t instances, bool ecdsa) {
  LiveNodeConfig cfg;
  cfg.instances = instances;
  cfg.use_ecdsa = ecdsa;
  cfg.engine.accountable = true;
  return cfg;
}

template <typename Nodes>
void expect_agreement(Nodes& cluster, std::uint64_t instances) {
  for (std::uint64_t k = 0; k < instances; ++k) {
    const LiveDecision* ref = nullptr;
    std::vector<LiveDecision> ref_store;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const auto decisions = cluster.node(i).decisions();
      const auto it =
          std::find_if(decisions.begin(), decisions.end(),
                       [&](const LiveDecision& d) { return d.index == k; });
      ASSERT_NE(it, decisions.end())
          << "node " << i << " missing instance " << k;
      if (ref == nullptr) {
        ref_store.push_back(*it);
        ref = &ref_store.back();
      } else {
        EXPECT_EQ(it->bitmask, ref->bitmask) << "node " << i;
        EXPECT_EQ(it->digests, ref->digests) << "node " << i;
      }
    }
  }
}

TEST(LiveCluster, FourNodesOneInstanceEcdsa) {
  LiveCluster cluster(4, fast_config(1, /*ecdsa=*/true));
  ASSERT_TRUE(cluster.run(20s));
  expect_agreement(cluster, 1);

  // Nontriviality: everyone proposed, a quorum of slots must carry 1.
  const auto d = cluster.node(0).decisions();
  ASSERT_EQ(d.size(), 1u);
  std::size_t ones = 0;
  for (auto b : d[0].bitmask) ones += b;
  EXPECT_GE(ones, 3u);
}

TEST(LiveCluster, SevenNodesThreeInstances) {
  LiveCluster cluster(7, fast_config(3, /*ecdsa=*/false));
  ASSERT_TRUE(cluster.run(30s));
  expect_agreement(cluster, 3);
}

TEST(LiveCluster, TenNodesSimScheme) {
  LiveCluster cluster(10, fast_config(2, /*ecdsa=*/false));
  ASSERT_TRUE(cluster.run(30s));
  expect_agreement(cluster, 2);
}

TEST(LiveCluster, QueuedPayloadsAreDecided) {
  LiveNodeConfig cfg = fast_config(1, /*ecdsa=*/false);
  LiveCluster cluster(4, cfg);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).queue_payload(to_bytes("payload-of-node-" +
                                           std::to_string(i)));
  }
  ASSERT_TRUE(cluster.run(20s));
  expect_agreement(cluster, 1);
  // Some payload bytes must have been carried through.
  EXPECT_GT(cluster.node(0).decisions()[0].payload_bytes, 0u);
}

TEST(LiveCluster, TransportCarriedRealTraffic) {
  LiveCluster cluster(4, fast_config(1, /*ecdsa=*/false));
  ASSERT_TRUE(cluster.run(20s));
  const auto& stats = cluster.node(0).transport_stats();
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_GT(stats.frames_received, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
}

std::int64_t open_engines(const LiveNode& node) {
  for (const obs::Sample& s : node.metrics().samples()) {
    if (s.name == "zlb_open_engines") return s.gauge_value;
  }
  ADD_FAILURE() << "no zlb_open_engines gauge";
  return -1;
}

std::uint64_t rx_frames(const LiveNode& node, const std::string& kind) {
  for (const obs::Sample& s : node.metrics().samples()) {
    if (s.name != "zlb_msgs_total") continue;
    const obs::LabelSet want{{"dir", "rx"}, {"kind", kind}};
    if (s.labels == want) return s.counter_value;
  }
  return 0;
}

TEST(LiveCluster, DecidedEnginesRetireWithoutResync) {
  // Resync off: nothing is ever replayed, so an engine is freed as soon
  // as its decision is below the decision floor.
  LiveNodeConfig cfg = fast_config(240, /*ecdsa=*/false);
  cfg.resync_interval = Duration::zero();
  LiveCluster cluster(4, cfg);
  ASSERT_TRUE(cluster.run(60s));
  expect_agreement(cluster, 240);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_LE(open_engines(cluster.node(i)),
              static_cast<std::int64_t>(cfg.pipeline_window) + 2)
        << "node " << i;
  }
}

TEST(LiveCluster, DecidedEnginesRetireBehindThePruneFloor) {
  // Standalone-daemon shape: every node lingers and winds down on its
  // own once all peers reported done. Engines go once every peer's
  // signed floor (the wire-prune floor) passed them.
  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kInstances = 240;
  LiveNodeConfig base = fast_config(kInstances, /*ecdsa=*/false);
  base.resync_interval = 20ms;
  base.linger_after_decided = true;
  for (std::size_t i = 0; i < kNodes; ++i) {
    base.committee.push_back(static_cast<ReplicaId>(i));
  }
  std::vector<std::unique_ptr<LiveNode>> nodes;
  std::map<ReplicaId, std::uint16_t> ports;
  for (std::size_t i = 0; i < kNodes; ++i) {
    LiveNodeConfig cfg = base;
    cfg.me = static_cast<ReplicaId>(i);
    nodes.push_back(std::make_unique<LiveNode>(cfg));
    ports[cfg.me] = nodes.back()->port();
  }
  for (auto& node : nodes) node->set_peer_ports(ports);
  std::vector<std::thread> threads;
  for (auto& node : nodes) {
    threads.emplace_back([&node]() { node->run(60s); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_TRUE(nodes[i]->all_decided()) << "node " << i;
    EXPECT_LE(open_engines(*nodes[i]),
              static_cast<std::int64_t>(base.pipeline_window) + 2)
        << "node " << i;
  }
}

/// Regular instance index of a vote or proposal frame.
std::optional<InstanceId> regular_index(BytesView data) {
  if (data.empty()) return std::nullopt;
  try {
    Reader r(data.subspan(1));
    switch (static_cast<MsgTag>(data[0])) {
      case MsgTag::kVote:
        return SignedVote::decode(r).body.key.index;
      case MsgTag::kProposal:
        return consensus::ProposalMsg::decode(r).vote.body.key.index;
      default:
        return std::nullopt;
    }
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

/// Members 0..real-1 of an n-member committee are real LiveNodes on
/// their own threads (by default real = n − 1); member n-1 is played by
/// the test on the calling thread: a bare transport that records every
/// vote and proposal the nodes send it and injects frames of the test's
/// choosing. It never votes, so for n = 4 the three real nodes decide
/// on their own (n − t = 3). Members in between are absent.
class ScriptedMember {
 public:
  struct Frame {
    ReplicaId from = 0;
    InstanceId index = 0;
    Bytes data;
  };

  ScriptedMember(std::size_t n, LiveNodeConfig base, std::size_t real = 0)
      : me_(static_cast<ReplicaId>(n - 1)),
        transport_(loop_, TransportConfig{me_, 0, {}}) {
    base.linger_after_decided = true;
    base.committee.clear();
    for (std::size_t i = 0; i < n; ++i) {
      base.committee.push_back(static_cast<ReplicaId>(i));
    }
    std::map<ReplicaId, std::uint16_t> ports;
    const ReplicaId real_nodes =
        real == 0 ? me_ : static_cast<ReplicaId>(real);
    for (ReplicaId i = 0; i < real_nodes; ++i) {
      LiveNodeConfig cfg = base;
      cfg.me = i;
      nodes_.push_back(std::make_unique<LiveNode>(cfg));
      ports[i] = nodes_.back()->port();
    }
    transport_.set_peers(ports);
    ports[me_] = transport_.local_port();
    for (auto& node : nodes_) node->set_peer_ports(ports);
    transport_.set_handler([this](ReplicaId from, BytesView data) {
      if (const auto k = regular_index(data)) {
        frames_.push_back(Frame{from, *k, Bytes(data.begin(), data.end())});
      }
    });
  }
  ~ScriptedMember() { stop(); }
  ScriptedMember(const ScriptedMember&) = delete;
  ScriptedMember& operator=(const ScriptedMember&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] LiveNode& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] const std::vector<Frame>& frames() const { return frames_; }

  void start() {
    for (auto& node : nodes_) {
      threads_.emplace_back([&node]() { node->run(120s); });
    }
    transport_.start();
  }
  /// Queued until the link is up; the transport keeps per-link order.
  void send(ReplicaId to, const Bytes& frame) {
    transport_.send(to, BytesView(frame.data(), frame.size()));
  }
  /// Runs the scripted member's loop until `done` or `timeout`.
  bool pump_until(Duration timeout, const std::function<bool()>& done) {
    const TimePoint deadline = Clock::now() + timeout;
    while (!done()) {
      if (Clock::now() >= deadline) return false;
      (void)loop_.poll_once(5ms);
    }
    return true;
  }
  [[nodiscard]] bool all_decided() const {
    return std::all_of(nodes_.begin(), nodes_.end(),
                       [](const auto& node) { return node->all_decided(); });
  }
  void stop() {
    for (auto& node : nodes_) node->stop();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  ReplicaId me_;
  EventLoop loop_;
  TcpTransport transport_;
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  std::vector<std::thread> threads_;
  std::vector<Frame> frames_;
};

TEST(LiveCluster, ReplayedFramesForARetiredIndexSignNothing) {
  constexpr std::uint64_t kInstances = 200;
  LiveNodeConfig cfg = fast_config(kInstances, /*ecdsa=*/false);
  cfg.resync_interval = Duration::zero();
  ScriptedMember cluster(4, cfg);
  cluster.start();
  // Node 0 working on instance 60 decided instance 0 long ago (each
  // decision needs all three real nodes), so index 0 is retired.
  ASSERT_TRUE(cluster.pump_until(60s, [&] {
    const auto& f = cluster.frames();
    return std::any_of(f.begin(), f.end(), [](const auto& fr) {
      return fr.from == 0 && fr.index >= 60;
    });
  }));
  // Replay nodes 1 and 2's proposals and votes of instance 0 to node
  // 0. A fresh engine there would echo the proposals: new signatures in
  // an instance node 0 already voted in.
  std::vector<Bytes> replay;
  bool has_proposal = false;
  for (const auto& fr : cluster.frames()) {
    if (fr.index != 0 || fr.from == 0) continue;
    replay.push_back(fr.data);
    has_proposal = has_proposal ||
                   fr.data[0] == static_cast<std::uint8_t>(MsgTag::kProposal);
  }
  ASSERT_TRUE(has_proposal);
  const std::size_t marker = cluster.frames().size();
  for (const Bytes& frame : replay) cluster.send(0, frame);
  ASSERT_TRUE(cluster.pump_until(60s, [&] { return cluster.all_decided(); }));
  (void)cluster.pump_until(200ms, [] { return false; });
  cluster.stop();

  EXPECT_GT(rx_frames(cluster.node(0), "proposal"), 0u);
  for (std::size_t i = marker; i < cluster.frames().size(); ++i) {
    const auto& fr = cluster.frames()[i];
    EXPECT_FALSE(fr.from == 0 && fr.index == 0)
        << "node 0 signed again in retired instance 0";
  }
  EXPECT_LE(open_engines(cluster.node(0)),
            static_cast<std::int64_t>(cfg.pipeline_window) + 2);
  expect_agreement(cluster, kInstances);
}

/// A vote signed as `signer`: every replica's key derives from its id,
/// so the test can sign on anyone's behalf.
SignedVote forge_vote(crypto::EcdsaScheme& forger, ReplicaId signer,
                      const consensus::InstanceKey& key, std::uint32_t slot,
                      std::uint32_t round, VoteType type, Bytes value) {
  SignedVote v;
  v.signer = signer;
  v.body = consensus::VoteBody{key, slot, round, type, std::move(value)};
  const Bytes sb = v.body.signing_bytes();
  v.signature = forger.sign(signer, BytesView(sb.data(), sb.size()));
  return v;
}

std::uint64_t settled_frames_dropped(const LiveNode& node) {
  for (const obs::Sample& s : node.metrics().samples()) {
    if (s.name == "zlb_settled_frames_dropped_total") return s.counter_value;
  }
  ADD_FAILURE() << "no zlb_settled_frames_dropped_total counter";
  return 0;
}

TEST(LiveCluster, ReplayedFrameForARetiredIndexIsNotVerified) {
  // The scripted member 3 never votes, so a node derives its key only
  // if it verifies a frame signed by 3 (the ECDSA scheme caches a key
  // per id it verifies). Node 1 gets 3's vote for instance 0 while the
  // instance runs and verifies it; the same frame replayed to node 0
  // after instance 0 retired there must be dropped before that.
  constexpr std::uint64_t kInstances = 20;
  LiveNodeConfig cfg = fast_config(kInstances, /*ecdsa=*/true);
  cfg.resync_interval = Duration::zero();
  ScriptedMember cluster(4, cfg);
  crypto::EcdsaScheme forger;
  const consensus::InstanceKey key{0, consensus::InstanceKind::kRegular, 0};
  // An echo in member 3's own slot, which carries no proposal: inert.
  const Bytes frame = consensus::encode_vote_msg(
      forge_vote(forger, 3, key, 3, 0, VoteType::kEcho, Bytes(32, 0)));
  cluster.send(1, frame);
  cluster.start();
  ASSERT_TRUE(cluster.pump_until(
      60s, [&] { return cluster.node(0).decided_count() >= 6; }));
  cluster.send(0, frame);
  ASSERT_TRUE(cluster.pump_until(60s, [&] { return cluster.all_decided(); }));
  cluster.stop();

  expect_agreement(cluster, kInstances);
  auto cached = [&](std::size_t i) {
    const auto& scheme = dynamic_cast<const crypto::EcdsaScheme&>(
        cluster.node(i).signature_scheme());
    const auto ids = scheme.cached_ids();
    return std::count(ids.begin(), ids.end(), ReplicaId{3}) == 1;
  };
  EXPECT_TRUE(cached(1)) << "control: node 1 verified the live frame";
  EXPECT_FALSE(cached(0)) << "node 0 verified a frame for a retired index";
  EXPECT_GE(settled_frames_dropped(cluster.node(0)), 1u);
}

TEST(LiveCluster, CertifiedDecisionDecidingTheFloorInstanceKeepsItsEngine) {
  // Resync off and no commit pipeline, so a decided engine is retired
  // at the next opportunity. Here the instance decides inside the
  // certificate loop of a DecisionMsg, which then reads the engine for
  // the trailing duplicate certificate: retirement must not have freed
  // it yet (AddressSanitizer reports the use after free if it did).
  LiveNodeConfig cfg = fast_config(1, /*ecdsa=*/true);
  cfg.resync_interval = Duration::zero();
  ScriptedMember cluster(4, cfg, /*real=*/1);
  crypto::EcdsaScheme forger;
  const consensus::InstanceKey key{0, consensus::InstanceKind::kRegular, 0};
  consensus::DecisionMsg decision;
  decision.sender = 3;
  decision.key = key;
  decision.bitmask = {0, 0, 0, 0};
  for (std::uint32_t slot = 0; slot < 4; ++slot) {
    consensus::SlotCert cert;
    cert.slot = slot;
    cert.round = 1;
    cert.value = 0;
    for (const ReplicaId signer : {1u, 2u, 3u}) {
      cert.votes.push_back(
          forge_vote(forger, signer, key, slot, 1, VoteType::kAux, Bytes{0}));
    }
    decision.certs.push_back(std::move(cert));
  }
  decision.certs.push_back(decision.certs.front());
  const Bytes summary = decision.summary_bytes();
  decision.signature =
      forger.sign(3, BytesView(summary.data(), summary.size()));
  cluster.send(0, consensus::encode_decision_msg(decision));
  cluster.start();
  ASSERT_TRUE(cluster.pump_until(60s, [&] { return cluster.all_decided(); }));
  cluster.stop();

  const auto decisions = cluster.node(0).decisions();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].index, 0u);
  EXPECT_EQ(decisions[0].bitmask, (std::vector<std::uint8_t>{0, 0, 0, 0}));
}

TEST(LiveCluster, UnknownSignersNeverReachTheScheme) {
  // Validly signed frames whose signer is outside committee ∪ pool:
  // a vote, a proposal, a certified decision and a PoF (gossiped, and
  // inside an exclusion claim). The scheme derives a key and builds a
  // 69 KB table per id it is asked about, so none of them may get that
  // far.
  constexpr std::uint64_t kInstances = 3;
  ScriptedMember cluster(4, fast_config(kInstances, /*ecdsa=*/true));
  crypto::EcdsaScheme forger;
  const consensus::InstanceKey key{0, consensus::InstanceKind::kRegular, 0};
  auto signed_vote = [&](ReplicaId signer, VoteType type,
                         std::uint32_t round, Bytes value) {
    return forge_vote(forger, signer, key, 0, round, type, std::move(value));
  };
  const Bytes payload = to_bytes("forged payload");
  const crypto::Hash32 digest =
      crypto::sha256(BytesView(payload.data(), payload.size()));
  const Bytes digest_bytes(digest.begin(), digest.end());

  std::vector<Bytes> frames;
  frames.push_back(consensus::encode_vote_msg(
      signed_vote(99, VoteType::kEcho, 0, digest_bytes)));
  consensus::ProposalMsg proposal;
  proposal.vote = signed_vote(77, VoteType::kSend, 0, digest_bytes);
  proposal.payload = payload;
  frames.push_back(consensus::encode_proposal_msg(proposal));
  consensus::DecisionMsg decision;
  decision.sender = 55;
  decision.key = key;
  decision.bitmask = {1, 1, 1, 1};
  const Bytes summary = decision.summary_bytes();
  decision.signature =
      forger.sign(55, BytesView(summary.data(), summary.size()));
  frames.push_back(consensus::encode_decision_msg(decision));
  const consensus::ProofOfFraud pof{
      signed_vote(88, VoteType::kAux, 1, Bytes{0}),
      signed_vote(88, VoteType::kAux, 1, Bytes{1})};
  ASSERT_TRUE(consensus::verify_pof(pof, forger));
  Writer gossip;
  gossip.u8(static_cast<std::uint8_t>(MsgTag::kPofGossip));
  gossip.raw(consensus::encode_pofs({pof}));
  frames.push_back(gossip.take());
  // The same PoF inside an exclusion claim, proposed by member 3 itself
  // (a known signer): the claim's PoFs are harvested even though no
  // exclusion engine runs, so they need the bound too.
  consensus::ExclusionClaim claim;
  claim.pofs = {pof};
  consensus::ProposalMsg exclusion;
  exclusion.payload = claim.encode();
  const crypto::Hash32 claim_digest = crypto::sha256(
      BytesView(exclusion.payload.data(), exclusion.payload.size()));
  exclusion.vote.signer = 3;
  exclusion.vote.body = consensus::VoteBody{
      consensus::InstanceKey{0, consensus::InstanceKind::kExclusion, 0}, 3, 0,
      VoteType::kSend, Bytes(claim_digest.begin(), claim_digest.end())};
  const Bytes esb = exclusion.vote.body.signing_bytes();
  exclusion.vote.signature = forger.sign(3, BytesView(esb.data(), esb.size()));
  frames.push_back(consensus::encode_proposal_msg(exclusion));

  for (ReplicaId to = 0; to < 3; ++to) {
    for (const Bytes& frame : frames) cluster.send(to, frame);
  }
  cluster.start();
  ASSERT_TRUE(cluster.pump_until(60s, [&] { return cluster.all_decided(); }));
  cluster.stop();

  expect_agreement(cluster, kInstances);
  const std::vector<ReplicaId> members{0, 1, 2, 3};
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    LiveNode& node = cluster.node(i);
    // The forged frames did arrive.
    EXPECT_GT(rx_frames(node, "pof_gossip"), 0u) << "node " << i;
    EXPECT_GT(rx_frames(node, "decision"), 0u) << "node " << i;
    const auto& scheme =
        dynamic_cast<const crypto::EcdsaScheme&>(node.signature_scheme());
    for (ReplicaId id : scheme.cached_ids()) {
      EXPECT_TRUE(std::count(members.begin(), members.end(), id) == 1)
          << "node " << i << " derived a key for id " << id;
    }
    EXPECT_EQ(node.reconfig_stats().pof_culprits, 0u) << "node " << i;
  }
}

}  // namespace
}  // namespace zlb::net
