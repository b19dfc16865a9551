#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "consensus/messages.hpp"
#include "consensus/sbc.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "sync/checkpoint.hpp"

namespace perfbench {

using namespace zlb;

namespace {

/// Caps the signature-verification replays: at this many transactions
/// per pass a pass costs well under a second on one core, and blocks
/// are sampled evenly over the run so their sizes stay representative.
constexpr std::size_t kVerifyReplayTxs = 2000;
/// Journal flushes replayed (each one fdatasync barrier).
constexpr std::size_t kJournalReplayFlushes = 100;
/// Signatures timed one by one for the per-call ECDSA costs.
constexpr std::size_t kEcdsaSamples = 256;

/// Forwards to the real scheme and accounts the time spent inside
/// sign and verify, so the engine's own time is the remainder.
class TimingScheme final : public crypto::SignatureScheme {
 public:
  explicit TimingScheme(crypto::SignatureScheme& inner) : inner_(inner) {}

  Bytes sign(ReplicaId id, BytesView message) override {
    const std::int64_t t0 = now_ns();
    Bytes sig = inner_.sign(id, message);
    sign_ns += now_ns() - t0;
    ++signs;
    return sig;
  }
  bool verify(ReplicaId id, BytesView message,
              BytesView signature) const override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_.verify(id, message, signature);
    verify_ns += now_ns() - t0;
    ++verifies;
    return ok;
  }
  std::size_t signature_size() const override {
    return inner_.signature_size();
  }

  std::int64_t sign_ns = 0;
  std::uint64_t signs = 0;
  mutable std::int64_t verify_ns = 0;
  mutable std::uint64_t verifies = 0;

 private:
  crypto::SignatureScheme& inner_;
};

std::size_t tx_total(const std::vector<chain::Block>& blocks) {
  std::size_t n = 0;
  for (const auto& b : blocks) n += b.txs.size();
  return n;
}

}  // namespace

void replay_ledger(const LedgerReplayInput& in, Result& out, SpanLog& spans) {
  const auto& blocks = *in.blocks;
  const std::size_t txs = tx_total(blocks);
  const double per_tx = txs > 0 ? 1.0 / static_cast<double>(txs) : 0.0;

  // chain: decode every decided block from its wire bytes.
  std::vector<Bytes> wire;
  wire.reserve(blocks.size());
  for (const auto& b : blocks) wire.push_back(b.serialize());
  std::size_t decoded_txs = 0;
  std::int64_t t0 = now_ns();
  for (const auto& bytes : wire) {
    Reader r(BytesView(bytes.data(), bytes.size()));
    decoded_txs += chain::Block::deserialize(r).txs.size();
  }
  std::int64_t t1 = now_ns();
  spans.add("chain.decode", 0, 0, t0, t1, decoded_txs);
  out.check(decoded_txs == txs, "chain: decoded blocks carry every tx");
  out.set("chain.replay_decode_us_per_tx",
          static_cast<double>(t1 - t0) * 1e-3 * per_tx, "us");

  // crypto: stateless batch verification of an even sample of blocks,
  // serial and across a 4-worker pool.
  std::vector<const chain::Block*> sample;
  const std::size_t stride = std::max<std::size_t>(
      1, (txs + kVerifyReplayTxs - 1) / kVerifyReplayTxs);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!blocks[i].txs.empty() && i % stride == 0) sample.push_back(&blocks[i]);
  }
  common::ThreadPool serial(0);
  common::ThreadPool pool4(4);
  bool sigs_ok = true;
  const auto verify_pass = [&](common::ThreadPool& pool, const char* name) {
    const std::int64_t s0 = now_ns();
    std::size_t n = 0;
    for (const chain::Block* b : sample) {
      const auto flags = bm::BlockManager::verify_block_signatures(*b, &pool);
      n += flags.size();
      sigs_ok = sigs_ok && std::all_of(flags.begin(), flags.end(),
                                       [](std::uint8_t f) { return f == 1; });
    }
    const std::int64_t s1 = now_ns();
    spans.add(name, 0, 0, s0, s1, n);
    return sample.empty() ? 0.0
                          : static_cast<double>(s1 - s0) * 1e-6 /
                                static_cast<double>(sample.size());
  };
  out.set("crypto.batch_verify_ms_per_block",
          verify_pass(serial, "crypto.batch_verify.serial"), "ms");
  out.set("crypto.batch_verify_ms_per_block_4w",
          verify_pass(pool4, "crypto.batch_verify.pool4"), "ms");
  out.check(sigs_ok, "crypto: every committed signature verifies");

  // crypto: single ECDSA verify / sign on the workload's keys.
  std::vector<std::int64_t> verify_ns;
  bool single_ok = true;
  for (const auto& b : blocks) {
    for (const auto& tx : b.txs) {
      if (verify_ns.size() >= kEcdsaSamples) break;
      const crypto::Hash32 digest = tx.body_digest();
      const auto& input = tx.inputs.front();
      const auto sig =
          crypto::Signature::from_bytes(BytesView(input.sig.data(), 64));
      const std::int64_t s0 = now_ns();
      const bool ok = sig && crypto::verify_digest(input.pubkey, digest, *sig);
      verify_ns.push_back(now_ns() - s0);
      single_ok = single_ok && ok;
    }
  }
  out.check(single_ok, "crypto: sampled signatures verify one by one");
  std::int64_t sum = 0;
  for (auto v : verify_ns) sum += v;
  spans.add("crypto.ecdsa_verify", 0, 0, 0, sum, verify_ns.size());
  out.set("crypto.ecdsa_verify_us",
          verify_ns.empty() ? 0.0
                            : static_cast<double>(sum) * 1e-3 /
                                  static_cast<double>(verify_ns.size()),
          "us");
  t0 = now_ns();
  for (const auto& [key, digest] : in.sign_sample) {
    const crypto::Signature sig = key.sign_digest(digest);
    (void)sig;
  }
  t1 = now_ns();
  spans.add("crypto.ecdsa_sign", 0, 0, t0, t1, in.sign_sample.size());
  out.set("crypto.ecdsa_sign_us",
          in.sign_sample.empty()
              ? 0.0
              : static_cast<double>(t1 - t0) * 1e-3 /
                    static_cast<double>(in.sign_sample.size()),
          "us");

  // crypto: SHA-256 throughput over the workload's block bytes.
  std::size_t hashed = 0;
  std::uint8_t digest_xor = 0;  // keeps the hashing observable
  t0 = now_ns();
  do {
    for (const auto& bytes : wire) {
      digest_xor ^= crypto::sha256(BytesView(bytes.data(), bytes.size()))[0];
      hashed += bytes.size();
    }
  } while (hashed > 0 && now_ns() - t0 < 100'000'000);
  t1 = now_ns();
  spans.add("crypto.sha256", 0, 0, t0, t1, hashed);
  out.details["sha256_digest_xor"] = std::to_string(digest_xor);
  out.set("crypto.sha256_mb_per_s",
          hashed == 0 ? 0.0
                      : static_cast<double>(hashed) * 1e-6 /
                            (static_cast<double>(t1 - t0) * 1e-9),
          "MB/s");

  // bm: apply (signatures already trusted) and journal the decided
  // blocks instance by instance on a fresh ledger with the same genesis.
  {
    std::unordered_set<chain::TxId, crypto::Hash32Hasher> distinct;
    for (const auto& b : blocks) {
      for (const auto& tx : b.txs) distinct.insert(tx.id());
    }
    bm::BlockManager ledger;
    in.genesis(ledger);
    std::remove(in.journal_path.c_str());
    const bool journal_ok = ledger.open_journal(in.journal_path).has_value();
    out.check(journal_ok, "bm: replay journal opens");
    std::int64_t apply_ns = 0;
    std::int64_t journal_ns = 0;
    std::size_t flushes = 0;
    std::size_t applied = 0;
    const std::vector<std::uint8_t> trusted;
    std::size_t i = 0;
    while (i < blocks.size()) {
      std::size_t j = i;
      std::vector<bool> fresh;
      const std::int64_t a0 = now_ns();
      while (j < blocks.size() && blocks[j].index == blocks[i].index) {
        const auto res = ledger.apply_verified(blocks[j], trusted);
        applied += res.applied;
        fresh.push_back(res.was_new);
        ++j;
      }
      const std::int64_t a1 = now_ns();
      apply_ns += a1 - a0;
      if (journal_ok && flushes < kJournalReplayFlushes) {
        bool ok = true;
        for (std::size_t b = i; b < j; ++b) {
          ok = ledger.journal_append(blocks[b], fresh[b - i], false) && ok;
        }
        ok = ledger.journal_sync() && ok;
        const std::int64_t a2 = now_ns();
        journal_ns += a2 - a1;
        ++flushes;
        out.check(ok, "bm: replay journal append+sync succeeds");
        spans.add("bm.journal_flush", 0, 0, a1, a2, j - i);
      }
      i = j;
    }
    spans.add("bm.apply", 0, 0, 0, apply_ns, applied);
    out.check(applied == distinct.size(),
              "bm: replay applies every committed tx exactly once");
    out.check(ledger.state_digest() == in.final_ledger->state_digest(),
              "bm: replayed ledger reproduces the replica's state digest");
    out.set("bm.replay_apply_us_per_tx",
            static_cast<double>(apply_ns) * 1e-3 * per_tx, "us");
    out.set("bm.replay_journal_ms_per_flush",
            flushes == 0 ? 0.0
                         : static_cast<double>(journal_ns) * 1e-6 /
                               static_cast<double>(flushes),
            "ms");
  }
  std::remove(in.journal_path.c_str());

  // sync: checkpoint export of the end-of-run ledger.
  t0 = now_ns();
  const Bytes image = in.final_ledger->snapshot(in.floor).encode();
  t1 = now_ns();
  const std::size_t chunk = sync::CheckpointConfig{}.chunk_size;
  const crypto::MerkleTree tree = crypto::MerkleTree::build(
      sync::chunk_leaves(BytesView(image.data(), image.size()), chunk));
  const std::int64_t t2 = now_ns();
  spans.add("sync.snapshot", 0, 0, t0, t1, image.size());
  spans.add("sync.merkle", 0, 0, t1, t2, tree.leaf_count());
  out.set("sync.replay_snapshot_ms", static_cast<double>(t1 - t0) * 1e-6, "ms");
  out.set("sync.replay_merkle_ms", static_cast<double>(t2 - t1) * 1e-6, "ms");
  out.set("sync.image_mb", static_cast<double>(image.size()) * 1e-6, "MB");
}

void replay_quorum(std::size_t n, crypto::SignatureScheme& scheme,
                   const std::vector<std::vector<Bytes>>& payloads,
                   Result& out, SpanLog& spans) {
  using consensus::MsgTag;
  TimingScheme timed(scheme);
  std::vector<ReplicaId> members;
  for (std::size_t i = 0; i < n; ++i) members.push_back(static_cast<ReplicaId>(i));

  bool agreed = true;
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    const std::int64_t k0 = now_ns();
    std::deque<std::pair<ReplicaId, Bytes>> queue;
    std::vector<bool> decided(n, false);
    std::vector<std::unique_ptr<consensus::SbcEngine>> engines;
    for (std::size_t i = 0; i < n; ++i) {
      consensus::SbcEngine::Hooks hooks;
      hooks.broadcast = [&queue, i](Bytes data, std::uint32_t, std::uint64_t) {
        queue.emplace_back(static_cast<ReplicaId>(i), std::move(data));
      };
      hooks.decided = [&decided, i] { decided[i] = true; };
      engines.push_back(std::make_unique<consensus::SbcEngine>(
          consensus::InstanceKey{0, consensus::InstanceKind::kRegular, k},
          members, nullptr, static_cast<ReplicaId>(i), timed,
          consensus::SbcEngine::Config{}, std::move(hooks)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      engines[i]->propose(payloads[k][i], 0, 1);
    }
    // Every receiver but the sender verifies the envelope signature,
    // as a replica does before handing a frame to its engine.
    while (!queue.empty()) {
      auto [from, data] = std::move(queue.front());
      queue.pop_front();
      Reader r(BytesView(data.data() + 1, data.size() - 1));
      const bool proposal =
          data[0] == static_cast<std::uint8_t>(MsgTag::kProposal);
      consensus::ProposalMsg prop;
      consensus::SignedVote vote;
      if (proposal) {
        prop = consensus::ProposalMsg::decode(r);
      } else {
        vote = consensus::SignedVote::decode(r);
      }
      const consensus::SignedVote& env = proposal ? prop.vote : vote;
      const Bytes sb = env.body.signing_bytes();
      for (std::size_t i = 0; i < n; ++i) {
        if (i != from &&
            !timed.verify(env.signer, BytesView(sb.data(), sb.size()),
                          BytesView(env.signature.data(),
                                    env.signature.size()))) {
          agreed = false;
          continue;
        }
        if (proposal) {
          engines[i]->handle_proposal(prop);
        } else {
          engines[i]->handle_vote(vote);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      agreed = agreed && decided[i] &&
               engines[i]->bitmask() == engines[0]->bitmask() &&
               engines[i]->outcome().size() == engines[0]->outcome().size();
      for (std::size_t s = 0; agreed && s < engines[i]->outcome().size(); ++s) {
        agreed = engines[i]->outcome()[s].digest ==
                 engines[0]->outcome()[s].digest;
      }
    }
    spans.add("consensus.instance", 0, 0, k0, now_ns(), n);
  }
  const std::int64_t total = now_ns() - t0;
  out.check(agreed, "consensus: replayed quorum decides identically");
  const double k = static_cast<double>(payloads.empty() ? 1 : payloads.size());
  out.set("consensus.replay_ms_per_instance",
          static_cast<double>(total) * 1e-6 / k, "ms");
  out.set("consensus.replay_self_ms_per_instance",
          static_cast<double>(total - timed.sign_ns - timed.verify_ns) * 1e-6 /
              k,
          "ms");
  out.set("consensus.verifies_per_instance",
          static_cast<double>(timed.verifies) / k, "count");
  spans.add("consensus.sign", 0, 0, 0, timed.sign_ns, timed.signs);
  spans.add("consensus.verify", 0, 0, 0, timed.verify_ns, timed.verifies);
}

}  // namespace perfbench
