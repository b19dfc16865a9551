// Per-layer replays of traced runs: after a workload finished, its
// recorded inputs are fed again through the layers' public functions,
// one call at a time, so each layer's cost is measured from outside
// with nothing else competing for the CPU.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bm/block_manager.hpp"
#include "chain/block.hpp"
#include "common.hpp"
#include "crypto/signer.hpp"

namespace perfbench {

/// Inputs of the ledger-side replay (chain, crypto, bm, sync layers).
struct LedgerReplayInput {
  /// Decided blocks of one replica, in commit (instance, slot) order.
  const std::vector<zlb::chain::Block>* blocks = nullptr;
  /// Seeds a fresh BlockManager with the run's genesis ledger.
  std::function<void(zlb::bm::BlockManager&)> genesis;
  /// End-of-run ledger of that replica and its committed floor.
  const zlb::bm::BlockManager* final_ledger = nullptr;
  zlb::InstanceId floor = 0;
  /// Journal file the replay may create (removed afterwards).
  std::string journal_path;
  /// Signing keys of a sample of the workload's senders, with one
  /// transaction body digest each (crypto.ecdsa_sign_us).
  std::vector<std::pair<zlb::crypto::PrivateKey, zlb::crypto::Hash32>>
      sign_sample;
};

/// Fills chain.replay_decode_us_per_tx, crypto.*, bm.replay_*,
/// sync.replay_* and sync.image_mb. Checks that the replayed ledger
/// reproduces the replica's state digest.
void replay_ledger(const LedgerReplayInput& in, Result& out, SpanLog& spans);

/// An in-process quorum of n SbcEngines deciding `payloads.size()`
/// instances (payloads[k][slot] is what slot `slot` proposes in
/// instance k), every message signed and verified through `scheme`
/// behind a timing wrapper. Fills consensus.replay_ms_per_instance,
/// consensus.replay_self_ms_per_instance (total minus sign and verify)
/// and consensus.verifies_per_instance; checks agreement.
void replay_quorum(std::size_t n, zlb::crypto::SignatureScheme& scheme,
                   const std::vector<std::vector<zlb::Bytes>>& payloads,
                   Result& out, SpanLog& spans);

}  // namespace perfbench
