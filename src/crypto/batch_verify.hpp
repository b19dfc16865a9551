// Parallel ECDSA batch verification. Independent signature checks from
// a block (or a vote bundle) fan out across the shared thread pool;
// results come back as one flag per job, in submission order, identical
// to what serial verify_digest would return — so callers (and the
// discrete-event simulator above them) stay deterministic regardless of
// core count.
//
// Thread-safety: a BatchVerifier is NOT itself thread-safe — one thread
// builds a batch and calls verify_all(); the internal parallelism is
// write-disjoint (each pool task fills results[i] for its own indices
// only), so no lock is needed or held here. Because verify_all() runs
// inside ThreadPool::parallel_for, a caller holding a lock across it
// must place that lock ABOVE ThreadPool::mu_ in the lock order and must
// never take the same lock from a pool task. LiveNode's batch
// verification runs on the commit pipeline's verifier thread with no
// LiveNode lock held; its documented order is decisions_mutex_ >
// ledger_mutex_ > pipeline internals (CommitPipeline::mu_,
// ThreadPool::mu_).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/ecdsa.hpp"

namespace zlb::common {
class ThreadPool;
}  // namespace zlb::common

namespace zlb::crypto {

class BatchVerifier {
 public:
  /// Uses `pool`, or the process-wide ThreadPool::shared() when null.
  explicit BatchVerifier(common::ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Queues one signature check. The compressed-key overload pays
  /// decompression inside the job (parallelized); the AffinePoint
  /// overload is for callers that already hold a decompressed key.
  void add(const PublicKey& pub, const Hash32& digest, const Signature& sig);
  void add(const AffinePoint& pub, const Hash32& digest,
           const Signature& sig);
  /// Queues a job that is already known to fail (e.g. an unparseable
  /// signature blob), keeping result indices aligned with inputs.
  void add_invalid();

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  /// Runs every queued check (in parallel when the pool has workers)
  /// and returns accept/reject per job, in add() order. Clears the
  /// queue, so the verifier can be reused for the next batch.
  [[nodiscard]] std::vector<std::uint8_t> verify_all();

 private:
  struct Job {
    enum class Kind : std::uint8_t { kCompressed, kAffine, kInvalid };
    Kind kind = Kind::kInvalid;
    PublicKey pub;     // kCompressed
    AffinePoint point; // kAffine
    Hash32 digest{};
    Signature sig;
  };

  common::ThreadPool* pool_;
  std::vector<Job> jobs_;
};

}  // namespace zlb::crypto
