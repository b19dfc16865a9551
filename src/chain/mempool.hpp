// FIFO mempool with id-based deduplication; replicas batch from here
// when proposing (§4: "when sufficiently many payment requests have
// been received, the BM issues a batch of requests to the ASMR").
// Bounded: under sustained client traffic the queue refuses new
// transactions at `capacity` instead of growing without limit, and the
// client gateway turns that refusal into SubmitStatus::kRejected
// backpressure so wallets retry elsewhere.
#pragma once

#include <deque>
#include <unordered_set>

#include "chain/tx.hpp"
#include "common/clock.hpp"

namespace zlb::chain {

class Mempool {
 public:
  enum class AddResult : std::uint8_t {
    kAdded = 0,
    kDuplicate = 1,  ///< id already queued
    kFull = 2,       ///< at capacity — backpressure, not an error
  };

  /// capacity 0 = unbounded.
  explicit Mempool(std::size_t capacity = 0) : capacity_(capacity) {}

  [[nodiscard]] AddResult try_add(const Transaction& tx);
  /// Convenience: true iff the tx was newly queued.
  bool add(const Transaction& tx) { return try_add(tx) == AddResult::kAdded; }

  /// A queued transaction and its admission stamp.
  struct Entry {
    Transaction tx;
    std::int64_t admitted_ns = -1;
  };

  /// Re-queues transactions that were ALREADY admitted once (drained
  /// into a proposal that lost its slot) at the FRONT of the queue, in
  /// the given order and with their original admission stamps: they
  /// were ACKed before anything queued since, so a block capped at
  /// fewer transactions than the queue holds must carry them first.
  /// Ignores the capacity bound: the client holds an ACK for them, and
  /// backpressure belongs at admission, never after the ACK. Still
  /// deduplicates; returns how many were re-queued.
  std::size_t readmit(std::vector<Entry> entries);

  /// Removes and returns up to `max` transactions.
  [[nodiscard]] std::vector<Transaction> take_batch(std::size_t max);
  /// Same, keeping each transaction's admission stamp (for readmit).
  [[nodiscard]] std::vector<Entry> take_entries(std::size_t max);

  /// Drops any pending transaction whose id is in `committed`; returns
  /// how many were evicted. The commit pipeline calls this once per
  /// flush batch (one pass over the queue for many blocks) and feeds
  /// the count into the mempool eviction metric.
  std::size_t remove_committed(
      const std::unordered_set<TxId, crypto::Hash32Hasher>& committed);

  /// Observability: admissions are stamped with `clock->nanos()` so
  /// the lifecycle tracer can attribute queueing delay to the batch
  /// that drains them. Null (the default) stamps -1 — the sim/model-
  /// checker replicas never set a clock and stay bit-deterministic.
  void set_clock(const common::Clock* clock) { clock_ = clock; }
  /// Admission stamp of the transaction the next take_batch() drains
  /// first; -1 when empty or unstamped.
  [[nodiscard]] std::int64_t oldest_pending_ns() const {
    return queue_.empty() ? -1 : queue_.front().admitted_ns;
  }

  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool full() const {
    return capacity_ != 0 && queue_.size() >= capacity_;
  }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  /// Transactions refused at capacity since construction.
  [[nodiscard]] std::uint64_t rejected_full() const { return rejected_full_; }

 private:
  std::deque<Entry> queue_;
  std::unordered_set<TxId, crypto::Hash32Hasher> known_;
  std::size_t capacity_ = 0;
  std::uint64_t rejected_full_ = 0;
  const common::Clock* clock_ = nullptr;
};

}  // namespace zlb::chain
