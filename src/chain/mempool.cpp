#include "chain/mempool.hpp"

namespace zlb::chain {

Mempool::AddResult Mempool::try_add(const Transaction& tx) {
  const TxId id = tx.id();
  if (known_.count(id) != 0) return AddResult::kDuplicate;
  if (full()) {
    ++rejected_full_;
    return AddResult::kFull;
  }
  known_.insert(id);
  queue_.push_back(Entry{tx, clock_ != nullptr ? clock_->nanos() : -1});
  return AddResult::kAdded;
}

std::size_t Mempool::readmit(std::vector<Entry> entries) {
  std::vector<Entry> fresh;
  for (Entry& e : entries) {
    if (known_.insert(e.tx.id()).second) fresh.push_back(std::move(e));
  }
  // Back to front, so the batch keeps its order at the head of the queue.
  for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
    queue_.push_front(std::move(*it));
  }
  return fresh.size();
}

std::vector<Mempool::Entry> Mempool::take_entries(std::size_t max) {
  std::vector<Entry> out;
  while (!queue_.empty() && out.size() < max) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  for (const auto& e : out) known_.erase(e.tx.id());
  return out;
}

std::vector<Transaction> Mempool::take_batch(std::size_t max) {
  std::vector<Transaction> out;
  for (auto& e : take_entries(max)) out.push_back(std::move(e.tx));
  return out;
}

std::size_t Mempool::remove_committed(
    const std::unordered_set<TxId, crypto::Hash32Hasher>& committed) {
  std::deque<Entry> kept;
  std::size_t evicted = 0;
  for (Entry& e : queue_) {
    const TxId id = e.tx.id();
    if (committed.count(id) != 0) {
      known_.erase(id);
      ++evicted;
    } else {
      kept.push_back(std::move(e));
    }
  }
  queue_ = std::move(kept);
  return evicted;
}

}  // namespace zlb::chain
