// Mempool backpressure: the queue is bounded, the bound is visible as
// kFull (distinct from duplicate suppression), capacity frees up as
// batches drain, and a full queue propagates through a LiveNode's
// client gateway as SubmitStatus::kRejected.
#include <gtest/gtest.h>

#include <thread>

#include "chain/mempool.hpp"
#include "chain/wallet.hpp"
#include "net/client_gateway.hpp"
#include "net/live_node.hpp"

namespace zlb::chain {
namespace {

/// n distinct valid transactions from one funded wallet.
std::vector<Transaction> make_txs(std::size_t n) {
  Wallet alice(to_bytes("alice"));
  Wallet bob(to_bytes("bob"));
  UtxoSet utxos;
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < n; ++i) {
    utxos.mint(alice.address(), 100);
    const auto tx = alice.pay(utxos, bob.address(), 10 + static_cast<Amount>(i % 7));
    if (tx) txs.push_back(*tx);
  }
  return txs;
}

TEST(MempoolLimits, CapacityRejectsWithDistinctStatus) {
  Mempool pool(3);
  const auto txs = make_txs(5);
  ASSERT_EQ(txs.size(), 5u);
  EXPECT_EQ(pool.try_add(txs[0]), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.try_add(txs[1]), Mempool::AddResult::kAdded);
  EXPECT_EQ(pool.try_add(txs[2]), Mempool::AddResult::kAdded);
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.try_add(txs[3]), Mempool::AddResult::kFull);
  // Duplicates of queued txs are reported as duplicates, not as full.
  EXPECT_EQ(pool.try_add(txs[0]), Mempool::AddResult::kDuplicate);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.rejected_full(), 1u);
}

TEST(MempoolLimits, DrainingFreesCapacity) {
  Mempool pool(2);
  const auto txs = make_txs(4);
  ASSERT_EQ(pool.try_add(txs[0]), Mempool::AddResult::kAdded);
  ASSERT_EQ(pool.try_add(txs[1]), Mempool::AddResult::kAdded);
  ASSERT_EQ(pool.try_add(txs[2]), Mempool::AddResult::kFull);
  const auto batch = pool.take_batch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(pool.try_add(txs[2]), Mempool::AddResult::kAdded);
  // A drained tx may be re-added later (re-queue on lost slot).
  (void)pool.take_batch(10);
  EXPECT_EQ(pool.try_add(batch[0]), Mempool::AddResult::kAdded);
}

TEST(MempoolLimits, ReadmitGoesToTheFrontWithOriginalStamps) {
  // A batch that lost its slot was ACKed before anything queued since:
  // it goes back to the head of the queue, in order, keeping the
  // admission stamps that measure its wait.
  common::ManualClock clock(10);
  Mempool pool(3);
  pool.set_clock(&clock);
  const auto txs = make_txs(4);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(pool.try_add(txs[i]), Mempool::AddResult::kAdded);
    clock.advance(10);
  }
  auto lost = pool.take_entries(2);
  ASSERT_EQ(lost.size(), 2u);
  ASSERT_EQ(pool.try_add(txs[3]), Mempool::AddResult::kAdded);  // t=40
  EXPECT_EQ(pool.oldest_pending_ns(), 30'000'000'000);
  // Capacity does not apply to readmission; duplicates still do.
  lost.push_back(lost.front());
  EXPECT_EQ(pool.readmit(std::move(lost)), 2u);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.oldest_pending_ns(), 10'000'000'000);
  // A block capped at two carries the readmitted pair first.
  const auto next = pool.take_entries(2);
  ASSERT_EQ(next.size(), 2u);
  EXPECT_EQ(next[0].tx.id(), txs[0].id());
  EXPECT_EQ(next[1].tx.id(), txs[1].id());
  EXPECT_EQ(next[1].admitted_ns, 20'000'000'000);
  const auto rest = pool.take_batch(10);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].id(), txs[2].id());
  EXPECT_EQ(rest[1].id(), txs[3].id());
}

TEST(MempoolLimits, ZeroCapacityMeansUnbounded) {
  Mempool pool;
  const auto txs = make_txs(16);
  for (const auto& tx : txs) {
    EXPECT_EQ(pool.try_add(tx), Mempool::AddResult::kAdded);
  }
  EXPECT_FALSE(pool.full());
  EXPECT_EQ(pool.rejected_full(), 0u);
}

}  // namespace
}  // namespace zlb::chain

namespace zlb::net {
namespace {

using namespace std::chrono_literals;

TEST(MempoolLimits, GatewayAnswersRejectedWhenNodeQueueIsFull) {
  // A standalone payment node with a tiny mempool and an effectively
  // stalled chain (enormous block interval, no peers): sustained
  // client traffic must hit kRejected, not unbounded growth.
  LiveNodeConfig cfg;
  cfg.me = 0;
  cfg.committee = {0, 1, 2, 3};  // quorum never met: nothing drains
  cfg.instances = 10;
  cfg.use_ecdsa = false;
  cfg.real_blocks = true;
  cfg.mempool_capacity = 2;
  cfg.block_interval = std::chrono::seconds(60);
  LiveNode node(cfg);
  chain::Wallet alice(to_bytes("alice"));
  node.block_manager().utxos().mint(alice.address(), 10'000);

  std::thread t([&node] { node.run(30s); });
  std::optional<GatewayClient> client;
  const auto connect_deadline = Clock::now() + 10s;
  while (!client && Clock::now() < connect_deadline) {
    client = GatewayClient::connect(node.client_port());
    if (!client) std::this_thread::sleep_for(20ms);
  }
  ASSERT_TRUE(client.has_value());

  chain::Wallet bob(to_bytes("bob"));
  chain::UtxoSet view;
  view.mint(alice.address(), 10'000);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 6; ++i) {
    const auto tx = alice.pay(view, bob.address(), 50);
    ASSERT_TRUE(tx.has_value());
    for (const auto& in : tx->inputs) view.consume(in.prev);
    view.insert_outputs(*tx);
    const auto ack = client->submit(*tx);
    ASSERT_TRUE(ack.has_value());
    if (*ack == SubmitStatus::kAccepted) ++accepted;
    if (*ack == SubmitStatus::kRejected) ++rejected;
  }
  node.stop();
  t.join();
  // The node's own proposal drains up to one batch into instance 0
  // before the quorum stalls it, so a couple extra accepts are
  // possible — but the bound must kick in within the burst.
  EXPECT_GE(accepted, 2);
  EXPECT_GE(rejected, 1) << "backpressure never engaged";
}

}  // namespace
}  // namespace zlb::net
