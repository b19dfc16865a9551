// The live workload: four LiveNodes over loopback TCP in payment mode
// (real chain::Blocks, real ECDSA on votes and transactions), driven
// by an open-loop generator that sends seeded Poisson arrivals to the
// nodes' client gateways round-robin.
//
// Measurement never touches a node's ledger lock while load runs: the
// generator matches gateway ACKs first-in-first-out per connection,
// a poller samples each node's atomic CommitPipeline::committed_floor(),
// and each transaction is mapped to its instance from the node's block
// store only after the nodes were stopped and joined.
#include "workloads.hpp"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>

#include "chain/wallet.hpp"
#include "common/rng.hpp"
#include "crypto/signer.hpp"
#include "net/client_gateway.hpp"
#include "net/frame.hpp"
#include "net/live_node.hpp"
#include "net/socket.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace zlb;

namespace {

constexpr std::size_t kNodes = 4;
/// Deployments built per run; setup_s is the median of their set-up
/// times and the last one serves the load.
constexpr int kSetupRepeats = 3;
/// The drain ends once every node's committed floor is this many
/// instances past the highest decided count at the last ACK (four
/// times the default pipeline window, so every ACKed transaction had
/// several proposals to land in) and kDrainMinS passed: the slowest
/// transactions seen took over 4 s, longer than 16 instances take.
constexpr InstanceId kDrainInstances = 16;
constexpr double kDrainMinS = 5;
constexpr double kDrainTimeoutS = 20;
/// Generator gives up on missing ACKs this long after the last send.
constexpr double kAckTimeoutS = 10;
constexpr std::size_t kRecipients = 64;
constexpr std::size_t kSignSample = 128;
constexpr std::size_t kQuorumReplayInstances = 8;
constexpr std::size_t kPresignThreads = 4;
/// A verify stage slower than this verified at least one signature
/// (one ECDSA verification takes about 200 us).
constexpr std::int64_t kVerifyWorkNs = 50'000;

/// Offered load: transactions per second, and distinct signing keys.
constexpr double kRate = 200;
constexpr std::size_t kSenders = 256;

chain::Address tagged_address(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = mix64(seed) ^ mix64(tag + 0x5bd1e995ULL);
  chain::Address a;
  for (std::size_t i = 0; i < a.data.size(); i += 8) {
    const std::uint64_t v = splitmix64(state);
    for (std::size_t b = 0; b < 8 && i + b < a.data.size(); ++b) {
      a.data[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
  return a;
}

Bytes sender_seed(std::uint64_t seed, std::size_t s) {
  return to_bytes("perfbench/" + std::to_string(seed) + "/sender/" +
                  std::to_string(s));
}

/// Everything the generator sends, made from the seed before set-up:
/// arrival times, one signed payment per arrival (each spending its own
/// genesis coin), and the genesis that funds them.
struct Plan {
  std::vector<std::int64_t> due_ns;  ///< offsets from load start, sorted
  std::vector<chain::Transaction> txs;
  std::vector<Bytes> frames;
  std::vector<chain::TxId> ids;
  std::vector<chain::Amount> coin_values;
  std::vector<chain::Address> sender_addr;  ///< by sender index
  std::vector<chain::Address> recipients;
  chain::Amount amount = 0;
  std::uint64_t seed = 0;
  std::vector<std::pair<crypto::PrivateKey, crypto::Hash32>> sign_sample;
  double presign_s = 0;

  void mint_genesis(chain::UtxoSet& u) const {
    for (std::size_t i = 0; i < txs.size(); ++i) {
      u.mint(sender_addr[i % kSenders], coin_values[i]);
    }
  }
  [[nodiscard]] chain::Amount genesis_total() const {
    return std::accumulate(coin_values.begin(), coin_values.end(),
                           chain::Amount{0});
  }
};

Plan make_plan(std::uint64_t seed, double seconds) {
  Plan p;
  p.seed = seed;
  Rng rng(mix64(seed ^ 0x70657266ULL));
  // A Poisson process conditioned on its count: N uniform arrival
  // times, sorted. Fixing N keeps the offered load identical across
  // seeds while the arrival pattern stays Poisson.
  const auto n = static_cast<std::size_t>(kRate * seconds + 0.5);
  p.due_ns.resize(n);
  for (auto& d : p.due_ns) {
    d = static_cast<std::int64_t>(rng.next_double() * seconds * 1e9);
  }
  std::sort(p.due_ns.begin(), p.due_ns.end());
  p.amount = 1 + static_cast<chain::Amount>(rng.next_below(100));
  p.coin_values.resize(n);
  std::vector<std::size_t> recipient_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.coin_values[i] =
        p.amount + 1 + static_cast<chain::Amount>(rng.next_below(10000));
    recipient_of[i] = static_cast<std::size_t>(rng.next_below(kRecipients));
  }
  for (std::size_t j = 0; j < kRecipients; ++j) {
    p.recipients.push_back(tagged_address(seed, j));
  }
  // Genesis outpoints depend only on the mint order, not the owner.
  std::vector<chain::OutPoint> coin_op(n);
  {
    chain::UtxoSet scratch;
    for (std::size_t i = 0; i < n; ++i) {
      coin_op[i] = scratch.mint(chain::Address{}, 1);
    }
  }

  const std::int64_t t0 = now_ns();
  p.txs.resize(n);
  p.frames.resize(n);
  p.ids.resize(n);
  p.sender_addr.resize(kSenders);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kPresignThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t s = t; s < kSenders; s += kPresignThreads) {
        const Bytes key_seed = sender_seed(seed, s);
        chain::Wallet wallet(BytesView(key_seed.data(), key_seed.size()));
        p.sender_addr[s] = wallet.address();
        for (std::size_t i = s; i < n; i += kSenders) {
          const std::vector<std::pair<chain::OutPoint, chain::TxOut>> coins{
              {coin_op[i], chain::TxOut{p.coin_values[i], wallet.address()}}};
          p.txs[i] = wallet.pay_from(coins, p.recipients[recipient_of[i]],
                                     p.amount);
          const Bytes body = p.txs[i].serialize();
          p.frames[i] = net::encode_frame(BytesView(body.data(), body.size()));
          p.ids[i] = p.txs[i].id();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  p.presign_s = secs_since(t0);

  for (std::size_t s = 0; s < std::min({kSignSample, kSenders, n}); ++s) {
    const Bytes key_seed = sender_seed(seed, s);
    p.sign_sample.emplace_back(
        crypto::PrivateKey::from_seed(BytesView(key_seed.data(), key_seed.size())),
        p.txs[s].body_digest());
  }
  return p;
}

/// Four payment-mode LiveNodes with the LiveNodeConfig defaults, each
/// on its own thread; stops and joins them on every exit path.
class Deployment {
 public:
  explicit Deployment(const Plan& plan) {
    std::vector<ReplicaId> committee;
    for (ReplicaId i = 0; i < kNodes; ++i) committee.push_back(i);
    std::map<ReplicaId, std::uint16_t> ports;
    for (ReplicaId i = 0; i < kNodes; ++i) {
      net::LiveNodeConfig cfg;
      cfg.me = i;
      cfg.committee = committee;
      cfg.instances = 1'000'000;  // the harness stops the nodes
      cfg.real_blocks = true;
      nodes_.push_back(std::make_unique<net::LiveNode>(cfg));
      plan.mint_genesis(nodes_.back()->block_manager().utxos());
      ports[i] = nodes_.back()->port();
    }
    for (auto& node : nodes_) node->set_peer_ports(ports);
  }
  ~Deployment() { stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void start() {
    for (auto& node : nodes_) {
      threads_.emplace_back(
          [n = node.get()] { n->run(std::chrono::seconds(600)); });
    }
  }
  /// True once every node decided an instance (all links are up).
  bool wait_warm(double timeout_s) const {
    const std::int64_t t0 = now_ns();
    while (secs_since(t0) < timeout_s) {
      bool warm = true;
      for (const auto& node : nodes_) warm = warm && node->decided_count() > 0;
      if (warm) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }
  void stop() {
    for (auto& node : nodes_) node->stop();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }
  [[nodiscard]] net::LiveNode& node(std::size_t i) { return *nodes_.at(i); }

 private:
  std::vector<std::unique_ptr<net::LiveNode>> nodes_;
  std::vector<std::thread> threads_;
};

/// One non-blocking gateway connection of the generator.
struct Conn {
  net::Fd fd;
  Bytes out;
  std::size_t offset = 0;
  net::FrameDecoder decoder;
  std::deque<std::size_t> inflight;  ///< tx indices awaiting their ACK
};

std::optional<net::Fd> connect_blocking(std::uint16_t port) {
  auto fd = net::connect_loopback(port);
  if (!fd) return std::nullopt;
  pollfd p{fd->get(), POLLOUT, 0};
  if (::poll(&p, 1, 5000) <= 0 || !net::connect_finished(*fd)) {
    return std::nullopt;
  }
  return fd;
}

struct Timeline {
  std::vector<std::int64_t> sent_ns;
  std::vector<std::int64_t> ack_ns;
  std::vector<std::uint8_t> status;  ///< SubmitStatus, 0 = no ACK
  std::size_t acked = 0;
  bool io_error = false;
};

/// The open-loop generator: every transaction is written when due,
/// whatever is still unacknowledged; ACKs are matched FIFO per
/// connection. Spans (traced passes) are recorded as events happen.
void generate(const Plan& plan, std::vector<Conn>& conns, std::int64_t t0,
              Timeline& tl, SpanLog* spans,
              const std::vector<std::uint64_t>& tx_span) {
  const std::size_t n = plan.txs.size();
  tl.sent_ns.assign(n, 0);
  tl.ack_ns.assign(n, 0);
  tl.status.assign(n, 0);
  std::vector<pollfd> pfds(conns.size());
  std::size_t next = 0;
  std::int64_t last_send = t0;
  while (tl.acked < n && !tl.io_error) {
    std::int64_t now = now_ns();
    while (next < n && now >= t0 + plan.due_ns[next]) {
      Conn& c = conns[next % conns.size()];
      const Bytes& frame = plan.frames[next];
      c.out.insert(c.out.end(), frame.begin(), frame.end());
      c.inflight.push_back(next);
      tl.sent_ns[next] = now;
      if (spans != nullptr) {
        spans->add("load.send", tx_span[next], next + 1,
                   t0 + plan.due_ns[next], now);
      }
      ++next;
      last_send = now;
    }
    for (Conn& c : conns) {
      if (c.offset == c.out.size()) continue;
      if (net::write_some(c.fd, c.out, c.offset) == net::IoStatus::kError) {
        tl.io_error = true;
      }
      if (c.offset == c.out.size()) {
        c.out.clear();
        c.offset = 0;
      }
    }
    if (next == n && secs_since(last_send) > kAckTimeoutS) break;

    const std::int64_t wait_ns =
        next < n ? std::clamp<std::int64_t>(t0 + plan.due_ns[next] - now, 0,
                                            1'000'000)
                 : 1'000'000;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = pollfd{conns[i].fd.get(),
                       static_cast<short>(
                           POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)),
                       0};
    }
    const timespec ts{0, static_cast<long>(wait_ns)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns[i];
      Bytes chunk;
      const net::IoStatus st = net::read_available(c.fd, chunk);
      if (st == net::IoStatus::kClosed || st == net::IoStatus::kError) {
        tl.io_error = true;
        break;
      }
      const std::int64_t at = now_ns();
      const bool ok = c.decoder.feed(
          BytesView(chunk.data(), chunk.size()), [&](BytesView payload) {
            if (c.inflight.empty()) {
              tl.io_error = true;
              return;
            }
            const std::size_t idx = c.inflight.front();
            c.inflight.pop_front();
            tl.ack_ns[idx] = at;
            tl.status[idx] = payload.size() == 1 ? payload[0] : 0;
            ++tl.acked;
            if (spans != nullptr) {
              spans->add("net.gateway_ack", tx_span[idx], idx + 1,
                         tl.sent_ns[idx], at);
            }
          });
      if (!ok) tl.io_error = true;
    }
  }
}

/// Samples every node's committed floor; first_above[g][k] is the first
/// time node g was seen with instance k applied.
class FloorPoller {
 public:
  explicit FloorPoller(Deployment& d) : d_(d) {
    thread_ = std::thread([this] { loop(); });
  }
  ~FloorPoller() { stop(); }
  FloorPoller(const FloorPoller&) = delete;
  FloorPoller& operator=(const FloorPoller&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Thread-safe: the slowest node's committed floor.
  [[nodiscard]] InstanceId min_floor() const { return min_floor_.load(); }
  /// Valid after stop().
  [[nodiscard]] const std::vector<std::int64_t>& first_above(
      std::size_t g) const {
    return first_above_[g];
  }

 private:
  void loop() {
    while (!stop_.load()) {
      const std::int64_t now = now_ns();
      InstanceId lo = ~InstanceId{0};
      for (std::size_t g = 0; g < kNodes; ++g) {
        const InstanceId f = d_.node(g).pipeline()->committed_floor();
        while (first_above_[g].size() < f) first_above_[g].push_back(now);
        lo = std::min(lo, f);
      }
      min_floor_.store(lo);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Deployment& d_;
  std::array<std::vector<std::int64_t>, kNodes> first_above_;
  std::atomic<InstanceId> min_floor_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A node's decided blocks in (instance, slot) order.
std::vector<chain::Block> committed_blocks(const net::LiveNode& node) {
  const chain::BlockStore& store = node.block_manager().store();
  std::vector<chain::Block> out;
  if (store.size() == 0) return out;
  for (InstanceId k = 0; k <= store.max_index(); ++k) {
    for (const chain::BlockId& id : store.at_index(k)) {
      if (const chain::Block* b = store.get(id)) out.push_back(*b);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.index != b.index ? a.index < b.index : a.slot < b.slot;
  });
  return out;
}

/// Merged histogram of one series across nodes (all label sets whose
/// labels contain `label`, or every label set when it is empty).
struct Merged {
  obs::HistogramSnapshot hist;
  double scale = 1.0;
  std::uint64_t counter = 0;
  [[nodiscard]] double q_ms(double q) const {
    return hist.quantile(q) * scale * 1e3;
  }
  /// The same series without the buckets lying entirely below `raw`.
  [[nodiscard]] Merged above(std::int64_t raw) const {
    Merged m = *this;
    for (std::size_t i = 0; i < m.hist.buckets.size(); ++i) {
      if (obs::HistogramSnapshot::bucket_upper(i) >= raw) break;
      m.hist.count -= m.hist.buckets[i];
      m.hist.buckets[i] = 0;
    }
    return m;
  }
};

Merged merge_series(Deployment& d, const std::string& name,
                    const std::pair<std::string, std::string>& label = {}) {
  Merged m;
  m.hist.buckets.assign(obs::Histogram::kBuckets, 0);
  for (std::size_t g = 0; g < kNodes; ++g) {
    for (const obs::Sample& s : d.node(g).metrics().samples()) {
      if (s.name != name) continue;
      if (!label.first.empty() &&
          std::find(s.labels.begin(), s.labels.end(), label) ==
              s.labels.end()) {
        continue;
      }
      m.scale = s.scale;
      m.counter += s.counter_value;
      for (std::size_t i = 0; i < s.hist.buckets.size() && i < m.hist.buckets.size();
           ++i) {
        m.hist.buckets[i] += s.hist.buckets[i];
      }
      m.hist.count += s.hist.count;
      m.hist.sum += s.hist.sum;
    }
  }
  return m;
}

/// Identical ledgers on every replica, each committed payment credited
/// exactly once, and no coin created or destroyed. Runs after join.
void check_ledgers(Deployment& d, const Plan& plan, Result& res) {
  const crypto::Hash32 digest = d.node(0).state_digest();
  const std::set<chain::Address> recipients(plan.recipients.begin(),
                                            plan.recipients.end());
  for (std::size_t g = 0; g < kNodes; ++g) {
    const net::LiveNode& node = d.node(g);
    const std::string who = "live: replica " + std::to_string(g);
    res.check(node.state_digest() == digest, who + " state digest matches");
    std::size_t ours = 0;
    for (const auto& id : plan.ids) {
      ours += node.block_manager().knows_tx(id) ? 1 : 0;
    }
    chain::Amount received = 0;
    chain::Amount total = 0;
    for (const auto& [op, out] : node.block_manager().utxos().entries()) {
      total += out.value;
      if (recipients.count(out.to) != 0) received += out.value;
    }
    res.check(received == static_cast<chain::Amount>(ours) * plan.amount,
              who + " credits every committed payment exactly once");
    res.check(total == plan.genesis_total(), who + " conserves value");
  }
}

/// Per-layer metrics read from outside after join: transport counters,
/// the nodes' own series and block store.
void report_layers(Deployment& d, const std::vector<chain::Block>& blocks,
                   std::size_t committed, Result& res) {
  net::TransportStats ts_sum;
  std::uint64_t decided_slots = 0;
  std::uint64_t culprits = 0;
  for (std::size_t g = 0; g < kNodes; ++g) {
    const net::LiveNode& node = d.node(g);
    const net::TransportStats ts = node.transport_stats();
    ts_sum.frames_sent += ts.frames_sent;
    ts_sum.bytes_sent += ts.bytes_sent;
    ts_sum.reconnects += ts.reconnects;
    ts_sum.frames_dropped += ts.frames_dropped;
    decided_slots += node.decided_count() * kNodes;
    culprits = std::max(culprits, node.reconfig_stats().pof_culprits);
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  res.set("net.frames_per_instance",
          ratio(static_cast<double>(ts_sum.frames_sent),
                static_cast<double>(d.node(0).decided_count())),
          "count");
  res.set("net.bytes_per_tx",
          ratio(static_cast<double>(ts_sum.bytes_sent),
                static_cast<double>(committed)),
          "B");
  res.set("net.reconnects", static_cast<double>(ts_sum.reconnects), "count");
  res.set("net.frames_dropped", static_cast<double>(ts_sum.frames_dropped),
          "count");
  res.set("consensus.rounds_per_slot",
          ratio(static_cast<double>(
                    merge_series(d, "zlb_consensus_rounds_total").counter),
                static_cast<double>(decided_slots)),
          "count");
  const Merged decide = merge_series(d, "zlb_decide_latency_seconds");
  res.set("consensus.decide_p50_ms", decide.q_ms(0.50), "ms");
  res.set("consensus.decide_p99_ms", decide.q_ms(0.99), "ms");
  res.set("consensus.pofs", static_cast<double>(culprits), "count");
  // Most decided instances carry no transactions and their verify stage
  // takes about a microsecond; the p50 is over instances that verified
  // at least one signature.
  res.set("bm.pipeline_verify_p50_ms",
          merge_series(d, "zlb_pipeline_verify_seconds")
              .above(kVerifyWorkNs)
              .q_ms(0.50),
          "ms");
  res.set("bm.pipeline_apply_p50_ms",
          merge_series(d, "zlb_pipeline_apply_seconds").q_ms(0.50), "ms");
  res.set("bm.pipeline_journal_p99_ms",
          merge_series(d, "zlb_pipeline_journal_seconds").q_ms(0.99), "ms");
  // The tracer marks kCommit at decide time, so the apply phase's gap
  // is the decide -> apply time.
  res.set("bm.decide_to_apply_p50_ms",
          merge_series(d, "zlb_decide_phase_latency_seconds", {"phase", "apply"})
              .q_ms(0.50),
          "ms");
  res.set("chain.admit_to_propose_p50_ms",
          merge_series(d, "zlb_decide_phase_latency_seconds",
                       {"phase", "propose"})
              .q_ms(0.50),
          "ms");
  std::size_t block_txs = 0;
  for (const auto& b : blocks) block_txs += b.txs.size();
  res.set("chain.txs_per_block",
          ratio(static_cast<double>(block_txs),
                static_cast<double>(blocks.size())),
          "count");
  res.set("chain.mempool_rejected",
          static_cast<double>(
              merge_series(d, "zlb_mempool_rejected_total").counter),
          "count");
}

/// Traced passes: layer replays on the run's own inputs — replica 0's
/// decided blocks, its end-of-run ledger, and the workload's keys.
void replay_layers(Deployment& d, const Plan& plan,
                   const std::vector<chain::Block>& blocks, const Options& opt,
                   Result& res, SpanLog& spans) {
  LedgerReplayInput in;
  in.blocks = &blocks;
  in.genesis = [&plan](bm::BlockManager& bm) { plan.mint_genesis(bm.utxos()); };
  in.final_ledger = &d.node(0).block_manager();
  in.floor = d.node(0).pipeline()->committed_floor();
  in.journal_path =
      opt.work_dir + "/replay-" + std::to_string(opt.seed) + ".wal";
  in.sign_sample = plan.sign_sample;
  replay_ledger(in, res, spans);

  // The quorum replays the first instances that carried transactions,
  // each slot proposing what it proposed in the run (an empty block when
  // its slot was not decided).
  std::vector<std::vector<Bytes>> payloads;
  for (std::size_t b = 0;
       b < blocks.size() && payloads.size() < kQuorumReplayInstances;) {
    const InstanceId k = blocks[b].index;
    std::vector<Bytes> slots(kNodes);
    for (std::uint32_t s = 0; s < kNodes; ++s) {
      chain::Block empty;
      empty.index = k;
      empty.slot = s;
      empty.proposer = s;
      slots[s] = empty.serialize();
    }
    bool any_txs = false;
    for (; b < blocks.size() && blocks[b].index == k; ++b) {
      if (blocks[b].slot < kNodes) {
        slots[blocks[b].slot] = blocks[b].serialize();
        any_txs = any_txs || !blocks[b].txs.empty();
      }
    }
    if (any_txs) payloads.push_back(std::move(slots));
  }
  crypto::EcdsaScheme scheme;
  replay_quorum(kNodes, scheme, payloads, res, spans);
}

struct SetupOutcome {
  std::unique_ptr<Deployment> deployment;
  std::vector<Conn> conns;
  double setup_s = 0;
};

/// Builds, starts and warms a deployment and connects the generator:
/// everything up to the first timed send.
SetupOutcome set_up(const Plan& plan, SpanLog& spans, Result& res) {
  SetupOutcome s;
  const std::int64_t t0 = now_ns();
  s.deployment = std::make_unique<Deployment>(plan);
  s.deployment->start();
  const bool warm = s.deployment->wait_warm(30);
  res.check(warm, "live: every node decided its first instance");
  for (std::size_t g = 0; g < kNodes && warm; ++g) {
    auto fd = connect_blocking(s.deployment->node(g).client_port());
    res.check(fd.has_value(), "live: generator connects to every gateway");
    if (!fd) break;
    s.conns.push_back(Conn{std::move(*fd), {}, 0, {}, {}});
  }
  const std::int64_t t1 = now_ns();
  s.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  spans.add("live.setup", 0, 0, t0, t1, kNodes);
  return s;
}

}  // namespace

Result run_live_light(const Options& opt, SpanLog& spans) {
  Result res;
  const Plan plan = make_plan(opt.seed, opt.seconds);
  const std::size_t n = plan.txs.size();
  res.attempted = n;

  std::vector<double> setups;
  SetupOutcome live;
  for (int r = 0; r < kSetupRepeats; ++r) {
    live = SetupOutcome{};  // tears the previous deployment down first
    live = set_up(plan, spans, res);
    setups.push_back(live.setup_s);
  }
  if (!res.correct || live.conns.size() != kNodes) {
    res.failed = n;
    return res;
  }
  Deployment& d = *live.deployment;

  // Traced passes open every transaction's span up front so children
  // recorded by the generator can name it.
  std::vector<std::uint64_t> tx_span;
  const std::int64_t t0 = now_ns() + 20'000'000;  // load starts in 20 ms
  if (opt.trace) {
    spans.reserve(spans.spans().size() + 4 * n + 64);
    tx_span.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      tx_span[i] = spans.add("tx", 0, i + 1, t0 + plan.due_ns[i], 0);
    }
  }
  const auto window_end = t0 + static_cast<std::int64_t>(opt.seconds * 1e9);

  FloorPoller poller(d);
  std::this_thread::sleep_until(
      SteadyClock::time_point(std::chrono::nanoseconds(t0)));
  const std::uint64_t dc_start = d.node(0).decided_count();
  Timeline tl;
  generate(plan, live.conns, t0, tl, opt.trace ? &spans : nullptr, tx_span);
  const std::int64_t gen_end = now_ns();
  spans.add("load.generate", 0, 0, t0, gen_end, n);
  res.check(!tl.io_error, "live: gateway connections stay healthy");
  std::uint64_t dc_window = d.node(0).decided_count();
  if (gen_end < window_end) {
    std::this_thread::sleep_until(
        SteadyClock::time_point(std::chrono::nanoseconds(window_end)));
    dc_window = d.node(0).decided_count();
  }

  // Drain: at least kDrainMinS, and until every node applied
  // kDrainInstances past what was decided at the last ACK (or the drain
  // deadline passes).
  InstanceId target = 0;
  for (std::size_t g = 0; g < kNodes; ++g) {
    target = std::max<InstanceId>(target, d.node(g).decided_count());
  }
  target += kDrainInstances;
  const std::int64_t drain0 = now_ns();
  while ((poller.min_floor() < target || secs_since(drain0) < kDrainMinS) &&
         secs_since(drain0) < kDrainTimeoutS) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  spans.add("load.drain", 0, 0, drain0, now_ns());
  poller.stop();
  d.stop();

  // Map each transaction to the instance its gateway replica applied
  // it in; commit time is when that replica's floor passed it.
  std::array<std::vector<chain::Block>, kNodes> blocks;
  std::array<std::unordered_map<chain::TxId, InstanceId, crypto::Hash32Hasher>,
             kNodes>
      where;
  std::size_t duplicate_inclusions = 0;
  for (std::size_t g = 0; g < kNodes; ++g) {
    blocks[g] = committed_blocks(d.node(g));
    for (const auto& b : blocks[g]) {
      for (const auto& tx : b.txs) {
        if (!where[g].emplace(tx.id(), b.index).second) ++duplicate_inclusions;
      }
    }
  }
  std::vector<double> commit_ms;
  std::array<std::vector<double>, kNodes> commit_ms_by_gateway;
  std::vector<double> ack_us;
  std::vector<double> late_ms;
  std::size_t refused = 0, unacked = 0, uncommitted = 0, in_window = 0;
  std::int64_t last_commit = t0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = i % kNodes;
    const std::int64_t due = t0 + plan.due_ns[i];
    if (tl.sent_ns[i] != 0) {
      late_ms.push_back(static_cast<double>(tl.sent_ns[i] - due) * 1e-6);
    }
    if (tl.status[i] == 0) {
      ++unacked;
      continue;
    }
    ack_us.push_back(static_cast<double>(tl.ack_ns[i] - tl.sent_ns[i]) * 1e-3);
    if (tl.status[i] != static_cast<std::uint8_t>(net::SubmitStatus::kAccepted)) {
      ++refused;
      continue;
    }
    const auto it = where[g].find(plan.ids[i]);
    const std::vector<std::int64_t>& floor_log = poller.first_above(g);
    if (it == where[g].end() || floor_log.size() <= it->second) {
      ++uncommitted;
      continue;
    }
    const std::int64_t commit = floor_log[it->second];
    commit_ms.push_back(static_cast<double>(commit - due) * 1e-6);
    commit_ms_by_gateway[g].push_back(commit_ms.back());
    last_commit = std::max(last_commit, commit);
    if (commit <= window_end) ++in_window;
    if (opt.trace) {
      spans.add("commit.wait", tx_span[i], i + 1, tl.ack_ns[i], commit);
      spans.close(tx_span[i], commit);
    }
  }
  res.failed = refused + unacked + uncommitted;
  res.details["commit_samples"] = std::to_string(commit_ms.size());
  res.details["commit_mean_ms"] = std::to_string(
      commit_ms.empty() ? 0.0
                        : std::accumulate(commit_ms.begin(), commit_ms.end(), 0.0) /
                              static_cast<double>(commit_ms.size()));
  for (const double q : {0.9, 0.95, 0.999, 1.0}) {
    res.details["commit_q" + std::to_string(q).substr(0, 5) + "_ms"] =
        std::to_string(quantile(commit_ms, q));
  }
  // The tail usually sits on one replica's transactions, a different
  // replica from run to run; name it.
  for (std::size_t g = 0; g < kNodes; ++g) {
    res.details["commit_p99_ms_gateway" + std::to_string(g)] =
        std::to_string(quantile(commit_ms_by_gateway[g], 0.99));
  }
  res.details["refused"] = std::to_string(refused);
  res.details["unacked"] = std::to_string(unacked);
  res.details["uncommitted"] = std::to_string(uncommitted);
  res.details["duplicate_inclusions"] = std::to_string(duplicate_inclusions);

  check_ledgers(d, plan, res);

  res.set("setup_s", median(setups), "s");
  res.set("commit_p50_ms", quantile(commit_ms, 0.50), "ms");
  res.set("commit_p99_ms", quantile(commit_ms, 0.99), "ms");
  res.set("committed_tx_per_s", static_cast<double>(in_window) / opt.seconds,
          "1/s");
  res.set("sim_wall_s", static_cast<double>(last_commit - t0) * 1e-9, "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  res.set("failed_frac",
          static_cast<double>(res.failed) / static_cast<double>(n), "ratio");
  res.set("load.gen_late_p99_ms", quantile(late_ms, 0.99), "ms");
  res.set("load.presign_s", plan.presign_s, "s");
  res.set("net.gateway_ack_p99_us", quantile(ack_us, 0.99), "us");
  res.set("consensus.instances_per_s",
          static_cast<double>(dc_window - dc_start) / opt.seconds, "1/s");
  report_layers(d, blocks[0], commit_ms.size(), res);
  if (opt.trace) replay_layers(d, plan, blocks[0], opt, res, spans);
  return res;
}

}  // namespace perfbench
