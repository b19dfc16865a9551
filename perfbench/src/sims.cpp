// The two deterministic-simulator workloads: a large-committee
// throughput point of fig3 (sim_scale) and fig5's colluding-majority
// recovery at n = 20 (sim_attack). Both repeat a fixed scenario on one
// thread for the run's --seconds; its time is the only quantity that
// varies between repetitions of one seed. sim_wall_s is the median
// repetition's CPU time scaled to the host's quiet speed by the
// reference kernel of hostref.hpp; the raw CPU and wall times are in the
// details.
#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "bench_util.hpp"
#include "crypto/signer.hpp"
#include "hostref.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace zlb;

namespace {

/// fig3's scale point (two instances) at n = 30 instead of 50, so that
/// one run repeats it about ten times: at n = 50 one repetition takes
/// 10-13 s of CPU time on the host of NOTES.md.
constexpr std::size_t kScaleN = 30;
constexpr std::uint64_t kScaleInstances = 2;
/// Simulated drain after recovery, instead of fig5's 60 s: long enough
/// for catch-up to finish, for every honest replica to decide ten or more
/// epoch-1 instances and for the decided throughput to vary by only a few
/// percent between seeds (3 s left it varying by a fifth).
constexpr SimTime kAttackDrain = seconds(10);
/// Simulator events between two reference-kernel samples (~50 ms).
constexpr std::uint64_t kSliceEvents = 20000;
constexpr int kMinRepeats = 3;
/// Cluster constructions timed per repetition; setup_s is their median.
constexpr int kSetupsPerRepeat = 32;

/// Runs the simulator until stop() holds, its queue drains or `deadline`
/// passes, in slices of kSliceEvents events whose CPU time goes to
/// `timer`. Returns whether stop() held.
bool run_sliced(Cluster& cluster, const std::function<bool()>& stop,
                SimTime deadline, ScaledTimer& timer) {
  for (;;) {
    const std::uint64_t mark = cluster.sim().events_executed() + kSliceEvents;
    const std::int64_t c0 = process_cpu_ns();
    const bool paused = cluster.run_while(
        [&] { return cluster.sim().events_executed() >= mark || stop(); },
        deadline);
    timer.add_slice(static_cast<double>(process_cpu_ns() - c0) * 1e-9);
    if (!paused) return false;
    if (stop()) return true;
  }
}

/// What every repetition of one seed must reproduce exactly.
struct Fingerprint {
  std::size_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  SimTime end = 0;
  double tx_per_s = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(Cluster& cluster) {
  return Fingerprint{cluster.sim().events_executed(),
                     cluster.net().stats().messages,
                     cluster.net().stats().bytes, cluster.sim().now(),
                     cluster.report().decided_tx_per_sec};
}

struct Repeats {
  std::unique_ptr<Cluster> last;  ///< the last repetition, run to its end
  std::vector<double> scaled_s;   ///< per repetition
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  std::vector<double> setup_s;  ///< scaled, every construction
  std::vector<double> reference_s;
};

/// Repeats the scenario for opt.seconds of wall time, at least
/// kMinRepeats times. Each repetition times kSetupsPerRepeat
/// constructions of a Cluster (only one exists at a time), each scaled by
/// a reference sample taken just before it, keeps the last and runs
/// `scenario` on it; every repetition must end like the first.
Repeats repeat(const ClusterConfig& cfg, const Options& opt, Result& res,
               SpanLog& spans,
               const std::function<void(Cluster&, ScaledTimer&)>& scenario) {
  Repeats out;
  ScaledTimer timer;
  timer.warm_up();
  Fingerprint first;
  const std::int64_t start = now_ns();
  for (int rep = 0; rep < kMinRepeats || secs_since(start) < opt.seconds;
       ++rep) {
    for (int i = 0; i < kSetupsPerRepeat; ++i) {
      out.last.reset();
      // A reference sample before every construction: back to back, the
      // constructions switched between two speeds 50% apart with the
      // allocator's and caches' state; after the kernel each starts alike.
      timer.sample();
      const std::int64_t t0 = now_ns();
      const std::int64_t c0 = process_cpu_ns();
      out.last = std::make_unique<Cluster>(cfg);
      const std::int64_t c1 = process_cpu_ns();
      spans.add("zlb.cluster_setup", 0, 0, t0, now_ns(), cfg.n);
      out.setup_s.push_back(timer.scale(static_cast<double>(c1 - c0) * 1e-9));
    }
    timer.reset_sums();
    const std::int64_t t0 = now_ns();
    scenario(*out.last, timer);
    const std::int64_t t1 = now_ns();
    spans.add("sim.run", 0, 0, t0, t1, out.last->sim().events_executed());
    out.scaled_s.push_back(timer.scaled_s());
    out.cpu_s.push_back(timer.cpu_s());
    out.wall_s.push_back(static_cast<double>(t1 - t0) * 1e-9);

    const Fingerprint fp = fingerprint(*out.last);
    if (rep == 0) {
      first = fp;
    } else {
      res.check(fp == first, "sim: repetition " + std::to_string(rep) +
                                 " ran the same events as the first");
    }
  }
  out.reference_s = timer.reference_samples();
  return out;
}

/// Honest replicas' propose -> decide latency (simulated ms) of every
/// regular instance they decided.
std::vector<double> decide_latencies_ms(Cluster& cluster) {
  std::vector<double> out;
  for (ReplicaId id : cluster.honest_ids()) {
    const asmr::Replica& rep = cluster.replica(id);
    for (const auto& [key, rec] : rep.records()) {
      if (key.kind != consensus::InstanceKind::kRegular || !rec.decided) {
        continue;
      }
      const asmr::PhaseTimes* pt = rep.phase_times(key);
      if (pt == nullptr || pt->propose_time < 0) continue;
      out.push_back(static_cast<double>(rec.decide_time - pt->propose_time) *
                    1e-3);
    }
  }
  return out;
}

/// Metrics every sim workload reports the same way, from the last
/// repetition's cluster and every repetition's timings.
void sim_metrics(const Repeats& reps, Result& res) {
  Cluster& cluster = *reps.last;
  const ClusterReport rep = cluster.report();
  const std::vector<double> lat = decide_latencies_ms(cluster);
  const double cpu_s = median(reps.cpu_s);
  const double ref_ms = median(reps.reference_s) * 1e3;
  res.set("sim_wall_s", median(reps.scaled_s), "s");
  res.set("setup_s", median(reps.setup_s), "s");
  res.set("sim.run_cpu_s", cpu_s, "s");
  res.set("load.host_ref_ms", ref_ms, "ms");
  res.details["repeats"] = std::to_string(reps.scaled_s.size());
  res.details["cpu_s"] = std::to_string(cpu_s);
  res.details["host_ref_ms"] = std::to_string(ref_ms);
  res.details["wall_s"] = std::to_string(median(reps.wall_s));
  res.set("commit_p50_ms", quantile(lat, 0.50), "ms");
  res.set("commit_p99_ms", quantile(lat, 0.99), "ms");
  res.set("committed_tx_per_s", rep.decided_tx_per_sec, "1/s");
  res.details["commit_samples"] = std::to_string(lat.size());

  const auto events = static_cast<double>(cluster.sim().events_executed());
  const auto& net = cluster.net().stats();
  res.set("sim.events", events, "count");
  res.set("sim.events_per_s", cpu_s > 0 ? events / cpu_s : 0, "1/s");
  res.set("sim.messages", static_cast<double>(net.messages), "count");
  res.set("sim.events_per_message",
          net.messages > 0 ? events / static_cast<double>(net.messages) : 0,
          "ratio");
  res.set("sim.wire_mb", static_cast<double>(net.bytes) * 1e-6, "MB");
  res.set("zlb.sim_tx_per_s", rep.decided_tx_per_sec, "1/s");

  // bm.merged_txs and bm.deposit_spent are left unmeasured: the
  // replicas decide synthetic batch references, so no ledger is built and
  // the fork merge has no transactions to reconcile.
  std::uint64_t pofs = 0;
  for (ReplicaId id : cluster.honest_ids()) {
    pofs = std::max<std::uint64_t>(pofs, cluster.replica(id).metrics().pof_count);
  }
  res.set("consensus.pofs", static_cast<double>(pofs), "count");
  res.set("asmr.disagreements", static_cast<double>(rep.disagreements),
          "count");
  res.set("asmr.forked_instances", static_cast<double>(rep.forked_instances),
          "count");
  const auto sim_s = [](SimTime t) { return t < 0 ? 0.0 : to_seconds(t); };
  res.set("asmr.detect_sim_s", sim_s(rep.detect_time), "s");
  res.set("asmr.exclude_sim_s", sim_s(rep.exclude_time), "s");
  res.set("asmr.include_sim_s", sim_s(rep.include_time), "s");
  res.set("asmr.catchup_sim_s", sim_s(rep.catchup_time), "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The decided outcome of (epoch, k) must be identical on every honest
/// replica that decided it; returns how many honest replicas did.
std::size_t agree_on(Cluster& cluster, std::uint32_t epoch, InstanceId k,
                     Result& res) {
  const asmr::DecisionRecord* first = nullptr;
  std::size_t decided = 0;
  for (ReplicaId id : cluster.honest_ids()) {
    const auto* rec = cluster.replica(id).decision(epoch, k);
    if (rec == nullptr || !rec->decided) continue;
    ++decided;
    if (first == nullptr) {
      first = rec;
      continue;
    }
    res.check(rec->bitmask == first->bitmask && rec->digests == first->digests,
              "sim: honest replicas decided identical digests (epoch " +
                  std::to_string(epoch) + ", instance " + std::to_string(k) +
                  ")");
  }
  return decided;
}

/// consensus.replay_* at the workload's committee size: one instance of
/// an n-engine quorum under the simulator's signature scheme, each slot
/// proposing the encoded batch reference the simulated replicas move.
void replay_sim_quorum(const ClusterConfig& cfg, Result& res, SpanLog& spans) {
  crypto::SimScheme scheme(cfg.signature_size);
  std::vector<std::vector<Bytes>> payloads(1);
  for (std::size_t s = 0; s < cfg.n; ++s) {
    Writer w;
    chain::synthetic_ref(static_cast<ReplicaId>(s), 0,
                         cfg.replica.batch_tx_count, 400)
        .encode(w);
    payloads[0].push_back(w.data());
  }
  replay_quorum(cfg.n, scheme, payloads, res, spans);
}

}  // namespace

Result run_sim_scale(const Options& opt, SpanLog& spans) {
  const ClusterConfig cfg =
      bench::zlb_throughput_config(kScaleN, 10000, kScaleInstances, opt.seed);
  Result res;
  const Repeats reps =
      repeat(cfg, opt, res, spans, [](Cluster& cluster, ScaledTimer& timer) {
        run_sliced(cluster, [] { return false; }, seconds(3600), timer);
      });
  Cluster& cluster = *reps.last;

  const std::uint64_t instances = cfg.replica.max_instances;
  res.attempted = instances * cluster.honest_ids().size();
  std::uint64_t decided = 0;
  for (InstanceId k = 0; k < instances; ++k) {
    decided += agree_on(cluster, 0, k, res);
  }
  res.failed = res.attempted - decided;
  sim_metrics(reps, res);
  res.set("failed_frac",
          static_cast<double>(res.failed) / static_cast<double>(res.attempted),
          "ratio");
  if (opt.trace) replay_sim_quorum(cfg, res, spans);
  return res;
}

Result run_sim_attack(const Options& opt, SpanLog& spans) {
  ClusterConfig cfg = bench::attack_config(
      20, AttackKind::kBinaryConsensus, DelayModel::kUniform, ms(500),
      opt.seed);
  cfg.replica.catchup_blocks = 10;
  Result res;
  bool recovered = true;  // in every repetition
  SimTime recovered_at = -1;
  const Repeats reps = repeat(
      cfg, opt, res, spans, [&](Cluster& cluster, ScaledTimer& timer) {
        recovered = run_sliced(
                        cluster, [&] { return cluster.all_recovered(); },
                        seconds(1800), timer) &&
                    recovered;
        recovered_at = cluster.sim().now();
        run_sliced(cluster, [] { return false; }, recovered_at + kAttackDrain,
                   timer);
      });
  Cluster& cluster = *reps.last;

  res.attempted = 1;
  res.failed = recovered ? 0 : 1;
  res.check(recovered, "sim_attack: every honest replica recovered");
  const SimTime attack_start = cluster.adversary_shared() != nullptr
                                   ? cluster.adversary_shared()->first_equivocation
                                   : -1;
  res.check(attack_start >= 0, "sim_attack: the coalition equivocated");

  // Every honest replica excludes exactly the coalition.
  const std::set<ReplicaId> colluders(cluster.colluder_ids().begin(),
                                      cluster.colluder_ids().end());
  for (ReplicaId id : cluster.honest_ids()) {
    const auto& ex = cluster.replica(id).excluded();
    res.check(std::set<ReplicaId>(ex.begin(), ex.end()) == colluders,
              "sim_attack: replica " + std::to_string(id) +
                  " excluded exactly the colluders");
  }

  // After the merge, honest replicas agree on every post-recovery
  // decision. Epoch 1 resumes at the instance detection stopped, not at
  // 0, so every instance is scanned. The replicas decide synthetic batch
  // references and keep no ledger, so the decided digests are what can
  // differ between them.
  std::size_t decided_by_all = 0;
  for (InstanceId k = 0; k < cfg.replica.max_instances; ++k) {
    if (agree_on(cluster, 1, k, res) == cluster.honest_ids().size()) {
      ++decided_by_all;
    }
  }
  res.check(decided_by_all > 0,
            "sim_attack: every honest replica decided an epoch-1 instance");
  res.details["epoch1_decided_by_all"] = std::to_string(decided_by_all);

  sim_metrics(reps, res);
  res.set("failed_frac", static_cast<double>(res.failed), "ratio");
  res.set("recover_sim_s",
          recovered && attack_start >= 0
              ? to_seconds(recovered_at - attack_start)
              : 0.0,
          "s");
  if (opt.trace) replay_sim_quorum(cfg, res, spans);
  return res;
}

}  // namespace perfbench
