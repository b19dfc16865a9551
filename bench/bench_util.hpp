// Shared configuration for the evaluation benches: the system variants
// of §5 (ZLB, Red Belly, Polygraph, HotStuff) with the calibrated cost
// model (c4.xlarge-like: 4 cores, ~750 Mb/s NIC, OpenSSL-era ECDSA
// verification ~300us/core, RSA verification cheaper per op but 256-byte
// signatures). Absolute numbers depend on these constants; the paper's
// *shapes* (who wins, crossovers) are what the benches reproduce.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/hotstuff.hpp"
#include "baselines/polygraph.hpp"
#include "baselines/redbelly.hpp"
#include "obs/expo.hpp"
#include "obs/trace.hpp"
#include "zlb/cluster.hpp"

namespace zlb::bench {

inline sim::NetConfig wan_net() {
  sim::NetConfig net;
  net.bandwidth_bytes_per_us = 93.75;  // ~750 Mb/s
  net.cores = 4.0;
  // per_unit_us is anchored to the measured BM_EcdsaVerify (see
  // bench/micro_crypto.cpp and README "Performance"): the fixed-base /
  // Shamir fast path brought one verification from ~595us to ~152us on
  // the calibration box, so the previously calibrated 300us shrinks by
  // the same 3.9x factor. It stays anchored there although the live
  // node now verifies committee votes through per-signer fixed-window
  // tables (BM_EcdsaSchemeVerify, ~3x cheaper than BM_EcdsaVerify), so
  // the modelled vote cost overstates the live one. Recalibrating it
  // from measurement is ROADMAP item 2.3; it moves every simulated
  // figure, so it is its own change.
  net.cpu = sim::CpuCost{5.0, 2.0, 76.0};
  return net;
}

inline std::size_t deceitful_for(std::size_t n) {
  return (5 * n + 8) / 9 - 1;  // ⌈5n/9⌉ − 1, the paper's default
}

/// ZLB with the paper's deployment parameters (f = 0 throughput mode).
inline ClusterConfig zlb_throughput_config(std::size_t n, std::uint32_t batch,
                                           std::uint64_t instances,
                                           std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.base_delay = DelayModel::kAws;
  cfg.net = wan_net();
  cfg.replica.batch_tx_count = batch;
  cfg.replica.max_instances = instances;
  cfg.replica.accountable = true;
  cfg.replica.confirmation = true;
  cfg.replica.log_slot_cap = 0;  // no PoF logging needed without faults
  cfg.seed = seed;
  return cfg;
}

inline ClusterConfig redbelly_config(std::size_t n, std::uint32_t batch,
                                     std::uint64_t instances,
                                     std::uint64_t seed) {
  // The baseline module is the single source of truth for what "Red
  // Belly" means; the bench only swaps in the calibrated WAN cost model.
  ClusterConfig cfg = baselines::redbelly_cluster_config(n, batch, instances, seed);
  cfg.net = wan_net();
  return cfg;
}

inline ClusterConfig polygraph_config(std::size_t n, std::uint32_t batch,
                                      std::uint64_t instances,
                                      std::uint64_t seed) {
  ClusterConfig cfg =
      baselines::polygraph_cluster_config(n, batch, instances, seed);
  cfg.net = wan_net();
  return cfg;
}

/// Attack-mode configuration (Figs. 4-6): d = ⌈5n/9⌉−1 colluders,
/// LAN-fast intra-partition links, injected cross-partition delays.
inline ClusterConfig attack_config(std::size_t n, AttackKind attack,
                                   DelayModel delay, SimTime uniform_mean,
                                   std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.deceitful = deceitful_for(n);
  cfg.attack = attack;
  cfg.base_delay = DelayModel::kAws;
  cfg.attack_delay = delay;
  cfg.attack_uniform_mean = uniform_mean;
  cfg.net = wan_net();
  // Realistic batches matter here: verifying them is what keeps an
  // instance open long enough for cross-partition votes to defuse the
  // fork under realistic (gamma/AWS) delays, exactly as in the paper.
  cfg.replica.batch_tx_count = 1000;
  cfg.replica.max_instances = 400;
  cfg.replica.log_slot_cap = 32;
  cfg.seed = seed;
  return cfg;
}

inline double hotstuff_tx_per_sec(std::size_t n, std::uint32_t batch,
                                  std::uint64_t seed) {
  baselines::HotStuffConfig cfg;
  cfg.batch_tx_count = batch;
  // Default client configuration of the paper's HotStuff: the proposal
  // payload flows through the leader (servers would otherwise only
  // exchange digests).
  cfg.digest_bytes = 400;
  cfg.max_views = 12;
  cfg.view_pacing = seconds(1.0);  // dedicated clients' batching cadence
  return baselines::run_hotstuff(n, cfg, wan_net(),
                                 std::make_shared<sim::AwsLatency>(), seed)
      .tx_per_sec;
}

/// JSON metrics snapshot of a finished cluster run, seen from one
/// honest replica: every decided regular instance is replayed into an
/// obs::InstanceTracer span (propose -> RBC deliver -> decide, using
/// the recorded sim timestamps; SimTime is microseconds, hence the
/// 1e-6 scale), so the benches emit the same
/// zlb_decide_latency_seconds / zlb_decide_phase_latency_seconds
/// series — with identical names and bucket boundaries — that a live
/// node serves on --metrics-port. One line, CI-archivable.
inline std::string metrics_json(Cluster& cluster, ReplicaId observer) {
  obs::Registry reg;
  // The clock is only consulted by mark(); every stamp below arrives
  // through mark_at() with recorded virtual time, keeping the snapshot
  // a pure function of the simulation.
  obs::InstanceTracer tracer(reg, &common::Clock::system(), /*scale=*/1e-6);
  const asmr::Replica& rep = cluster.replica(observer);
  for (const auto& [key, rec] : rep.records()) {
    if (key.kind != consensus::InstanceKind::kRegular || !rec.decided) {
      continue;
    }
    if (const asmr::PhaseTimes* pt = rep.phase_times(key)) {
      if (pt->propose_time >= 0) {
        tracer.mark_at(key.epoch, key.index, obs::Phase::kPropose,
                       pt->propose_time);
      }
      if (pt->deliver_time >= 0) {
        tracer.mark_at(key.epoch, key.index, obs::Phase::kDeliver,
                       pt->deliver_time);
      }
    }
    tracer.mark_at(key.epoch, key.index, obs::Phase::kDecide, rec.decide_time);
    tracer.finish(key.epoch, key.index);
  }
  // Commit-pipeline series parity: identical names (and histogram
  // bucket boundaries) to what a live node's --metrics-port serves, so
  // dashboards built on sim output work against deployments unchanged.
  // The sim applies blocks synchronously at the decide event, hence
  // depth == parked and the stage histograms carry no observations.
  reg.gauge("zlb_commit_floor",
            "Contiguous instance floor applied to the ledger")
      .set(static_cast<std::int64_t>(rep.commit_floor()));
  reg.gauge("zlb_pipeline_depth",
            "Decided instances inside the commit pipeline")
      .set(static_cast<std::int64_t>(rep.parked_commit_count()));
  reg.gauge("zlb_pipeline_parked",
            "Out-of-order decisions parked behind a gap")
      .set(static_cast<std::int64_t>(rep.parked_commit_count()));
  reg.counter("zlb_pipeline_blocks_committed_total",
              "Blocks applied by the commit pipeline")
      .inc(rep.block_manager().commit_order().size());
  (void)reg.histogram("zlb_pipeline_decode_seconds",
                      "Pipeline decode stage per decided instance", 1e-9);
  (void)reg.histogram(
      "zlb_pipeline_verify_seconds",
      "Pipeline batch signature verification per decided instance", 1e-9);
  (void)reg.histogram("zlb_pipeline_apply_seconds",
                      "Pipeline UTXO application per commit flush", 1e-9);
  (void)reg.histogram(
      "zlb_pipeline_journal_seconds",
      "Pipeline journal append + fsync barrier per commit flush", 1e-9);
  return obs::render_json(reg);
}

/// true => full paper grid; default trimmed grid keeps the suite quick.
inline bool full_sweep() {
  const char* env = std::getenv("ZLB_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

}  // namespace zlb::bench
