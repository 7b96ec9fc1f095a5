// Distributed-DPD performance through the exchange layer
// (src/dpd/exchange/), on threads-mode xmp ranks:
//
//   strong scaling — pairs/sec for the same global system stepped on 1, 2
//     and 4 ranks. The single-rank baseline is the plain engine with no
//     decomposition driver, so the speedup includes every halo/migration
//     overhead the distributed path pays. Prints DPD_SCALING_SPEEDUP (4
//     ranks vs 1).
//   rebalancing — a skewed population (everything in x < box.x/2) on 4
//     ranks split along x, stepped with and without particle-count load
//     balancing (DistOptions::rebalance_every, Decomposition::rebalance).
//     Rebalancing is bitwise trajectory-neutral (tests/dpd_exchange_test.cpp),
//     so this is a pure wall-time ratio. Prints DPD_REBALANCE_SPEEDUP.
//
// Writes BENCH_dpd_scaling.json. Exits non-zero when a ratio falls below
// NEKTARG_DPD_SCALING_MIN_SPEEDUP / NEKTARG_DPD_REBALANCE_MIN_SPEEDUP —
// unset, the gates are a loose 0.0: threads-mode ranks only scale with real
// cores, and dev boxes may have one (CI pins 2.0 and 1.30 on its 4-core
// runners).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "dpd/exchange/distributed.hpp"
#include "dpd/system.hpp"
#include "telemetry/bench_report.hpp"
#include "xmp/comm.hpp"

namespace {

constexpr double kDensity = 3.0;
constexpr int kRanks = 4;
constexpr int kWarmupSteps = 10;
constexpr int kSteps = 30;
constexpr int kRepeats = 3;

dpd::DpdParams params() {
  dpd::DpdParams prm;
  prm.box = {16.0, 8.0, 8.0};
  prm.periodic = {true, true, false};
  return prm;
}

std::shared_ptr<dpd::DpdSystem> make_system(bool skewed) {
  const auto prm = params();
  auto sys = std::make_shared<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys->fill(kDensity, dpd::kSolvent, 42);
  if (skewed) {
    // Crowd everything into x < box.x/2 — a uniform x-split leaves half the
    // ranks idle, the worst case the rebalancer is built for.
    std::vector<std::size_t> drop;
    for (std::size_t i = 0; i < sys->size(); ++i)
      if (sys->positions()[i].x > prm.box.x / 2.0) drop.push_back(i);
    sys->remove_particles(std::move(drop));
  }
  sys->set_body_force([](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{0.05, 0.0, 0.0}; });
  return sys;
}

/// Best-of-kRepeats wall time for kSteps on `nranks` ranks (1 = plain
/// engine, no driver).
double time_steps(int nranks, bool skewed, const dpd::exchange::DistOptions& opt) {
  double best_ms = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    double ms = 0.0;
    if (nranks == 1) {
      auto sys = make_system(skewed);
      for (int s = 0; s < kWarmupSteps; ++s) sys->step();
      const auto t0 = std::chrono::steady_clock::now();
      for (int s = 0; s < kSteps; ++s) sys->step();
      const auto t1 = std::chrono::steady_clock::now();
      ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    } else {
      xmp::run(nranks, [&](xmp::Comm& world) {
        auto sys = make_system(skewed);
        dpd::exchange::DistributedDpd drv(world, *sys, opt);
        drv.distribute();
        for (int s = 0; s < kWarmupSteps; ++s) sys->step();
        const auto t0 = std::chrono::steady_clock::now();
        for (int s = 0; s < kSteps; ++s) sys->step();
        const auto t1 = std::chrono::steady_clock::now();
        if (world.rank() == 0)
          ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      });
    }
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

/// Global pair count at rc after warmup (plain engine), for the pairs/sec
/// normalisation.
std::size_t probe_pairs(bool skewed) {
  auto sys = make_system(skewed);
  for (int s = 0; s < kWarmupSteps; ++s) sys->step();
  std::size_t pairs = 0;
  sys->for_each_pair([&](std::size_t, std::size_t, const dpd::Vec3&, double) { ++pairs; });
  return pairs;
}

/// Pairs/sec over the timed window: DpdSystem::step does one force
/// evaluation per step (the extra step-0 pass falls inside the warmup).
double pairs_per_sec(std::size_t pairs, double ms) {
  return static_cast<double>(pairs) * kSteps / (ms * 1e-3);
}

}  // namespace

int main() {
  std::printf("=== Distributed DPD scaling + rebalancing (threads-mode ranks) ===\n");

  const std::size_t pairs_balanced = probe_pairs(false);
  const std::size_t pairs_skewed = probe_pairs(true);
  std::printf("global pairs: balanced=%zu skewed=%zu steps=%d\n", pairs_balanced, pairs_skewed,
              kSteps);

  telemetry::BenchReport rep("dpd_scaling");
  rep.meta("n", static_cast<double>(make_system(false)->size()));
  rep.meta("pairs", static_cast<double>(pairs_balanced));
  rep.meta("pairs_skewed", static_cast<double>(pairs_skewed));
  rep.meta("steps", static_cast<double>(kSteps));

  double t1 = 0.0, t4 = 0.0;
  std::printf("ranks    time/step    pairs/sec    speedup\n");
  for (int nranks : {1, 2, kRanks}) {
    const double ms = time_steps(nranks, false, {});
    const double pps = pairs_per_sec(pairs_balanced, ms);
    if (nranks == 1) t1 = ms;
    if (nranks == kRanks) t4 = ms;
    std::printf("%5d   %7.2f ms  %10.3e    %6.2f\n", nranks, ms / kSteps, pps, t1 / ms);
    rep.row();
    rep.set("ranks", static_cast<double>(nranks));
    rep.set("best_ms", ms);
    rep.set("pairs_per_sec", pps);
    rep.set("speedup", t1 / ms);
  }

  std::printf("case (%d ranks, x-split)     time/step    pairs/sec\n", kRanks);
  const auto skewed_case = [&rep, pairs_skewed](const char* name, int rebalance_every) {
    dpd::exchange::DistOptions opt;
    opt.dims = {kRanks, 1, 1};
    opt.rebalance_every = rebalance_every;
    const double ms = time_steps(kRanks, true, opt);
    const double pps = pairs_per_sec(pairs_skewed, ms);
    std::printf("%-26s %7.2f ms  %10.3e\n", name, ms / kSteps, pps);
    rep.row();
    rep.set("ranks", static_cast<double>(kRanks));
    rep.set("case", name);
    rep.set("best_ms", ms);
    rep.set("pairs_per_sec", pps);
    return ms;
  };
  const double no_rebalance_ms = skewed_case("skewed  no rebalance", 0);
  const double rebalance_ms = skewed_case("skewed  rebalance every 5", 5);

  const double speedup = t1 / t4;
  const double rebalance_speedup = no_rebalance_ms / rebalance_ms;
  std::printf("DPD_SCALING_SPEEDUP=%.2f\n", speedup);
  std::printf("DPD_REBALANCE_SPEEDUP=%.2f\n", rebalance_speedup);
  rep.meta("speedup_4r", speedup);
  rep.meta("rebalance_speedup", rebalance_speedup);
  rep.write();

  int rc = 0;
  const auto gate = [&rc](const char* env, const char* what, double got) {
    double min = 0.0;
    if (const char* v = std::getenv(env)) min = std::atof(v);
    if (got < min) {
      std::fprintf(stderr, "FAIL: %s %.2f below gate %.2f\n", what, got, min);
      rc = 1;
    }
  };
  gate("NEKTARG_DPD_SCALING_MIN_SPEEDUP", "speedup", speedup);
  gate("NEKTARG_DPD_REBALANCE_MIN_SPEEDUP", "rebalance speedup", rebalance_speedup);
  return rc;
}
