// Decomposed workload (dpd_closed_4r): the examples/dpd_decomposed closed
// channel (periodic x/y, walls in z, body force along x), enlarged, stepped
// by DistributedDpd over xmp::run on the fiber scheduler with one worker
// thread. An interval is a fixed number of DpdSystem::step calls on every
// rank, closed by a barrier whose per-rank wait is the exchange.wait_ms
// layer metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "dpd/exchange/distributed.hpp"
#include "dpd/geometry.hpp"
#include "telemetry/comm_matrix.hpp"
#include "xmp/comm.hpp"

namespace bench {

namespace {

struct ClosedSpec {
  dpd::Vec3 box;
  double density;
  unsigned seed;
  double body_force;
  int ranks;
  int steps_per_interval;
  int intervals;
  double temperature_tol;

  explicit ClosedSpec(const scenario::Json& in) {
    const auto num = [&in](const char* key) { return field(in, key).as_number(); };
    const auto& b = field(in, "box").elements();
    box = {b.at(0).as_number(), b.at(1).as_number(), b.at(2).as_number()};
    density = num("density");
    seed = static_cast<unsigned>(num("seed"));
    body_force = num("body_force");
    ranks = static_cast<int>(num("ranks"));
    steps_per_interval = static_cast<int>(num("steps_per_interval"));
    intervals = static_cast<int>(num("intervals"));
    temperature_tol = field(field(in, "checks"), "temperature_tol").as_number();
  }
};

/// The replicated initial population every rank builds (and the single-rank
/// reference steps on its own).
std::unique_ptr<dpd::DpdSystem> make_system(const ClosedSpec& spec) {
  dpd::DpdParams prm;
  prm.box = spec.box;
  prm.periodic = {true, true, false};
  auto sys = std::make_unique<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys->fill(spec.density, dpd::kSolvent, spec.seed);
  const double g = spec.body_force;
  sys->set_body_force([g](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{g, 0.0, 0.0}; });
  return sys;
}

/// What one rank saw during a solution.
struct RankResult {
  double setup_s = 0.0;
  std::vector<double> interval_ms, wait_ms, owned;
  bool count_constant = true;
  std::uint64_t digest = 0;
  double temperature = 0.0;
  // traced solutions only
  double exchange_s = 0, dpd_step_s = 0, forces_s = 0, build_s = 0;
  double halo_bytes = 0, migrations = 0, pairs = 0, particle_steps = 0;
  std::uint64_t rebuilds = 0, reuses = 0;
};

struct ClosedSolution {
  double setup_s = 0.0;
  std::vector<RankResult> ranks;
  std::vector<double> probes;  ///< untraced solutions, taken by rank 0 (see coupled.cpp)
  std::uint64_t messages = 0, bytes = 0;  ///< xmp traffic (traced solutions)
};

/// One complete decomposed run. With `logs` (one per rank) every step and
/// barrier wait is recorded as a span, the telemetry registry is read after
/// the intervals and the run's traffic goes through a CommMatrix.
ClosedSolution solve(const ClosedSpec& spec, std::vector<SpanLog>* logs) {
  ClosedSolution sol;
  sol.ranks.resize(static_cast<std::size_t>(spec.ranks));
  telemetry::CommMatrix matrix;
  xmp::SchedOptions sched;
  sched.mode = xmp::SchedMode::Fibers;
  sched.workers = 1;  // deterministic FIFO schedule; times decomposition, not the OS
  sched.stack_kb = 1024;

  const bool probe = logs == nullptr;
  if (probe) sol.probes.push_back(probe_ms());
  const auto t0 = Clock::now();
  xmp::run(
      spec.ranks,
      [&](xmp::Comm& world) {
        const int r = world.rank();
        RankResult& rr = sol.ranks[static_cast<std::size_t>(r)];
        SpanLog* log = logs ? &(*logs)[static_cast<std::size_t>(r)] : nullptr;
        if (log) telemetry::Registry::local().bind_world_rank(r);
        auto sys = make_system(spec);
        dpd::exchange::DistributedDpd drv(world, *sys);
        drv.distribute();
        const std::int64_t n0 = drv.global_count();
        rr.setup_s = seconds_since(t0);

        // Barriers carry no trace events; the ones around the matrix reset
        // and read keep set-up and the final collectives out of the counts.
        auto at_quiet_point = [&](auto&& fn) {
          world.barrier();
          if (r == 0) fn();
          world.barrier();
        };
        if (log) {
          telemetry::Registry::local().clear();
          at_quiet_point([&] { matrix.reset(); });
        }
        const auto& nl = sys->neighbor_list();
        const std::uint64_t rebuilds0 = nl.rebuilds(), reuses0 = nl.reuses();
        // Rank 0 probes the host between intervals; it runs no fiber switch,
        // so the other ranks wait on the one worker meanwhile.
        const bool probes_here = probe && r == 0;
        for (int i = 0; i < spec.intervals; ++i) {
          if (probes_here) sol.probes.push_back(probe_ms());
          const auto ti = Clock::now();
          for (int s = 0; s < spec.steps_per_interval; ++s) {
            if (!log) {
              sys->step();
              continue;
            }
            log->time("dpd.step", i, [&] { sys->step(); });
            rr.pairs += static_cast<double>(nl.pair_count());
            rr.particle_steps += static_cast<double>(sys->owned_count());
          }
          const auto tw = Clock::now();
          world.barrier();
          const auto te = Clock::now();
          if (log) {
            log->add("exchange.wait", i, tw, te);
            log->add("interval", i, ti, te);
          }
          rr.interval_ms.push_back(std::chrono::duration<double, std::milli>(te - ti).count());
          rr.wait_ms.push_back(std::chrono::duration<double, std::milli>(te - tw).count());
          rr.owned.push_back(static_cast<double>(sys->owned_count()));
        }
        if (probes_here) sol.probes.push_back(probe_ms());
        if (log) {
          at_quiet_point([&] {
            sol.messages = matrix.total_messages();
            sol.bytes = matrix.total_bytes();
          });
          const auto& reg = telemetry::Registry::local();
          const auto tree = reg.phases();
          const auto counters = reg.counters();
          rr.exchange_s = phase_seconds(tree, "dpd.exchange");
          rr.dpd_step_s = phase_seconds(tree, "dpd.step");
          rr.forces_s = phase_seconds(tree, "dpd.forces");
          rr.build_s = phase_seconds(tree, "dpd.nlist.build");
          rr.halo_bytes = counter(counters, "dpd.halo.bytes");
          rr.migrations = counter(counters, "dpd.migrate.count");
          rr.rebuilds = nl.rebuilds() - rebuilds0;
          rr.reuses = nl.reuses() - reuses0;
        }
        rr.count_constant = drv.global_count() == n0;
        rr.digest = drv.global_digest();
        rr.temperature = drv.kinetic_temperature();
      },
      logs ? matrix.sink() : nullptr, xmp::CheckOptions::from_env(), sched);
  sol.setup_s = sol.ranks[0].setup_s;
  return sol;
}

void layer_metrics(const ClosedSpec& spec, const std::vector<ClosedSolution>& traced,
                   const std::vector<SpanLog>& logs, double untraced_interval_ms,
                   Outcome& out) {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  double steps = 0, pairs = 0, particle_steps = 0, halo_bytes = 0, migrations = 0;
  double messages = 0, bytes = 0, forces = 0, build = 0, dpd_step = 0;
  double rebuilds = 0, attempts = 0, own_compute = 0;
  std::vector<double> imbalance, wait_ms;
  for (const ClosedSolution& sol : traced) {
    steps += static_cast<double>(spec.intervals) * spec.steps_per_interval;
    messages += static_cast<double>(sol.messages);
    bytes += static_cast<double>(sol.bytes);
    for (const RankResult& rr : sol.ranks) {
      own_compute += rr.dpd_step_s - rr.exchange_s;
      pairs += rr.pairs;
      particle_steps += rr.particle_steps;
      halo_bytes += rr.halo_bytes;
      migrations += rr.migrations;
      forces += rr.forces_s;
      build += rr.build_s;
      dpd_step += rr.dpd_step_s;
      rebuilds += static_cast<double>(rr.rebuilds);
      attempts += static_cast<double>(rr.rebuilds + rr.reuses);
    }
    for (int i = 0; i < spec.intervals; ++i) {
      double max_owned = 0, sum_owned = 0, max_wait = 0;
      for (const RankResult& rr : sol.ranks) {
        max_owned = std::max(max_owned, rr.owned[static_cast<std::size_t>(i)]);
        sum_owned += rr.owned[static_cast<std::size_t>(i)];
        max_wait = std::max(max_wait, rr.wait_ms[static_cast<std::size_t>(i)]);
      }
      imbalance.push_back(ratio(max_owned, sum_owned / spec.ranks));
      wait_ms.push_back(max_wait);
    }
  }
  // The ranks share one worker and run one at a time, so a rank's step span
  // (and its dpd.exchange phase) also covers time its peers compute while it
  // waits in the exchange, and the worker's busy time is the longest rank's
  // interval total. The exchange's own share of that wall is what the ranks'
  // own compute (step minus exchange) leaves over.
  double step_span = 0, unattributed = 0, worker_wall = 0;
  std::vector<double> step_ms;
  for (const SpanLog& log : logs) {
    const double wall = log.total_s("interval");
    worker_wall = std::max(worker_wall, wall);
    step_span = std::max(step_span, log.total_s("dpd.step"));
    const double attributed = log.total_s("dpd.step") + log.total_s("exchange.wait");
    unattributed = std::max(unattributed, 1.0 - ratio(attributed, wall));
    const auto d = log.durations_ms("dpd.step");
    step_ms.insert(step_ms.end(), d.begin(), d.end());
  }

  auto& m = out.layers;
  for (const char* absent :
       {"sem.step_ms", "sem.develop_s", "sem.share", "sem.pressure_share", "cg.iters_per_solve",
        "flowbc.apply_ms", "flowbc.churn_per_step", "sampler.accumulate_ms",
        "coupling.interp_per_interval", "ckpt.save_ms", "ckpt.bytes"})
    m[absent] = 0.0;
  m["dpd.step_ms"] = median(step_ms);
  m["dpd.share"] = ratio(logs[0].total_s("dpd.step"), logs[0].total_s("interval"));
  m["dpd.nlist.build_share"] = ratio(build, dpd_step);
  m["dpd.nlist.rebuild_frac"] = ratio(rebuilds, attempts);
  m["dpd.kernel_ms"] = ratio(forces - build, steps) * 1e3;
  m["dpd.pairs_per_step"] = ratio(pairs, steps);
  m["dpd.particle_steps_per_s"] = ratio(particle_steps, step_span);
  m["exchange.share"] = 1.0 - ratio(own_compute, worker_wall);
  m["exchange.halo_bytes_per_step"] = ratio(halo_bytes, steps);
  m["exchange.migrations_per_step"] = ratio(migrations, steps);
  m["exchange.imbalance"] = mean(imbalance);
  m["exchange.wait_ms"] = median(wait_ms);
  m["xmp.msgs_per_step"] = ratio(messages, steps);
  m["xmp.bytes_per_step"] = ratio(bytes, steps);
  m["unattributed_share"] = unattributed;
  std::vector<double> traced_ms;
  for (const SpanLog& log : logs) {
    const auto d = log.durations_ms("interval");
    traced_ms.insert(traced_ms.end(), d.begin(), d.end());
  }
  m["trace_overhead"] = ratio(median(traced_ms), untraced_interval_ms) - 1.0;
}

}  // namespace

std::uint64_t closed_digest(const scenario::Json& input) {
  return solve(ClosedSpec(input), nullptr).ranks[0].digest;
}

std::uint64_t closed_single_rank_digest(const scenario::Json& input) {
  const ClosedSpec spec(input);
  auto sys = make_system(spec);
  for (int s = 0; s < spec.intervals * spec.steps_per_interval; ++s) sys->step();
  return dpd::exchange::trajectory_digest(*sys);
}

Outcome run_closed(const scenario::Json& input, const RunConfig& cfg) {
  const ClosedSpec spec(input);
  Outcome out;
  const auto t_run = Clock::now();
  telemetry::set_enabled(false);
  const std::uint64_t single = closed_single_rank_digest(input);
  std::optional<std::uint64_t> first;

  auto attempt = [&](std::vector<SpanLog>* logs) -> std::optional<ClosedSolution> {
    ++out.attempted;
    const std::size_t failures_before = out.check_failures;
    std::optional<ClosedSolution> sol;
    try {
      sol = solve(spec, logs);
    } catch (const std::exception& e) {
      out.check("no_exception", false, e.what());
      ++out.failed;
      return std::nullopt;
    }
    const RankResult& r0 = sol->ranks[0];
    if (!first) first = r0.digest;
    out.check(logs ? "traced_digest" : "digest_repeats", r0.digest == *first,
              hex(r0.digest, 16) + " vs first solution " + hex(*first, 16));
    out.check("single_rank_digest", r0.digest == single,
              std::to_string(spec.ranks) + " ranks " + hex(r0.digest, 16) + " vs 1 rank " +
                  hex(single, 16));
    bool constant = true;
    for (const RankResult& rr : sol->ranks) constant = constant && rr.count_constant;
    out.check("count_constant", constant, "global_count() after the last interval");
    const double dT = std::fabs(r0.temperature - dpd::DpdParams{}.kBT);
    char buf[96];
    std::snprintf(buf, sizeof buf, "|T - kBT| = %.4f (tol %.4f)", dT, spec.temperature_tol);
    out.check("temperature", dT <= spec.temperature_tol, buf);
    if (out.check_failures != failures_before) ++out.failed;
    return sol;
  };
  const double untraced_budget = cfg.trace ? 0.5 * cfg.seconds : cfg.seconds;
  do {
    if (const auto sol = attempt(nullptr))
      out.record(sol->setup_s, sol->ranks[0].interval_ms, sol->probes);
  } while (seconds_since(t_run) < untraced_budget);
  if (cfg.trace) {
    telemetry::set_enabled(true);
    std::vector<SpanLog> logs;
    for (int r = 0; r < spec.ranks; ++r) logs.emplace_back(t_run, r);
    std::vector<ClosedSolution> traced;
    do {
      if (auto sol = attempt(&logs)) traced.push_back(std::move(*sol));
    } while (seconds_since(t_run) < cfg.seconds);
    telemetry::set_enabled(false);
    if (!traced.empty()) layer_metrics(spec, traced, logs, median(out.raw_interval_ms), out);
    for (const SpanLog& log : logs)
      out.spans.insert(out.spans.end(), log.spans().begin(), log.spans().end());
  }
  out.digest = first ? hex(*first, 16) : "";
  return out;
}

}  // namespace bench
