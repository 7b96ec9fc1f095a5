// Coupled workloads (coupled2d_open, coupled3d_sem): the SEM continuum, the
// open-boundary DPD box, FlowBc, the continuum-DPD coupler, the field
// sampler and the checkpoint coordinator, assembled from a scenario exactly
// as scenario::Runner::run_coupled assembles them.
//
// Timed solutions call advance_interval once per interval with telemetry
// off. Traced solutions drive the same Fig. 5 schedule call by call with a
// span around each public call, and must reach the same state digest.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "coupling/cdc.hpp"
#include "coupling/cdc3d.hpp"
#include "dpd/geometry.hpp"
#include "mesh/quadmesh.hpp"
#include "resilience/blob.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/snapshot.hpp"
#include "scenario/schema.hpp"

namespace bench {

namespace {

/// Work the traced schedule counts as it goes.
struct Tally {
  std::uint64_t interp_calls = 0;  ///< continuum_velocity_at via the target closure
  std::uint64_t dpd_steps = 0;
  double pairs = 0.0;           ///< sum over steps of NeighborList::pair_count()
  double particle_steps = 0.0;  ///< sum over steps of particles stepped
  std::vector<double> ckpt_bytes;
};

class CoupledStack {
 public:
  /// Builds the whole stack, including the develop steps and the DPD fill.
  explicit CoupledStack(const scenario::Scenario& sc, const std::string& ckpt_dir);

  int intervals() const { return static_cast<int>(sc_.time.intervals); }
  double develop_s() const { return develop_s_; }
  /// One interval through the coupler: the path the timed runs measure.
  void advance(int interval);
  /// The same interval driven one public call at a time, each in a span.
  void advance_traced(int interval, SpanLog& log);
  const Tally& tally() const { return tally_; }

  /// CRC32 over the component states, as scenario::Runner computes it.
  std::uint32_t digest() const;
  double interface_mismatch() {
    return cdc_ ? cdc_->interface_mismatch(*sampler_) : cdc3_->interface_mismatch(*sampler_);
  }
  const dpd::DpdSystem& dpd() const { return *dpd_; }
  const dpd::FlowBc& flow_bc() const { return *bc_; }

 private:
  std::size_t ns_step() { return ns2_ ? ns2_->step() : ns3_->step(); }
  dpd::Vec3 continuum_velocity_at(const dpd::Vec3& p) const {
    return cdc_ ? cdc_->continuum_velocity_at(p) : cdc3_->continuum_velocity_at(p);
  }
  /// Checkpoint rule of scenario::Runner::maybe_checkpoint.
  bool checkpoint_due(int interval) const {
    const std::int64_t every = sc_.checkpoint.every;
    return every > 0 && (interval + 1) % every == 0 && interval + 1 < intervals();
  }
  /// Returns the bytes written.
  std::size_t checkpoint(int interval);

  scenario::Scenario sc_;
  std::string ckpt_dir_;
  std::unique_ptr<sem::Discretization> disc_;
  std::unique_ptr<sem::Discretization3D> disc3_;
  std::unique_ptr<sem::NavierStokes2D> ns2_;
  std::unique_ptr<sem::NavierStokes3D> ns3_;
  std::unique_ptr<dpd::DpdSystem> dpd_;
  std::unique_ptr<dpd::FlowBc> bc_;
  std::unique_ptr<coupling::ContinuumDpdCoupler> cdc_;
  std::unique_ptr<coupling::ContinuumDpdCoupler3D> cdc3_;
  std::unique_ptr<dpd::FieldSampler> sampler_;
  std::unique_ptr<resilience::CheckpointCoordinator> coord_;
  double develop_s_ = 0.0;
  Tally tally_;
};

CoupledStack::CoupledStack(const scenario::Scenario& sc, const std::string& ckpt_dir)
    : sc_(sc), ckpt_dir_(ckpt_dir) {
  if (sc_.kind != "cdc" && sc_.kind != "cdc3d")
    throw std::invalid_argument("coupledbench: scenario kind '" + sc_.kind +
                                "' is not a coupled run");
  if (sc_.time.develop_tol != 0.0)
    throw std::invalid_argument(
        "coupledbench: time.develop_tol must be 0 (fixed develop steps)");
  const bool is3d = sc_.kind == "cdc3d";

  // 1. the continuum solver
  if (is3d) {
    const auto& m = sc_.mesh3d;
    disc3_ = std::make_unique<sem::Discretization3D>(
        m.lx, m.ly, m.lz, static_cast<int>(m.nx), static_cast<int>(m.ny),
        static_cast<int>(m.nz), static_cast<int>(m.order));
    sem::NavierStokes3D::Params prm;
    prm.nu = sc_.sem.nu;
    prm.dt = sc_.sem.dt;
    prm.time_order = static_cast<int>(sc_.sem.time_order);
    prm.pressure_dirichlet_faces = {sem::HexFace::X1};
    ns3_ = std::make_unique<sem::NavierStokes3D>(*disc3_, prm);
    const double H = m.lz;
    const double Umax = sc_.sem.inlet_umax;
    auto prof = [H, Umax](double, double, double z, double) {
      return 4.0 * Umax * z * (H - z) / (H * H);
    };
    auto zero = [](double, double, double, double) { return 0.0; };
    ns3_->set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
    ns3_->set_velocity_bc(sem::HexFace::Y0, prof, zero, zero);
    ns3_->set_velocity_bc(sem::HexFace::Y1, prof, zero, zero);
    ns3_->set_natural_bc(sem::HexFace::X1);
  } else {
    const auto& m = sc_.mesh;
    auto mesh = mesh::QuadMesh::channel(m.length, m.height, static_cast<int>(m.nx),
                                        static_cast<int>(m.ny));
    disc_ = std::make_unique<sem::Discretization>(mesh, static_cast<int>(m.order));
    sem::NavierStokes2D::Params nsp;
    nsp.nu = sc_.sem.nu;
    nsp.dt = sc_.sem.dt;
    nsp.time_order = static_cast<int>(sc_.sem.time_order);
    ns2_ = std::make_unique<sem::NavierStokes2D>(*disc_, nsp);
    const double H = m.height;
    const double Umax = sc_.sem.inlet_umax;
    ns2_->set_velocity_bc(
        mesh::kInlet,
        [H, Umax](double, double y, double) { return 4.0 * Umax * y * (H - y) / (H * H); },
        [](double, double, double) { return 0.0; });
    ns2_->set_natural_bc(mesh::kOutlet);
  }
  const auto t_dev = Clock::now();
  for (std::int64_t s = 0; s < sc_.time.develop_steps; ++s) ns_step();
  develop_s_ = seconds_since(t_dev);

  // 2. the atomistic solver
  dpd::DpdParams dp;
  dp.box = {sc_.dpd.box[0], sc_.dpd.box[1], sc_.dpd.box[2]};
  dp.periodic = sc_.dpd.periodic;
  dp.rc = sc_.dpd.rc;
  dp.kBT = sc_.dpd.kBT;
  dp.dt = sc_.dpd.dt;
  std::shared_ptr<dpd::Geometry> geom;
  if (sc_.dpd.geometry.kind == "channel_z")
    geom = std::make_shared<dpd::ChannelZ>(sc_.dpd.geometry.height);
  else
    geom = std::make_shared<dpd::NoWalls>();
  dpd_ = std::make_unique<dpd::DpdSystem>(dp, geom);
  dpd_->fill(sc_.dpd.density, dpd::kSolvent, static_cast<unsigned>(sc_.dpd.seed),
             sc_.dpd.fill_margin);

  dpd::FlowBcParams fp;
  fp.axis = static_cast<int>(sc_.flow_bc.axis);
  fp.buffer_len = sc_.flow_bc.buffer_len;
  fp.density = sc_.flow_bc.density;
  fp.relax = sc_.flow_bc.relax;
  fp.seed = static_cast<unsigned>(sc_.flow_bc.seed);
  bc_ = std::make_unique<dpd::FlowBc>(fp);

  // 3. coupling: Eq. (1) scaling + Fig. 5 time progression
  coupling::ScaleMap scales;
  scales.L_ns = sc_.coupling.scales.L_ns;
  scales.L_dpd = sc_.coupling.scales.L_dpd;
  scales.nu_ns = sc_.coupling.scales.nu_ns;
  scales.nu_dpd = sc_.coupling.scales.nu_dpd;
  coupling::TimeProgression tp;
  tp.dt_ns = sc_.sem.dt;
  tp.exchange_every_ns = static_cast<int>(sc_.coupling.exchange_every_ns);
  tp.dpd_per_ns = static_cast<int>(sc_.coupling.dpd_per_ns);
  const auto& rg = sc_.coupling.region;
  if (is3d)
    cdc3_ = std::make_unique<coupling::ContinuumDpdCoupler3D>(
        *ns3_, *dpd_, *bc_, coupling::EmbeddedBox{rg[0], rg[1], rg[2], rg[3], rg[4], rg[5]},
        scales, tp);
  else
    cdc_ = std::make_unique<coupling::ContinuumDpdCoupler>(
        *ns2_, *dpd_, *bc_, coupling::EmbeddedRegion{rg[0], rg[1], rg[2], rg[3]}, scales, tp);

  dpd::SamplerParams sp;
  sp.nx = static_cast<int>(sc_.sampler.nx);
  sp.ny = static_cast<int>(sc_.sampler.ny);
  sp.nz = static_cast<int>(sc_.sampler.nz);
  sampler_ = std::make_unique<dpd::FieldSampler>(*dpd_, sp);

  coord_ = std::make_unique<resilience::CheckpointCoordinator>();
  if (is3d)
    coord_->add("ns3d", *ns3_);
  else
    coord_->add("ns2d", *ns2_);
  coord_->add("dpd", *dpd_);
  coord_->add("flowbc", *bc_);
  if (is3d)
    coord_->add("cdc3d", *cdc3_);
  else
    coord_->add("cdc", *cdc_);
  coord_->add("sampler", *sampler_);
}

std::size_t CoupledStack::checkpoint(int interval) {
  const double t = ns2_ ? ns2_->time() : ns3_->time();
  return coord_->save(ckpt_dir_ + "/step-" + std::to_string(interval + 1),
                      static_cast<std::uint64_t>(interval + 1), t);
}

void CoupledStack::advance(int interval) {
  const bool sample = interval >= sc_.time.sample_from;
  auto per_step = [this, sample] {
    if (sample) sampler_->accumulate(*dpd_);
  };
  if (cdc_)
    cdc_->advance_interval(per_step);
  else
    cdc3_->advance_interval(per_step);
  if (checkpoint_due(interval)) checkpoint(interval);
}

void CoupledStack::advance_traced(int interval, SpanLog& log) {
  log.time("coupling.set_target", interval, [&] {
    bc_->set_target_velocity([this](const dpd::Vec3& p) {
      ++tally_.interp_calls;
      return continuum_velocity_at(p);
    });
  });
  // advance_interval counts its exchanges; this schedule does the exchange
  // itself, so advance the coupler's counter (part of its checkpointed
  // state) to the value advance_interval would leave.
  resilience::BlobWriter w;
  w.pod(static_cast<std::uint64_t>(interval + 1));
  resilience::BlobReader r(w.data());
  if (cdc_)
    cdc_->load_state(r);
  else
    cdc3_->load_state(r);

  const bool sample = interval >= sc_.time.sample_from;
  for (std::int64_t s = 0; s < sc_.coupling.exchange_every_ns; ++s) {
    log.time("sem.step", interval, [&] { ns_step(); });
    for (std::int64_t q = 0; q < sc_.coupling.dpd_per_ns; ++q) {
      log.time("dpd.step", interval, [&] { dpd_->step(); });
      ++tally_.dpd_steps;
      tally_.pairs += static_cast<double>(dpd_->neighbor_list().pair_count());
      tally_.particle_steps += static_cast<double>(dpd_->size());
      log.time("flowbc.apply", interval, [&] { bc_->apply(*dpd_); });
      if (sample)
        log.time("sampler.accumulate", interval, [&] { sampler_->accumulate(*dpd_); });
    }
  }
  if (checkpoint_due(interval)) {
    std::size_t bytes = 0;
    log.time("ckpt.save", interval, [&] { bytes = checkpoint(interval); });
    tally_.ckpt_bytes.push_back(static_cast<double>(bytes));
  }
}

std::uint32_t CoupledStack::digest() const {
  resilience::BlobWriter w;
  if (ns2_)
    ns2_->save_state(w);
  else
    ns3_->save_state(w);
  dpd_->save_state(w);
  bc_->save_state(w);
  if (cdc_)
    cdc_->save_state(w);
  else
    cdc3_->save_state(w);
  sampler_->save_state(w);
  return resilience::crc32(w.data());
}

/// Physical-health tolerances, set in the workload input from seed runs.
struct Health {
  double temperature_tol;  ///< max |kinetic_temperature - kBT| at interval ends
  double count_lo, count_hi;  ///< particle count band, relative to the fill
  double mismatch_max;        ///< final interface_mismatch (Fig. 9)

  explicit Health(const scenario::Json& c)
      : temperature_tol(field(c, "temperature_tol").as_number()),
        count_lo(field(c, "count_band").elements().at(0).as_number()),
        count_hi(field(c, "count_band").elements().at(1).as_number()),
        mismatch_max(field(c, "mismatch_max").as_number()) {}
};

/// Registry numbers of the traced solutions' intervals (setup excluded).
struct RegistryTotals {
  double ns_step_s = 0, ns_pressure_s = 0, cg_iters = 0, cg_solves = 0;
  double dpd_step_s = 0, dpd_forces_s = 0, nlist_build_s = 0;
  std::uint64_t nlist_rebuilds = 0, nlist_reuses = 0, churn = 0, dpd_steps = 0;
  std::uint64_t interp_calls = 0, intervals = 0;
  double pairs = 0, particle_steps = 0;
  std::vector<double> develop_s, ckpt_bytes;
};

struct Solution {
  double setup_s = 0.0;
  std::vector<double> interval_ms;
  std::vector<double> probes;  ///< untraced solutions: before, between and after the spans
  std::uint32_t digest = 0;
};

/// One complete coupled run: build, develop, all intervals, then the
/// correctness checks. With `log` (and `totals`) the intervals are driven
/// call by call under spans and `totals` receives the registry's and
/// tally's numbers. Without `log` the host-speed probe runs before the
/// set-up, between the intervals and after the last one.
Solution solve(const scenario::Scenario& sc, const Health& health, const RunConfig& cfg,
               Outcome& out, SpanLog* log, RegistryTotals* totals) {
  Solution sol;
  if (!log) sol.probes.push_back(probe_ms());
  const auto t0 = Clock::now();
  CoupledStack st(sc, cfg.work_dir + "/ckpt");
  sol.setup_s = seconds_since(t0);

  const double kBT = sc.dpd.kBT;
  const auto n_fill = static_cast<double>(st.dpd().size());
  double worst_dT = 0.0, count_min = 1e300, count_max = 0.0;
  if (log) telemetry::Registry::local().clear();
  const std::size_t churn0 = st.flow_bc().inserted_total() + st.flow_bc().deleted_total();
  const auto& nl = st.dpd().neighbor_list();
  const std::uint64_t rebuilds0 = nl.rebuilds(), reuses0 = nl.reuses();
  for (int i = 0; i < st.intervals(); ++i) {
    if (!log) sol.probes.push_back(probe_ms());
    const auto ti = Clock::now();
    if (log)
      log->time("interval", i, [&] { st.advance_traced(i, *log); });
    else
      st.advance(i);
    sol.interval_ms.push_back(seconds_since(ti) * 1e3);
    worst_dT = std::max(worst_dT, std::fabs(st.dpd().kinetic_temperature() - kBT));
    const auto n = static_cast<double>(st.dpd().size()) / n_fill;
    count_min = std::min(count_min, n);
    count_max = std::max(count_max, n);
  }
  if (!log) sol.probes.push_back(probe_ms());
  sol.digest = st.digest();
  const double mismatch = st.interface_mismatch();  // consumes the sampler window

  char buf[160];
  std::snprintf(buf, sizeof buf, "max |T - kBT| = %.4f (tol %.4f)", worst_dT,
                health.temperature_tol);
  out.check("temperature", worst_dT <= health.temperature_tol, buf);
  std::snprintf(buf, sizeof buf, "particles / fill in [%.4f, %.4f] (band [%.3f, %.3f])",
                count_min, count_max, health.count_lo, health.count_hi);
  out.check("particle_count", count_min >= health.count_lo && count_max <= health.count_hi,
            buf);
  std::snprintf(buf, sizeof buf, "final interface_mismatch = %.4f (max %.4f)", mismatch,
                health.mismatch_max);
  out.check("interface_mismatch", mismatch <= health.mismatch_max, buf);

  if (telemetry::enabled()) {
    const auto counters = telemetry::Registry::local().counters();
    const double breakdowns = counter(counters, "cg.breakdowns");
    out.check("cg_breakdowns", breakdowns == 0.0,
              "cg.breakdowns = " + std::to_string(breakdowns));
  }
  if (log) {
    const auto& reg = telemetry::Registry::local();
    const auto tree = reg.phases();
    const auto counters = reg.counters();
    const std::string ns = sc.kind == "cdc3d" ? "ns3d" : "ns2d";
    totals->ns_step_s += phase_seconds(tree, ns + ".step");
    totals->ns_pressure_s += phase_seconds(tree, ns + ".pressure");
    totals->cg_iters += counter(counters, "cg.iterations");
    totals->cg_solves += counter(counters, "cg.solves");
    totals->dpd_step_s += phase_seconds(tree, "dpd.step");
    totals->dpd_forces_s += phase_seconds(tree, "dpd.forces");
    totals->nlist_build_s += phase_seconds(tree, "dpd.nlist.build");
    totals->nlist_rebuilds += nl.rebuilds() - rebuilds0;
    totals->nlist_reuses += nl.reuses() - reuses0;
    totals->churn += st.flow_bc().inserted_total() + st.flow_bc().deleted_total() - churn0;
    const Tally& t = st.tally();
    totals->dpd_steps += t.dpd_steps;
    totals->pairs += t.pairs;
    totals->particle_steps += t.particle_steps;
    totals->interp_calls += t.interp_calls;
    totals->intervals += static_cast<std::uint64_t>(st.intervals());
    totals->develop_s.push_back(st.develop_s());
    auto& bytes = totals->ckpt_bytes;
    bytes.insert(bytes.end(), t.ckpt_bytes.begin(), t.ckpt_bytes.end());
  }
  return sol;
}

void layer_metrics(const RegistryTotals& t, const SpanLog& log, double untraced_interval_ms,
                   Outcome& out) {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto& m = out.layers;
  const double wall = log.total_s("interval");
  const double steps = static_cast<double>(t.dpd_steps);
  m["sem.step_ms"] = median(log.durations_ms("sem.step"));
  m["sem.develop_s"] = median(t.develop_s);
  m["sem.share"] = ratio(log.total_s("sem.step"), wall);
  m["sem.pressure_share"] = ratio(t.ns_pressure_s, t.ns_step_s);
  m["cg.iters_per_solve"] = ratio(t.cg_iters, t.cg_solves);
  m["dpd.step_ms"] = median(log.durations_ms("dpd.step"));
  m["dpd.share"] = ratio(log.total_s("dpd.step"), wall);
  m["dpd.nlist.build_share"] = ratio(t.nlist_build_s, t.dpd_step_s);
  m["dpd.nlist.rebuild_frac"] = ratio(static_cast<double>(t.nlist_rebuilds),
                                      static_cast<double>(t.nlist_rebuilds + t.nlist_reuses));
  m["dpd.kernel_ms"] = ratio(t.dpd_forces_s - t.nlist_build_s, steps) * 1e3;
  m["dpd.pairs_per_step"] = ratio(t.pairs, steps);
  m["dpd.particle_steps_per_s"] = ratio(t.particle_steps, log.total_s("dpd.step"));
  m["flowbc.apply_ms"] = median(log.durations_ms("flowbc.apply"));
  m["flowbc.churn_per_step"] = ratio(static_cast<double>(t.churn), steps);
  m["sampler.accumulate_ms"] = median(log.durations_ms("sampler.accumulate"));
  m["coupling.interp_per_interval"] =
      ratio(static_cast<double>(t.interp_calls), static_cast<double>(t.intervals));
  m["ckpt.save_ms"] = median(log.durations_ms("ckpt.save"));
  m["ckpt.bytes"] = mean(t.ckpt_bytes);
  for (const char* absent :
       {"exchange.share", "exchange.halo_bytes_per_step", "exchange.migrations_per_step",
        "exchange.imbalance", "exchange.wait_ms", "xmp.msgs_per_step", "xmp.bytes_per_step"})
    m[absent] = 0.0;
  double attributed = 0.0;
  for (const char* name : {"coupling.set_target", "sem.step", "dpd.step", "flowbc.apply",
                           "sampler.accumulate", "ckpt.save"})
    attributed += log.total_s(name);
  m["unattributed_share"] = 1.0 - ratio(attributed, wall);
  m["trace_overhead"] = ratio(median(log.durations_ms("interval")), untraced_interval_ms) - 1.0;
}

}  // namespace

std::uint32_t coupled_digest(const scenario::Scenario& sc, const std::string& ckpt_dir,
                             bool traced) {
  CoupledStack st(sc, ckpt_dir);
  SpanLog log(Clock::now(), 0);
  for (int i = 0; i < st.intervals(); ++i)
    if (traced)
      st.advance_traced(i, log);
    else
      st.advance(i);
  return st.digest();
}

Outcome run_coupled(const scenario::Json& input, const RunConfig& cfg) {
  const scenario::Scenario sc = scenario::parse_scenario(field(input, "scenario"));
  const Health health(field(input, "checks"));
  Outcome out;
  const auto t_run = Clock::now();

  std::uint32_t reference = 0;
  bool have_reference = false;
  // Runs one solution, applies the repeat-digest check, and books a throw
  // or a failed check against the solution.
  auto attempt = [&](SpanLog* log, RegistryTotals* totals) -> std::optional<Solution> {
    ++out.attempted;
    const std::size_t failures_before = out.check_failures;
    Solution sol;
    try {
      sol = solve(sc, health, cfg, out, log, totals);
    } catch (const std::exception& e) {
      out.check("no_exception", false, e.what());
      ++out.failed;
      return std::nullopt;
    }
    if (!have_reference) {
      reference = sol.digest;
      have_reference = true;
    }
    out.check(log ? "traced_digest" : "digest_repeats", sol.digest == reference,
              hex(sol.digest, 8) + " vs first solution " + hex(reference, 8));
    if (out.check_failures != failures_before) ++out.failed;
    return sol;
  };

  if (!cfg.trace) {
    // A checking solution with telemetry on (the only way cg.breakdowns is
    // observable) doubles as the warm-up; every timed one runs with it off.
    telemetry::set_enabled(true);
    telemetry::Registry::local().clear();
    attempt(nullptr, nullptr);
    telemetry::set_enabled(false);
    do {
      if (const auto s = attempt(nullptr, nullptr)) out.record(s->setup_s, s->interval_ms, s->probes);
    } while (seconds_since(t_run) < cfg.seconds);
  } else {
    telemetry::set_enabled(false);
    do {
      if (const auto s = attempt(nullptr, nullptr)) out.record(s->setup_s, s->interval_ms, s->probes);
    } while (seconds_since(t_run) < 0.5 * cfg.seconds);
    telemetry::set_enabled(true);
    SpanLog log(t_run, 0);
    RegistryTotals totals;
    do {
      attempt(&log, &totals);
    } while (seconds_since(t_run) < cfg.seconds);
    telemetry::set_enabled(false);
    layer_metrics(totals, log, median(out.raw_interval_ms), out);
    out.spans = log.spans();
  }
  out.digest = hex(reference, 8);
  return out;
}

}  // namespace bench
