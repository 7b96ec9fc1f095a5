// Tests for the NektarG coupling core: unit scaling (Eq. 1), the MCI
// communicator hierarchy and 3-step interface exchange, geometric L4
// discovery, replica ensembles, multi-patch continuum coupling, and the
// continuum-DPD coupled driver.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "coupling/cdc.hpp"
#include "coupling/mci.hpp"
#include "coupling/multipatch.hpp"
#include "coupling/replica.hpp"
#include "coupling/scales.hpp"
#include "resilience/blob.hpp"
#include "telemetry/registry.hpp"

namespace {

// ---------------- scales ----------------

TEST(Scales, Equation1RoundTrip) {
  coupling::ScaleMap s;
  s.L_ns = 1.0;    // 1 mm
  s.L_dpd = 0.005; // 5 um in mm
  s.nu_ns = 3.0;
  s.nu_dpd = 0.6;
  const double v = 2.7;
  EXPECT_NEAR(s.velocity_dpd_to_ns(s.velocity_ns_to_dpd(v)), v, 1e-12);
  // Eq. (1) literally
  EXPECT_DOUBLE_EQ(s.velocity_ns_to_dpd(v), v * (1.0 / 0.005) * (0.6 / 3.0));
}

TEST(Scales, ReynoldsConsistency) {
  coupling::ScaleMap s;
  s.L_ns = 0.5;   // 0.5 mm vessel in NS units (1 unit = 1 mm)
  s.L_dpd = 100;  // the same vessel in DPD units (1 unit = 5 um)
  s.nu_ns = 1.5;
  s.nu_dpd = 0.3;
  EXPECT_NEAR(s.reynolds_ns(3.0), s.reynolds_dpd(3.0), 1e-12);
}

TEST(Scales, TimeRatioMatchesDiffusiveScaling) {
  coupling::ScaleMap s;
  s.L_ns = 1.0;
  s.L_dpd = 0.1;
  s.nu_ns = 1.0;
  s.nu_dpd = 0.5;
  EXPECT_DOUBLE_EQ(s.time_ratio(), (0.1 * 0.1 / 0.5) / (1.0 / 1.0));
}

TEST(Scales, ValidateRejectsNonPositive) {
  coupling::ScaleMap s;
  s.nu_dpd = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Scales, TimeProgressionSchedule) {
  coupling::TimeProgression tp;
  tp.dt_ns = 1e-3;
  tp.dpd_per_ns = 20;
  tp.exchange_every_ns = 10;
  // the paper's numbers: tau = 10 dt_NS = 200 dt_DPD
  EXPECT_EQ(tp.dpd_steps_per_exchange(), 200);
  EXPECT_DOUBLE_EQ(tp.tau_ns(), 0.01);
}

// ---------------- MCI ----------------

TEST(Mci, HierarchyRanksAndSizes) {
  xmp::run(8, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    // 2 racks of 4; 4 tasks of 2 (tasks nest in racks)
    cfg.rack_of = {0, 0, 0, 0, 1, 1, 1, 1};
    cfg.task_of = {0, 0, 1, 1, 2, 2, 3, 3};
    auto mci = coupling::build_mci(world, cfg);
    EXPECT_EQ(mci.l2.size(), 4);
    EXPECT_EQ(mci.l3.size(), 2);
    EXPECT_EQ(mci.rack, world.rank() / 4);
    EXPECT_EQ(mci.task, world.rank() / 2);
  });
}

TEST(Mci, DeriveL4SelectsMembers) {
  xmp::run(4, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of = {0, 0, 0, 0};
    cfg.task_of = {0, 0, 0, 0};
    auto mci = coupling::build_mci(world, cfg);
    // only even l3 ranks touch the interface
    xmp::Comm l4 = coupling::derive_l4(mci.l3, mci.l3.rank() % 2 == 0);
    if (mci.l3.rank() % 2 == 0) {
      ASSERT_TRUE(l4.valid());
      EXPECT_EQ(l4.size(), 2);
    } else {
      EXPECT_FALSE(l4.valid());
    }
  });
}

TEST(Mci, InterfaceChannelThreeStepExchange) {
  // Two tasks of 3 ranks; interface of 6 samples; each task's L4 = all its
  // ranks; rank r of a task owns samples {r, r+3}. Task 0 sends values
  // 100+idx; task 1 sends 200+idx; both receive intact.
  xmp::run(6, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of = {0, 0, 0, 0, 0, 0};
    cfg.task_of = {0, 0, 0, 1, 1, 1};
    auto mci = coupling::build_mci(world, cfg);
    xmp::Comm l4 = coupling::derive_l4(mci.l3, true);
    // L4 roots: world rank 0 (task 0) and 3 (task 1)
    const int peer_root = mci.task == 0 ? 3 : 0;
    std::vector<std::size_t> my_samples = {static_cast<std::size_t>(l4.rank()),
                                           static_cast<std::size_t>(l4.rank() + 3)};
    coupling::InterfaceChannel ch(world, l4, peer_root, 6, my_samples, 42);

    const double base = mci.task == 0 ? 100.0 : 200.0;
    std::vector<double> vals;
    for (std::size_t s : my_samples) vals.push_back(base + static_cast<double>(s));
    ch.send(vals);
    auto got = ch.recv();
    const double peer_base = mci.task == 0 ? 200.0 : 100.0;
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], peer_base + static_cast<double>(my_samples[0]));
    EXPECT_DOUBLE_EQ(got[1], peer_base + static_cast<double>(my_samples[1]));
  });
}

TEST(Mci, InterfaceChannelMessageCountIsRootToRoot) {
  // The whole exchange must cross the World communicator exactly twice
  // (one payload per direction) regardless of L4 sizes: the 3-step pattern
  // keeps high-volume traffic inside the groups.
  std::mutex mu;
  std::vector<xmp::TraceEvent> events;
  xmp::run(6, [&](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of = {0, 0, 0, 0, 0, 0};
    cfg.task_of = {0, 0, 0, 1, 1, 1};
    auto mci = coupling::build_mci(world, cfg);
    xmp::Comm l4 = coupling::derive_l4(mci.l3, true);
    const int peer_root = mci.task == 0 ? 3 : 0;
    std::vector<std::size_t> my_samples = {static_cast<std::size_t>(l4.rank()),
                                           static_cast<std::size_t>(l4.rank() + 3)};
    coupling::InterfaceChannel ch(world, l4, peer_root, 6, my_samples, 42);
    // Collective install: all ranks call set_trace; the sink goes live while
    // every rank is parked inside the call, so no prior traffic can leak in.
    world.set_trace([&](const xmp::TraceEvent& e) {
      if (e.tag == 42) {
        std::lock_guard lk(mu);
        events.push_back(e);
      }
    });
    std::vector<double> vals(2, 1.0);
    ch.send(vals);
    ch.recv();
    world.set_trace(nullptr);
  });
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_TRUE((e.src_world == 0 && e.dst_world == 3) ||
                (e.src_world == 3 && e.dst_world == 0));
    EXPECT_EQ(e.bytes, 6 * sizeof(double));
  }
}

TEST(Mci, GeometricDiscoveryFindsOwners) {
  // 1 atomistic task (ranks 4,5) + 2 continuum tasks (0,1 and 2,3), each
  // continuum rank owning half of its task's x-range. Samples span [0, 4).
  xmp::run(6, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of = {0, 0, 0, 0, 0, 0};
    cfg.task_of = {0, 0, 1, 1, 2, 2};
    auto mci = coupling::build_mci(world, cfg);
    const int atomistic_task = 2;

    // 8 samples at x = 0.25, 0.75, ..., 3.75 (y = z = 0)
    std::vector<double> samples;
    if (mci.task == atomistic_task && mci.l3.rank() == 0)
      for (int k = 0; k < 8; ++k) samples.insert(samples.end(), {0.25 + 0.5 * k, 0.0, 0.0});

    // continuum task t owns x in [2t, 2t+2); within a task, rank r owns
    // [2t + r, 2t + r + 1)
    auto owns = [&](double x, double, double) {
      const double lo = 2.0 * mci.task + mci.l3.rank();
      return x >= lo && x < lo + 1.0;
    };
    auto res = coupling::discover_interface_owners(mci, atomistic_task, samples, owns);

    if (mci.task != atomistic_task) {
      // each continuum rank claims exactly 2 samples
      EXPECT_EQ(res.my_claims.size(), 2u);
      for (std::size_t idx : res.my_claims) {
        const double x = 0.25 + 0.5 * static_cast<double>(idx);
        const double lo = 2.0 * mci.task + mci.l3.rank();
        EXPECT_GE(x, lo);
        EXPECT_LT(x, lo + 1.0);
      }
    } else if (mci.l3.rank() == 0) {
      ASSERT_EQ(res.task_claims.size(), 2u);
      EXPECT_EQ(res.task_claims[0].first, 0);
      EXPECT_EQ(res.task_claims[1].first, 1);
      EXPECT_EQ(res.task_claims[0].second.size(), 4u);
      EXPECT_EQ(res.task_claims[1].second.size(), 4u);
    }
  });
}

// ---------------- replicas ----------------

TEST(Replica, SplitSizesAndIds) {
  xmp::run(7, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);  // 7 ranks -> groups of 3,2,2
    EXPECT_GE(ens.replica_id(), 0);
    EXPECT_LT(ens.replica_id(), 3);
    const int sz = ens.replica_comm().size();
    EXPECT_TRUE(sz == 2 || sz == 3);
    // exactly one ensemble root
    const double roots = world.allreduce(ens.is_ensemble_root() ? 1.0 : 0.0, xmp::Op::Sum);
    EXPECT_DOUBLE_EQ(roots, 1.0);
  });
}

TEST(Replica, DistributeReachesEveryRank) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);
    std::vector<double> data;
    if (ens.is_ensemble_root()) data = {3.14, 1.59};
    auto got = ens.distribute(std::move(data));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], 3.14);
  });
}

TEST(Replica, GatherAverageAveragesReplicas) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);
    // replica j's root contributes the constant j
    std::vector<double> mine(4, static_cast<double>(ens.replica_id()));
    auto avg = ens.gather_average(mine);
    ASSERT_EQ(avg.size(), 4u);
    for (double v : avg) EXPECT_DOUBLE_EQ(v, 1.0);  // (0+1+2)/3
  });
}

// ---------------- multi-patch continuum coupling ----------------

TEST(MultiPatch, PoiseuilleAcrossThreePatches) {
  coupling::MultiPatchParams mp;
  mp.L = 6.0;
  mp.H = 1.0;
  mp.nx = 12;
  mp.ny = 2;
  mp.order = 5;
  mp.patches = 3;
  mp.overlap = 1;
  mp.ns.nu = 0.05;
  mp.ns.dt = 2e-3;
  const double Umax = 1.0;
  coupling::MultiPatchChannel chan(
      mp, [Umax](double y, double) { return 4.0 * Umax * y * (1.0 - y); });
  for (int s = 0; s < 500; ++s) chan.step();
  // the parabolic profile survives through all three patches
  for (double x : {1.0, 3.0, 5.0}) {
    EXPECT_NEAR(chan.evaluate_u(x, 0.5), Umax, 0.05) << "x=" << x;
    EXPECT_NEAR(chan.evaluate_v(x, 0.5), 0.0, 0.03);
  }
  // velocity is continuous across the artificial interfaces (Fig. 9)
  EXPECT_LT(chan.interface_jump(), 0.02 * Umax);
}

TEST(MultiPatch, SinglePatchDegeneratesToPlainSolver) {
  coupling::MultiPatchParams mp;
  mp.L = 2.0;
  mp.nx = 4;
  mp.ny = 2;
  mp.order = 4;
  mp.patches = 1;
  mp.ns.dt = 1e-3;
  coupling::MultiPatchChannel chan(mp, [](double y, double) { return y * (1.0 - y); });
  chan.step();
  EXPECT_EQ(chan.num_patches(), 1);
  EXPECT_DOUBLE_EQ(chan.interface_jump(), 0.0);
}

TEST(MultiPatch, RejectsOversizedOverlap) {
  coupling::MultiPatchParams mp;
  mp.nx = 8;
  mp.patches = 4;
  mp.overlap = 3;
  EXPECT_THROW(coupling::MultiPatchChannel(mp, [](double, double) { return 0.0; }),
               std::invalid_argument);
}

// ---------------- continuum-DPD coupling ----------------

TEST(Cdc, ScheduleCountsAndScaledVelocity) {
  // Continuum: steady Poiseuille channel. DPD box embedded mid-channel.
  auto m = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes2D::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes2D ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 200; ++s) ns.step();  // develop the flow

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 13, 0.1);

  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  dpd::FlowBc bc(fp);

  coupling::EmbeddedRegion region{1.5, 2.5, 0.0, 1.0};
  coupling::ScaleMap scales;
  scales.L_ns = 1.0;    // channel height in NS units
  scales.L_dpd = 10.0;  // the same height in DPD units (box height)
  scales.nu_ns = 0.05;
  scales.nu_dpd = 0.25;  // v_dpd = v_ns * (1/10) * 5 = 0.5 v_ns
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 5;

  coupling::ContinuumDpdCoupler cdc(ns, sys, bc, region, scales, tp);

  // centerline: u_ns ~ 1 -> imposed DPD speed ~ 50... scale check first:
  const auto v_mid = cdc.continuum_velocity_at({8.0, 3.0, 5.0});
  const double u_ns_mid = d.evaluate(ns.u(), 2.0, 0.5);
  EXPECT_NEAR(v_mid.x, scales.velocity_ns_to_dpd(u_ns_mid), 1e-9);

  std::size_t dpd_steps = 0;
  cdc.advance_interval([&] { ++dpd_steps; });
  EXPECT_EQ(dpd_steps, 10u);  // 2 NS steps x 5 DPD steps
  EXPECT_EQ(cdc.exchanges(), 1u);
}

TEST(Cdc, DpdFlowTracksContinuum) {
  // With a modest imposed velocity the DPD bulk flow should approach the
  // continuum field after several coupling intervals (Fig. 9 behaviour).
  auto m = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes2D::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes2D ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 200; ++s) ns.step();

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 13, 0.1);

  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);

  coupling::EmbeddedRegion region{1.5, 2.5, 0.0, 1.0};
  coupling::ScaleMap scales;
  scales.L_ns = 1.0;
  scales.L_dpd = 10.0;
  scales.nu_ns = 0.05;
  scales.nu_dpd = 2.5;  // v_dpd = v_ns * (1/10) * 50 = 5 v_ns -> max ~ 5
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 10;
  coupling::ContinuumDpdCoupler cdc(ns, sys, bc, region, scales, tp);

  dpd::SamplerParams sp;
  sp.nx = 4;
  sp.ny = 1;
  sp.nz = 5;
  dpd::FieldSampler sampler(sys, sp);
  for (int interval = 0; interval < 25; ++interval)
    cdc.advance_interval([&] {
      if (interval >= 15) sampler.accumulate(sys);
    });
  const double mism = cdc.interface_mismatch(sampler);
  // imposed centerline speed is ~5 in DPD units; mean mismatch across bins
  // should be well under that
  EXPECT_LT(mism, 1.0);
}

// A continuum that only counts: checks the Fig. 5 schedule without SEM.
class CountingContinuum final : public coupling::Continuum {
public:
  static constexpr double kU = 0.4, kV = -0.1, kW = 0.2;  ///< continuum units

  explicit CountingContinuum(const std::size_t* callbacks) : callbacks_(callbacks) {}
  std::size_t step() override {
    steps_at.push_back(*callbacks_);
    return 3 + steps_at.size();  // 4, 5, 6, ... CG iterations
  }
  dpd::Vec3 velocity_at(const dpd::Vec3& frac) const override {
    ++queries;
    last_frac = frac;
    return {kU, kV, kW};
  }
  void save_state(resilience::BlobWriter&) const override {}
  void load_state(resilience::BlobReader&) override {}

  std::vector<std::size_t> steps_at;  ///< per-DPD-step callbacks seen before each step
  mutable std::size_t queries = 0;
  mutable dpd::Vec3 last_frac{};

private:
  const std::size_t* callbacks_;
};

TEST(Cdc, ScheduleRunsOverAnyContinuum) {
  dpd::DpdParams dp;
  dp.box = {8.0, 4.0, 6.0};
  dp.periodic = {false, true, true};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 5);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.relax = 1.0;  // the buffer takes the imposed velocity outright
  dpd::FlowBc bc(fp);

  coupling::ScaleMap scales;
  scales.L_ns = 1.0;
  scales.L_dpd = 4.0;
  scales.nu_ns = 0.1;
  scales.nu_dpd = 0.8;  // v_dpd = 2 v_ns
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 3;
  tp.dpd_per_ns = 4;

  std::size_t callbacks = 0;
  auto owned = std::make_unique<CountingContinuum>(&callbacks);
  CountingContinuum& fake = *owned;
  coupling::ContinuumDpdCoupler cdc(std::move(owned), sys, bc, scales, tp);
  const dpd::Vec3 want{scales.velocity_ns_to_dpd(CountingContinuum::kU),
                       scales.velocity_ns_to_dpd(CountingContinuum::kV),
                       scales.velocity_ns_to_dpd(CountingContinuum::kW)};

  std::size_t relaxed_to_target = 0;
  const std::size_t cg = cdc.advance_interval([&] {
    ++callbacks;
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const dpd::Vec3 v = sys.velocities()[i];
      if (sys.positions()[i].x <= fp.buffer_len && std::fabs(v.x - want.x) < 1e-12 &&
          std::fabs(v.y - want.y) < 1e-12 && std::fabs(v.z - want.z) < 1e-12)
        ++relaxed_to_target;
    }
  });

  // exchange_every_ns continuum steps, dpd_per_ns DPD steps between them
  EXPECT_EQ(fake.steps_at, (std::vector<std::size_t>{0, 4, 8}));
  EXPECT_EQ(callbacks, 12u);
  EXPECT_EQ(cg, 4u + 5u + 6u);
  EXPECT_EQ(cdc.exchanges(), 1u);
  // the FlowBc target is the fake's velocity, scaled by Eq. (1)
  EXPECT_GT(fake.queries, 0u);
  EXPECT_GT(relaxed_to_target, 0u);
  const dpd::Vec3 at = cdc.continuum_velocity_at({2.0, 1.0, 3.0});
  EXPECT_EQ(fake.last_frac.x, 0.25);
  EXPECT_EQ(fake.last_frac.y, 0.25);
  EXPECT_EQ(fake.last_frac.z, 0.5);
  EXPECT_EQ(at.x, want.x);
  EXPECT_EQ(at.y, want.y);
  EXPECT_EQ(at.z, want.z);

  // interface_mismatch compares the samples with the fake's velocity
  dpd::SamplerParams sp;
  sp.nx = 4;
  sp.ny = 1;
  sp.nz = 3;
  dpd::FieldSampler sampler(sys, sp), reference(sys, sp);
  sampler.accumulate(sys);
  reference.accumulate(sys);
  const auto snap = reference.snapshot();
  double acc = 0.0;
  for (std::size_t b = 0; b < snap.size(); ++b) acc += std::fabs(snap[b] - want.x);
  EXPECT_DOUBLE_EQ(cdc.interface_mismatch(sampler), acc / static_cast<double>(snap.size()));
}

TEST(Cdc, InterfaceMismatchLeavesTheSamplerWindow) {
  // a diagnostic read: asking twice gives the same answer, and the window
  // the sampler would checkpoint is untouched
  dpd::DpdParams dp;
  dp.box = {8.0, 4.0, 6.0};
  dp.periodic = {false, true, true};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 5);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  dpd::FlowBc bc(fp);
  std::size_t callbacks = 0;
  coupling::ContinuumDpdCoupler cdc(std::make_unique<CountingContinuum>(&callbacks), sys, bc,
                                    coupling::ScaleMap{}, coupling::TimeProgression{});
  dpd::SamplerParams sp;
  sp.nx = 4;
  sp.ny = 2;
  sp.nz = 3;
  dpd::FieldSampler sampler(sys, sp);
  for (int s = 0; s < 3; ++s) {
    sys.step();
    sampler.accumulate(sys);
  }
  resilience::BlobWriter before;
  sampler.save_state(before);

  const double first = cdc.interface_mismatch(sampler);
  const double second = cdc.interface_mismatch(sampler);
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0.0);
  resilience::BlobWriter after;
  sampler.save_state(after);
  EXPECT_EQ(before.data(), after.data());
  // the consuming read still sees the same window
  const auto mean = sampler.mean();
  const auto snap = sampler.snapshot();
  for (std::size_t b = 0; b < snap.size(); ++b) EXPECT_EQ(mean[b], snap[b]);
}

TEST(Cdc, PhaseTreeNamesTheSchedule) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 3);
  sem::NavierStokes2D::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes2D ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);

  dpd::DpdParams dp;
  dp.box = {8.0, 4.0, 6.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(6.0));
  sys.fill(3.0, dpd::kSolvent, 9, 0.1);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  dpd::FlowBc bc(fp);
  dpd::BufferZones zones;
  dpd::BufferWindow w;
  w.name = "Gamma_I1";
  w.lo = {6.0, 0.0, 0.0};
  w.hi = {8.0, 4.0, 6.0};
  zones.add_window(w);

  coupling::ScaleMap scales;
  scales.L_dpd = 6.0;
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 3;
  coupling::ContinuumDpdCoupler cdc(ns, sys, bc, {0.5, 1.5, 0.0, 1.0}, scales, tp);
  cdc.set_buffer_zones(&zones);

  telemetry::set_enabled(true);
  telemetry::Registry::reset_all();
  cdc.advance_interval([] {});
  const auto root = telemetry::Registry::local().phases();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"coupling.exchange", 1}, {"ns2d.step", 2},     {"dpd.step", 6},
      {"flowbc.apply", 6},      {"buffers.apply", 6}, {"coupling.per_step", 6}};
  for (const auto& [name, count] : expected) {
    const auto* node = root.find(name);
    ASSERT_NE(node, nullptr) << name;
    EXPECT_EQ(node->count, count) << name;
  }
}

}  // namespace

#include "coupling/triple.hpp"

namespace {

TEST(TripleDecker, NestedScheduleAndVelocityCascade) {
  // NS channel -> DPD layer -> nested "MD" layer (finer particle system).
  // Verify the Fig.-5 nested schedule counts and that the imposed velocity
  // cascades through both Eq.-(1) maps with the right magnitude.
  auto m = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes2D::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes2D ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 200; ++s) ns.step();

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem dpd_sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  dpd_sys.fill(3.0, dpd::kSolvent, 13, 0.1);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);

  coupling::ScaleMap s1;
  s1.L_ns = 1.0;
  s1.L_dpd = 10.0;
  s1.nu_ns = 0.05;
  s1.nu_dpd = 2.5;  // NS -> DPD: x0.5
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 10;
  coupling::ContinuumDpdCoupler cdc(ns, dpd_sys, bc, {1.5, 2.5, 0.0, 1.0}, s1, tp);

  // MD layer: small periodic box nested mid-DPD-domain
  dpd::DpdParams mdp;
  mdp.box = {6.0, 6.0, 6.0};
  mdp.periodic = {true, true, true};
  mdp.dt = 0.002;
  dpd::DpdSystem md(mdp, std::make_shared<dpd::NoWalls>());
  md.fill(3.0, dpd::kSolvent, 21);

  dpd::BufferZones md_buf;
  dpd::BufferWindow w;
  w.name = "md-interface";
  w.lo = {0, 0, 0};
  w.hi = {6, 6, 6};  // whole box steered (strong coupling for the test)
  w.relax = 0.5;
  md_buf.add_window(w);

  coupling::ScaleMap s2;
  s2.L_ns = 10.0;  // the shared feature in DPD units
  s2.L_dpd = 40.0; // ... and in MD units: MD resolves it 4x finer
  s2.nu_ns = 2.5;
  s2.nu_dpd = 5.0;  // DPD -> MD: x(10/40)(5/2.5) = x0.5
  coupling::NestedRegion region{{6.0, 0.0, 4.0}, {12.0, 6.0, 10.0}};
  coupling::TripleDecker triple(cdc, md, md_buf, region, s2, /*md_per_dpd=*/4);

  std::size_t md_steps = 0;
  const int kIntervals = 20;  // enough for the DPD channel flow to develop
  for (int k = 0; k < kIntervals; ++k) triple.advance_interval([&] { ++md_steps; });

  // nested schedule: 2 NS x 10 DPD x 4 MD per interval
  EXPECT_EQ(md_steps, kIntervals * 2u * 10u * 4u);
  EXPECT_EQ(triple.exchanges(), static_cast<std::size_t>(kIntervals));
  EXPECT_EQ(dpd_sys.step_count(), kIntervals * 2u * 10u);
  EXPECT_EQ(md.step_count(), md_steps);

  // velocity cascade: the MD bulk flow should approach the DPD mean scaled
  // by the second map (which itself tracks the NS field). Probe an MD point
  // that maps into the developed mid-channel of the DPD layer (z_dpd = 5).
  const dpd::Vec3 probe{3.0, 3.0, 1.0};
  const dpd::Vec3 imposed = triple.dpd_velocity_at_md_point(probe);
  double um = 0.0;
  for (std::size_t i = 0; i < md.size(); ++i) um += md.velocities()[i].x;
  um /= static_cast<double>(md.size());
  EXPECT_GT(imposed.x, 0.05);  // the cascade transmits forward flow
  EXPECT_NEAR(um, imposed.x, 0.3 + 0.5 * imposed.x);
}

}  // namespace

namespace {

TEST(MultiPatch, InterfaceThroughAneurysmCavity) {
  // The paper's patch decomposition cuts patient-specific geometry wherever
  // the load balance wants; here a 2-patch split slices straight through
  // the aneurysm cavity and the coupled solution must stay continuous
  // across the interface, inside the sac included.
  coupling::MultiPatchParams mp;
  mp.L = 8.0;
  mp.H = 1.0;
  mp.nx = 16;
  mp.ny = 2;
  mp.order = 4;
  mp.patches = 2;
  mp.overlap = 1;
  mp.with_cavity = true;
  mp.cav_x0 = 3.0;
  mp.cav_x1 = 5.0;
  mp.cav_depth = 1.0;
  mp.ns.nu = 0.02;
  mp.ns.dt = 2e-3;
  coupling::MultiPatchChannel chan(
      mp, [](double y, double) { return 4.0 * y * (1.0 - y); });

  for (int s = 0; s < 400; ++s) chan.step();

  // channel interface continuity
  EXPECT_LT(chan.interface_jump(), 0.03);

  // continuity inside the cavity: compare the two patches at the interface
  // midline at cavity heights
  const double xm = 0.5 * (chan.patch_extent(1).first + chan.patch_extent(0).second);
  for (double y : {1.2, 1.5, 1.8}) {
    const double u0 = chan.disc(0).evaluate(chan.patch(0).u(), xm, y);
    const double u1 = chan.disc(1).evaluate(chan.patch(1).u(), xm, y);
    EXPECT_NEAR(u0, u1, 0.03) << "y=" << y;
  }
  // the sac flow is slow compared to the channel (clotting condition)
  EXPECT_LT(std::fabs(chan.evaluate_u(4.0, 1.6)), 0.5 * chan.evaluate_u(4.0, 0.5));
}

TEST(MultiPatch, FourPatchesAsInPaper) {
  // the paper's CoW domain is subdivided into four patches (Sec. 3)
  coupling::MultiPatchParams mp;
  mp.L = 8.0;
  mp.H = 1.0;
  mp.nx = 16;
  mp.ny = 2;
  mp.order = 4;
  mp.patches = 4;
  mp.overlap = 1;
  mp.ns.nu = 0.05;
  mp.ns.dt = 2e-3;
  coupling::MultiPatchChannel chan(
      mp, [](double y, double t) {
        return 4.0 * y * (1.0 - y) * (1.0 + 0.3 * std::sin(2.0 * M_PI * t / 0.5));
      });
  for (int s = 0; s < 400; ++s) chan.step();
  EXPECT_EQ(chan.num_patches(), 4);
  EXPECT_LT(chan.interface_jump(), 0.05);
  // flux is transported through all four patches
  EXPECT_GT(chan.evaluate_u(7.5, 0.5), 0.5);
}

}  // namespace

#include "coupling/cdc3d.hpp"

namespace {

TEST(Cdc3d, FullyThreeDimensionalCoupling) {
  // 3D continuum channel (plates at z = 0, 1) with an embedded DPD box:
  // the paper's actual configuration, no dimension folding.
  const double H = 1.0, Umax = 1.0, nu = 0.05;
  sem::Discretization3D d(4.0, 1.0, H, 4, 1, 2, 4);
  sem::NavierStokes3D::Params prm;
  prm.nu = nu;
  prm.dt = 2e-3;
  prm.pressure_dirichlet_faces = {sem::HexFace::X1};
  sem::NavierStokes3D ns(d, prm);
  auto prof = [&](double, double, double z, double) {
    return 4.0 * Umax * z * (H - z) / (H * H);
  };
  auto zero = [](double, double, double, double) { return 0.0; };
  ns.set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y1, prof, zero, zero);
  ns.set_natural_bc(sem::HexFace::X1);
  for (int s = 0; s < 250; ++s) ns.step();

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 13, 0.1);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);

  coupling::ScaleMap scales;
  scales.L_ns = 1.0;   // channel height in NS units
  scales.L_dpd = 10.0; // the same height in DPD units
  scales.nu_ns = nu;
  scales.nu_dpd = 2.5;  // v_dpd = 5 v_ns
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 10;
  coupling::EmbeddedBox box{1.5, 2.5, 0.25, 0.75, 0.0, 1.0};
  coupling::ContinuumDpdCoupler3D cdc(ns, sys, bc, box, scales, tp);

  // scale check against the 3D field
  const auto vmid = cdc.continuum_velocity_at({8.0, 3.0, 5.0});
  EXPECT_NEAR(vmid.x, scales.velocity_ns_to_dpd(d.evaluate(ns.u(), 2.0, 0.5, 0.5)), 1e-9);
  EXPECT_NEAR(vmid.z, 0.0, 0.5);

  dpd::SamplerParams sp;
  sp.nx = 4;
  sp.ny = 1;
  sp.nz = 5;
  dpd::FieldSampler sampler(sys, sp);
  for (int interval = 0; interval < 20; ++interval)
    cdc.advance_interval([&] {
      if (interval >= 12) sampler.accumulate(sys);
    });
  EXPECT_EQ(cdc.exchanges(), 20u);
  const double mism = cdc.interface_mismatch(sampler);
  EXPECT_LT(mism, 1.2);  // DPD bulk tracks the imposed 3D field
}

// ---------------- negative paths ----------------

TEST(MultiPatch, RejectsNonPositivePatchCount) {
  coupling::MultiPatchParams mp;
  mp.patches = 0;
  EXPECT_THROW(coupling::MultiPatchChannel(mp, [](double, double) { return 0.0; }),
               std::invalid_argument);
}

TEST(Cdc, RejectsDegenerateRegion) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 3);
  sem::NavierStokes2D::Params nsp;
  sem::NavierStokes2D ns(d, nsp);
  dpd::DpdParams dp;
  dpd::DpdSystem sys(dp, nullptr);
  dpd::FlowBcParams fp;
  dpd::FlowBc bc(fp);
  coupling::ScaleMap scales;
  coupling::TimeProgression tp;
  coupling::EmbeddedRegion flat_x{1.0, 1.0, 0.0, 1.0};   // x1 == x0
  coupling::EmbeddedRegion inverted_y{0.0, 1.0, 1.0, 0.5};  // y1 < y0
  EXPECT_THROW(coupling::ContinuumDpdCoupler(ns, sys, bc, flat_x, scales, tp),
               std::invalid_argument);
  EXPECT_THROW(coupling::ContinuumDpdCoupler(ns, sys, bc, inverted_y, scales, tp),
               std::invalid_argument);

  // the 3D patch validates every axis the same way
  sem::Discretization3D d3(1.0, 1.0, 1.0, 1, 1, 1, 2);
  sem::NavierStokes3D ns3(d3, sem::NavierStokes3D::Params{});
  coupling::EmbeddedBox flat_z{0.0, 1.0, 0.0, 1.0, 0.5, 0.5};      // z1 == z0
  coupling::EmbeddedBox inverted_x{0.75, 0.25, 0.0, 1.0, 0.0, 1.0};  // x1 < x0
  EXPECT_THROW(coupling::ContinuumDpdCoupler3D(ns3, sys, bc, flat_z, scales, tp),
               std::invalid_argument);
  EXPECT_THROW(coupling::ContinuumDpdCoupler3D(ns3, sys, bc, inverted_x, scales, tp),
               std::invalid_argument);
}

TEST(Replica, DistributeVsGatherMismatchCaughtByCheckedMode) {
  if (!xmp::checked_available()) GTEST_SKIP() << "built without XMP_CHECKED";
  xmp::CheckOptions opts;
  opts.enabled = true;
  try {
    xmp::run(
        2,
        [](xmp::Comm& world) {
          coupling::ReplicaEnsemble ens(world, 2);  // one rank per replica, both roots
          std::vector<double> v(4, 1.0);
          // Protocol error: the master replica fans data out while the other
          // replica tries to collect an average — the roots communicator sees
          // a bcast on one rank and a gatherv on the other.
          if (ens.replica_id() == 0)
            (void)ens.distribute(std::move(v));
          else
            (void)ens.gather_average(v);
        },
        nullptr, opts);
    FAIL() << "expected xmp::CheckError";
  } catch (const xmp::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offender"), std::string::npos) << msg;
  }
}

}  // namespace
