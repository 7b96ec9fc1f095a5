// Tests for the DPD engine: pair search, force symmetry/momentum
// conservation, thermostat equilibrium, Poiseuille flow against continuum
// theory, wall no-penetration, inflow/outflow bookkeeping, bonded RBC rings,
// and platelet aggregation dynamics.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "dpd/bonds.hpp"
#include "dpd/buffers.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/platelets.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "dpd/viscometry.hpp"
#include "telemetry/registry.hpp"

namespace {

dpd::DpdParams periodic_box(double L = 8.0) {
  dpd::DpdParams p;
  p.box = {L, L, L};
  p.periodic = {true, true, true};
  return p;
}

TEST(Geometry, ChannelSdf) {
  dpd::ChannelZ ch(10.0);
  EXPECT_DOUBLE_EQ(ch.sdf({0, 0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(ch.sdf({0, 0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(ch.sdf({0, 0, -1.0}), -1.0);
  EXPECT_DOUBLE_EQ(ch.normal({0, 0, 1.0}).z, 1.0);
  EXPECT_DOUBLE_EQ(ch.normal({0, 0, 9.0}).z, -1.0);
}

TEST(Geometry, PipeSdf) {
  dpd::PipeX pipe(3.0, 5.0, 5.0);
  EXPECT_DOUBLE_EQ(pipe.sdf({0, 5, 5}), 3.0);
  EXPECT_DOUBLE_EQ(pipe.sdf({0, 8, 5}), 0.0);
  EXPECT_LT(pipe.sdf({0, 9, 5}), 0.0);
  const auto n = pipe.normal({0, 7, 5});
  EXPECT_NEAR(n.y, -1.0, 1e-9);
}

TEST(Geometry, CavitySdfUnion) {
  dpd::ChannelWithCavityZ g(4.0, 10.0, 14.0, 3.0);
  EXPECT_GT(g.sdf({5.0, 0.0, 2.0}), 0.0);    // channel interior
  EXPECT_GT(g.sdf({12.0, 0.0, 5.0}), 0.0);   // cavity interior
  EXPECT_LT(g.sdf({5.0, 0.0, 5.0}), 0.0);    // above channel, outside cavity
  EXPECT_LT(g.sdf({12.0, 0.0, 7.5}), 0.0);   // above cavity roof
}

TEST(Dpd, PairSearchMatchesBruteForce) {
  auto prm = periodic_box(6.0);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 5);
  std::set<std::pair<std::size_t, std::size_t>> cell_pairs;
  sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
    cell_pairs.insert({std::min(i, j), std::max(i, j)});
  });
  // brute force
  std::set<std::pair<std::size_t, std::size_t>> bf_pairs;
  const auto& pos = sys.positions();
  for (std::size_t i = 0; i < sys.size(); ++i)
    for (std::size_t j = i + 1; j < sys.size(); ++j)
      if (sys.min_image(pos[i], pos[j]).norm2() < 1.0) bf_pairs.insert({i, j});
  EXPECT_EQ(cell_pairs, bf_pairs);
}

TEST(Dpd, ForcesConserveMomentum) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 21);
  sys.compute_forces();
  dpd::Vec3 f{};
  for (const auto& fi : sys.forces()) f += fi;
  EXPECT_NEAR(f.x, 0.0, 1e-9);
  EXPECT_NEAR(f.y, 0.0, 1e-9);
  EXPECT_NEAR(f.z, 0.0, 1e-9);
}

TEST(Dpd, MomentumConservedOverTime) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 33);
  const dpd::Vec3 p0 = sys.total_momentum();
  for (int s = 0; s < 50; ++s) sys.step();
  const dpd::Vec3 p1 = sys.total_momentum();
  EXPECT_NEAR(p1.x - p0.x, 0.0, 1e-8);
  EXPECT_NEAR(p1.y - p0.y, 0.0, 1e-8);
  EXPECT_NEAR(p1.z - p0.z, 0.0, 1e-8);
}

TEST(Dpd, ThermostatHoldsTemperature) {
  auto prm = periodic_box();
  prm.kBT = 1.0;
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 17);
  // equilibrate, then average T over a window
  for (int s = 0; s < 200; ++s) sys.step();
  double T = 0.0;
  const int win = 200;
  for (int s = 0; s < win; ++s) {
    sys.step();
    T += sys.kinetic_temperature();
  }
  T /= win;
  // Groot-Warren report a few % offset at dt = 0.01-0.05
  EXPECT_NEAR(T, prm.kBT, 0.06);
}

TEST(Dpd, DeterministicPairNoise) {
  // same (step, i, j) must give the same variate; symmetric in i, j
  const double z1 = dpd::pair_gaussian_like(42, 3, 17);
  const double z2 = dpd::pair_gaussian_like(42, 17, 3);
  const double z3 = dpd::pair_gaussian_like(43, 3, 17);
  EXPECT_DOUBLE_EQ(z1, z2);
  EXPECT_NE(z1, z3);
  // zero mean, unit variance over many draws
  double m = 0.0, v = 0.0;
  const int n = 20000;
  for (int k = 0; k < n; ++k) {
    const double z = dpd::pair_gaussian_like(k, 1, 2);
    m += z;
    v += z * z;
  }
  m /= n;
  v = v / n - m * m;
  EXPECT_NEAR(m, 0.0, 0.02);
  EXPECT_NEAR(v, 1.0, 0.03);
}

TEST(Dpd, WallsKeepParticlesInside) {
  dpd::DpdParams prm;
  prm.box = {8.0, 8.0, 6.0};
  prm.periodic = {true, true, false};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  sys.fill(3.0, dpd::kSolvent, 9, 0.1);
  for (int s = 0; s < 200; ++s) sys.step();
  for (const auto& p : sys.positions()) {
    EXPECT_GE(p.z, 0.0);
    EXPECT_LE(p.z, 6.0);
  }
}

TEST(Dpd, PoiseuilleProfileParabolic) {
  // Body-force-driven flow between plates: steady profile is parabolic with
  // centerline speed g H^2 / (8 nu_kinematic). We check shape (parabola fit)
  // and symmetry rather than the absolute viscosity.
  dpd::DpdParams prm;
  prm.box = {10.0, 6.0, 8.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(8.0));
  sys.fill(3.0, dpd::kSolvent, 3, 0.1);
  const double g = 0.06;
  sys.set_body_force([g](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{g, 0, 0}; });

  for (int s = 0; s < 800; ++s) sys.step();  // develop the flow
  dpd::SamplerParams sp;
  sp.nx = 1;
  sp.ny = 1;
  sp.nz = 16;
  dpd::FieldSampler sampler(sys, sp);
  for (int s = 0; s < 1200; ++s) {
    sys.step();
    sampler.accumulate(sys);
  }
  auto prof = sampler.snapshot();
  // centerline > near-wall; symmetric within sampling noise
  const double center = 0.5 * (prof[7] + prof[8]);
  EXPECT_GT(center, 2.0 * prof[0]);
  EXPECT_GT(center, 0.1);
  EXPECT_NEAR(prof[3], prof[12], 0.25 * center);
  // parabola through (z0, u0) and center should predict quarter points
  const double H = 8.0;
  auto z_of = [H](int b) { return (b + 0.5) * H / 16.0; };
  auto parab = [&](double z) { return center * (1.0 - std::pow((z - H / 2) / (H / 2), 2)); };
  EXPECT_NEAR(prof[4], parab(z_of(4)), 0.25 * center);
  EXPECT_NEAR(prof[11], parab(z_of(11)), 0.25 * center);
}

TEST(Dpd, FrozenParticlesDoNotMove) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 13);
  const std::size_t i = sys.add_particle({4.0, 4.0, 4.0}, {}, dpd::kPlatelet);
  sys.frozen()[i] = 1;
  for (int s = 0; s < 50; ++s) sys.step();
  EXPECT_DOUBLE_EQ(sys.positions()[i].x, 4.0);
  EXPECT_DOUBLE_EQ(sys.positions()[i].y, 4.0);
  EXPECT_DOUBLE_EQ(sys.positions()[i].z, 4.0);
}

TEST(Dpd, RemoveParticlesRemapsModules) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  auto bonds = std::make_shared<dpd::BondSet>();
  sys.add_module(bonds);
  const auto a = sys.add_particle({1, 1, 1}, {}, dpd::kSolvent);
  const auto b = sys.add_particle({1.4, 1, 1}, {}, dpd::kSolvent);
  const auto c = sys.add_particle({2, 2, 2}, {}, dpd::kSolvent);
  bonds->add_bond(a, b, 0.4, 10.0);
  bonds->add_bond(b, c, 1.0, 10.0);
  sys.remove_particles({c});
  EXPECT_EQ(bonds->size(), 1u);  // bond to removed particle dropped
  EXPECT_EQ(sys.size(), 2u);
  sys.remove_particles({a});
  EXPECT_EQ(bonds->size(), 0u);
}

TEST(FlowBc, InsertsAndDeletes) {
  dpd::DpdParams prm;
  prm.box = {12.0, 5.0, 5.0};
  prm.periodic = {false, true, true};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 5);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  fp.target_velocity = [](const dpd::Vec3&) { return dpd::Vec3{1.5, 0, 0}; };
  dpd::FlowBc bc(fp);
  const std::size_t n0 = sys.size();
  for (int s = 0; s < 400; ++s) {
    sys.step();
    bc.apply(sys);
  }
  EXPECT_GT(bc.inserted_total(), 0u);
  EXPECT_GT(bc.deleted_total(), 0u);
  // density roughly maintained (within 25%)
  EXPECT_NEAR(static_cast<double>(sys.size()), static_cast<double>(n0), 0.25 * n0);
  // all particles inside the domain along x
  for (const auto& p : sys.positions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 12.0);
  }
  // mean velocity in the bulk should be dragged towards the inflow speed
  double um = 0.0;
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    if (sys.positions()[i].x < 4.0 || sys.positions()[i].x > 8.0) continue;
    um += sys.velocities()[i].x;
    ++cnt;
  }
  ASSERT_GT(cnt, 0u);
  EXPECT_GT(um / cnt, 0.5);
}

TEST(Bonds, HarmonicRestoringForce) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  auto bonds = std::make_shared<dpd::BondSet>();
  sys.add_module(bonds);
  const auto a = sys.add_particle({1.0, 1, 1}, {}, dpd::kRbcBead);
  const auto b = sys.add_particle({2.0, 1, 1}, {}, dpd::kRbcBead);
  bonds->add_bond(a, b, 0.5, 10.0);  // stretched by 0.5
  sys.compute_forces();
  // a pulled towards +x, b towards -x, magnitude ~ k dr (plus DPD pair force)
  EXPECT_GT(sys.forces()[a].x, 0.0);
  EXPECT_LT(sys.forces()[b].x, 0.0);
  EXPECT_NEAR(sys.forces()[a].x + sys.forces()[b].x, 0.0, 1e-12);
}

TEST(Bonds, RbcRingHoldsTogetherInFlow) {
  dpd::DpdParams prm;
  prm.box = {12.0, 6.0, 8.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.005;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(8.0));
  sys.fill(3.0, dpd::kSolvent, 3, 0.1);
  auto bonds = std::make_shared<dpd::BondSet>();
  sys.add_module(bonds);
  dpd::RbcRingParams rp;
  rp.center = {6.0, 3.0, 4.0};
  rp.radius = 1.5;
  rp.beads = 16;
  auto beads = dpd::make_rbc_ring(sys, *bonds, rp);
  EXPECT_EQ(beads.size(), 16u);
  EXPECT_EQ(bonds->size(), 32u);  // neighbour + bending springs
  sys.set_body_force([](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{0.05, 0, 0}; });
  for (int s = 0; s < 500; ++s) sys.step();
  // ring integrity: no bond stretched beyond 80%
  EXPECT_LT(bonds->max_strain(sys), 0.8);
  // the cell was advected downstream (possibly wrapped)
  double cx = 0.0;
  for (auto i : beads) cx += sys.positions()[i].x;
  cx /= beads.size();
  EXPECT_NE(cx, 6.0);
}

TEST(Platelets, ActivationStateMachine) {
  dpd::DpdParams prm;
  prm.box = {8.0, 4.0, 6.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  dpd::PlateletParams pp;
  pp.adhesive_region = [](const dpd::Vec3& p) { return p.z < 3.0; };  // bottom wall
  pp.trigger_distance = 1.2;
  pp.activation_delay = 0.5;
  pp.bind_distance = 1.0;
  pp.bind_speed = 5.0;  // permissive so binding happens quickly in test
  auto model = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(model);
  // a platelet gently drifting toward the bottom wall
  model->add_platelet(sys.add_particle({4.0, 2.0, 1.0}, {0, 0, -0.5}, dpd::kPlatelet));
  ASSERT_EQ(model->count(dpd::PlateletState::Passive), 1u);
  for (int s = 0; s < 300; ++s) {
    sys.step();
    model->update(sys);
  }
  EXPECT_EQ(model->count(dpd::PlateletState::Bound), 1u);
}

TEST(Platelets, NoActivationAwayFromAdhesiveRegion) {
  dpd::DpdParams prm;
  prm.box = {8.0, 4.0, 6.0};
  prm.periodic = {true, true, false};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  dpd::PlateletParams pp;
  pp.adhesive_region = [](const dpd::Vec3&) { return false; };
  auto model = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(model);
  model->add_platelet(sys.add_particle({4.0, 2.0, 0.5}, {}, dpd::kPlatelet));
  for (int s = 0; s < 200; ++s) {
    sys.step();
    model->update(sys);
  }
  EXPECT_EQ(model->count(dpd::PlateletState::Passive), 1u);
}

TEST(Platelets, AggregateGrowsOnBoundSeed) {
  dpd::DpdParams prm;
  prm.box = {6.0, 6.0, 6.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  dpd::PlateletParams pp;
  pp.adhesive_region = [](const dpd::Vec3& p) { return p.z < 2.0; };
  pp.activation_delay = 0.1;
  pp.bind_speed = 5.0;
  auto model = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(model);
  sys.fill(3.0, dpd::kSolvent, 31, 0.1);  // solvent provides realistic drag
  // bound seed at the wall + a nearby platelet drifting towards it
  const auto seed = sys.add_particle({3.0, 3.0, 0.7}, {}, dpd::kPlatelet);
  model->add_platelet(seed);
  model->add_platelet(sys.add_particle({3.0, 3.0, 1.3}, {0, 0, -0.3}, dpd::kPlatelet));
  for (int s = 0; s < 1500 && model->count(dpd::PlateletState::Bound) < 2; ++s) {
    sys.step();
    model->update(sys);
  }
  EXPECT_EQ(model->count(dpd::PlateletState::Bound), 2u);
}

TEST(Platelets, OneListCheckPerForceEvaluation) {
  // Modules see the list pair_forces just ensured: with a platelet model
  // attached, each force evaluation still counts exactly one list check
  // (a rebuild or a reuse).
  telemetry::set_enabled(true);
  auto counter = [](const char* name) {
    const auto counters = telemetry::Registry::local().counters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second.value;
  };
  dpd::DpdParams prm;
  prm.box = {6.0, 6.0, 6.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  dpd::PlateletParams pp;
  pp.adhesive_region = [](const dpd::Vec3& p) { return p.z < 2.0; };
  pp.activation_delay = 0.0;
  auto model = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(model);
  sys.fill(3.0, dpd::kSolvent, 31, 0.1);
  for (double x : {1.5, 3.0, 4.5})
    model->add_platelet(sys.add_particle({x, 3.0, 0.8}, {}, dpd::kPlatelet));
  const double checks0 = counter("dpd.nlist.rebuild") + counter("dpd.nlist.reuse");
  const int steps = 60;
  for (int s = 0; s < steps; ++s) {
    sys.step();
    model->update(sys);
  }
  const auto& nl = sys.neighbor_list();
  const std::uint64_t evaluations = steps + 1;  // the first step also evaluates at t = 0
  EXPECT_EQ(nl.rebuilds() + nl.reuses(), evaluations);
  EXPECT_EQ(counter("dpd.nlist.rebuild") + counter("dpd.nlist.reuse") - checks0,
            static_cast<double>(evaluations));
}

TEST(Sampler, BinsAndCenters) {
  auto prm = periodic_box(8.0);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.add_particle({1.0, 1.0, 1.0}, {2.0, 0, 0}, dpd::kSolvent);
  sys.add_particle({7.0, 7.0, 7.0}, {4.0, 0, 0}, dpd::kSolvent);
  dpd::SamplerParams sp;
  sp.nx = 2;
  sp.ny = 2;
  sp.nz = 2;
  dpd::FieldSampler sampler(sys, sp);
  sampler.accumulate(sys);
  auto snap = sampler.snapshot();
  EXPECT_DOUBLE_EQ(snap[0], 2.0);
  EXPECT_DOUBLE_EQ(snap[7], 4.0);
  EXPECT_DOUBLE_EQ(snap[1], 0.0);
  const auto c0 = sampler.bin_center(0);
  EXPECT_DOUBLE_EQ(c0.x, 2.0);
  // snapshot resets the window
  auto snap2 = sampler.snapshot();
  EXPECT_DOUBLE_EQ(snap2[0], 0.0);
}

}  // namespace

namespace {

TEST(Viscometry, PoiseuilleFitIsClean) {
  dpd::ViscometryParams p;
  auto r = dpd::measure_viscosity(p);
  EXPECT_GT(r.dynamic_viscosity, 0.0);
  EXPECT_GT(r.u_max, 0.0);
  // parabola fits the interior profile well and the thermostat held
  EXPECT_LT(r.fit_residual, 0.15);
  EXPECT_NEAR(r.measured_temperature, 1.0, 0.08);
  // Groot-Warren fluids at rho=3, a=25, gamma=4.5 have nu ~ O(0.3-1.5)
  EXPECT_GT(r.kinematic_viscosity, 0.1);
  EXPECT_LT(r.kinematic_viscosity, 5.0);
}

TEST(Viscometry, ViscosityGrowsWithGamma) {
  dpd::ViscometryParams lo, hi;
  for (auto& row : hi.dpd.gamma) row.fill(13.5);  // 3x the dissipation
  auto rlo = dpd::measure_viscosity(lo);
  auto rhi = dpd::measure_viscosity(hi);
  // DPD viscosity grows sub-linearly in gamma (the kinetic contribution
  // shrinks as the dissipative one grows); expect a clear but modest rise
  EXPECT_GT(rhi.dynamic_viscosity, 1.1 * rlo.dynamic_viscosity);
}

TEST(Viscometry, IndependentOfDrivingForce) {
  // mu is a fluid property: halving the body force should give (nearly)
  // the same fit
  dpd::ViscometryParams a, b;
  b.body_force = 0.5 * a.body_force;
  b.seed = 11;
  auto ra = dpd::measure_viscosity(a);
  auto rb = dpd::measure_viscosity(b);
  EXPECT_NEAR(rb.dynamic_viscosity / ra.dynamic_viscosity, 1.0, 0.2);
}

}  // namespace

namespace {

TEST(Buffers, WindowsSteerLocalVelocities) {
  dpd::DpdParams prm;
  prm.box = {12.0, 6.0, 6.0};
  prm.periodic = {true, true, true};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 19);

  dpd::BufferZones zones;
  dpd::BufferWindow w1;
  w1.name = "Gamma_I1";
  w1.lo = {0.0, 0.0, 0.0};
  w1.hi = {2.0, 6.0, 6.0};
  w1.relax = 0.4;
  dpd::BufferWindow w2 = w1;
  w2.name = "Gamma_I2";
  w2.lo = {10.0, 0.0, 0.0};
  w2.hi = {12.0, 6.0, 6.0};
  zones.add_window(w1);
  zones.add_window(w2);
  // shared field with a spatial profile: u = 1 + z/6 (periodic x keeps the
  // windows populated)
  zones.set_shared_target([](const dpd::Vec3& p) {
    return dpd::Vec3{1.0 + p.z / 6.0, 0.0, 0.0};
  });

  for (int s = 0; s < 200; ++s) {
    sys.step();
    zones.apply(sys);
  }
  EXPECT_GT(zones.count_inside(sys, 0), 20u);
  EXPECT_GT(zones.count_inside(sys, 1), 20u);
  // each window's particles track the local target (thermal noise ~1)
  EXPECT_LT(zones.mismatch(sys, 0), 1.6);
  EXPECT_LT(zones.mismatch(sys, 1), 1.6);
  // windowed mean streamwise velocity near the imposed mean (~1.5)
  double u1 = 0.0, u2 = 0.0;
  std::size_t c1 = 0, c2 = 0;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const auto& p = sys.positions()[i];
    if (p.x < 2.0) { u1 += sys.velocities()[i].x; ++c1; }
    if (p.x > 10.0) { u2 += sys.velocities()[i].x; ++c2; }
  }
  EXPECT_NEAR(u1 / static_cast<double>(c1), 1.5, 0.5);
  EXPECT_NEAR(u2 / static_cast<double>(c2), 1.5, 0.5);
}

TEST(Buffers, FrozenParticlesExempt) {
  dpd::DpdParams prm;
  prm.box = {4.0, 4.0, 4.0};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  const auto i = sys.add_particle({1.0, 1.0, 1.0}, {}, dpd::kPlatelet);
  sys.frozen()[i] = 1;
  dpd::BufferZones zones;
  dpd::BufferWindow w;
  w.lo = {0, 0, 0};
  w.hi = {4, 4, 4};
  w.relax = 1.0;
  w.target = [](const dpd::Vec3&) { return dpd::Vec3{9.0, 0, 0}; };
  zones.add_window(w);
  zones.apply(sys);
  EXPECT_DOUBLE_EQ(sys.velocities()[i].x, 0.0);
}

}  // namespace

namespace {

TEST(Bonds, RingStretchesUnderOpposingLoad) {
  // Optical-tweezers-style RBC validation (Fedosov et al.): pull the two
  // ends of a ring apart; the axial diameter grows, the transverse shrinks,
  // and stiffer rings deform less.
  auto stretch = [](double k_spring) {
    dpd::DpdParams prm;
    prm.box = {16.0, 8.0, 8.0};
    prm.periodic = {true, true, true};
    prm.dt = 0.005;
    dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
    auto bonds = std::make_shared<dpd::BondSet>();
    sys.add_module(bonds);
    dpd::RbcRingParams rp;
    rp.center = {8.0, 4.0, 4.0};
    rp.radius = 2.0;
    rp.beads = 16;
    rp.k_spring = k_spring;
    rp.k_bend = 0.25 * k_spring;
    auto beads = dpd::make_rbc_ring(sys, *bonds, rp);
    // constant pulling load on the two x-extreme beads, applied as a
    // per-step velocity impulse F dt (equivalent to a constant force)
    const std::size_t right = beads[0], left = beads[8];
    for (int s = 0; s < 1500; ++s) {
      sys.velocities()[right] += dpd::Vec3{6.0 * prm.dt, 0, 0};
      sys.velocities()[left] -= dpd::Vec3{6.0 * prm.dt, 0, 0};
      sys.step();
    }
    const double dx = sys.min_image(sys.positions()[left], sys.positions()[right]).norm();
    return dx;
  };
  const double soft = stretch(40.0);
  const double stiff = stretch(400.0);
  // both stretch beyond the rest diameter (4.0); the soft ring stretches more
  EXPECT_GT(soft, 4.2);
  EXPECT_GT(soft, stiff);
}

}  // namespace

namespace {

TEST(Dpd, TinyPeriodicBoxCountsPairsOnce) {
  // 2 cells per periodic dimension: a configuration where a naive
  // half-stencil cell list would double-count every cross-cell pair.
  dpd::DpdParams prm;
  prm.box = {2.5, 2.5, 2.5};
  prm.periodic = {true, true, true};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 77);
  std::map<std::pair<std::size_t, std::size_t>, int> visits;
  sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
    visits[{std::min(i, j), std::max(i, j)}]++;
  });
  ASSERT_FALSE(visits.empty());
  for (const auto& [pair, count] : visits) EXPECT_EQ(count, 1);
  // and against brute force
  std::size_t bf = 0;
  const auto& pos = sys.positions();
  for (std::size_t i = 0; i < sys.size(); ++i)
    for (std::size_t j = i + 1; j < sys.size(); ++j)
      if (sys.min_image(pos[i], pos[j]).norm2() < 1.0) ++bf;
  EXPECT_EQ(visits.size(), bf);
  // momentum conservation must survive in the tiny box too
  const auto p0 = sys.total_momentum();
  for (int s = 0; s < 20; ++s) sys.step();
  const auto p1 = sys.total_momentum();
  EXPECT_NEAR(p1.x, p0.x, 1e-9);
}

}  // namespace
