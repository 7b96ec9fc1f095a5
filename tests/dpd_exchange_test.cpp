// Tests for the spatial domain decomposition (src/dpd/exchange/): grid
// geometry, halo/migration protocols, and the tentpole gate — N-rank
// distributed runs reproduce the single-rank trajectory digest *bitwise*,
// including across a mid-run checkpoint/restart. Also pins the gid-keyed pair RNG
// (trajectories invariant to local index layout and to removal compaction)
// and the exchange telemetry counters / CommMatrix attribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "dpd/bonds.hpp"
#include "dpd/exchange/decomposition.hpp"
#include "dpd/exchange/distributed.hpp"
#include "dpd/exchange/exchangers.hpp"
#include "dpd/geometry.hpp"
#include "dpd/platelets.hpp"
#include "dpd/system.hpp"
#include "resilience/blob.hpp"
#include "telemetry/comm_matrix.hpp"
#include "telemetry/registry.hpp"
#include "xmp/comm.hpp"

namespace {

using dpd::Vec3;
using dpd::exchange::Decomposition;
using dpd::exchange::DistOptions;
using dpd::exchange::DistributedDpd;
using dpd::exchange::GridDims;
using dpd::exchange::trajectory_digest;

// ---------------------------------------------------------------- geometry

TEST(Decomposition, AutoDimsCoverRanksAndSplitLongAxesFirst) {
  const Vec3 box{20.0, 10.0, 10.0};
  for (int n : {1, 2, 3, 4, 6, 8}) {
    const GridDims d = dpd::exchange::auto_dims(n, box);
    EXPECT_EQ(d.count(), n) << n << " ranks";
  }
  // splitting the long axis minimises the per-rank surface
  EXPECT_EQ(dpd::exchange::auto_dims(2, box).px, 2);
  const GridDims d4 = dpd::exchange::auto_dims(4, box);
  EXPECT_GE(d4.px, 2);
}

TEST(Decomposition, RankOfPositionRoundTripsAndWraps) {
  const Vec3 box{20.0, 10.0, 10.0};
  Decomposition d(box, {true, true, false}, {2, 2, 1}, 1.3);
  for (int r = 0; r < d.nranks(); ++r) {
    const auto sd = d.subdomain(r);
    const Vec3 c = (sd.lo + sd.hi) * 0.5;
    EXPECT_EQ(d.rank_of_position(c), r);
  }
  // periodic wrap on x: a point one box-length out lands in the same rank
  EXPECT_EQ(d.rank_of_position({1.0, 1.0, 5.0}), d.rank_of_position({21.0, 1.0, 5.0}));
  // non-periodic z: points beyond the wall clamp into the boundary slab
  EXPECT_EQ(d.rank_of_position({1.0, 1.0, -3.0}), d.rank_of_position({1.0, 1.0, 0.1}));
  // slab edges: a subdomain's lower corner is owned by that subdomain, also
  // where the uniform cut is not exactly representable (20 / 3)
  Decomposition t(box, {true, true, false}, {3, 1, 1}, 1.3);
  for (int r = 0; r < t.nranks(); ++r) EXPECT_EQ(t.rank_of_position(t.subdomain(r).lo), r);
}

TEST(Decomposition, NeighborsAreSymmetricSortedAndExcludeSelf) {
  Decomposition d({20.0, 10.0, 10.0}, {true, true, false}, {2, 2, 1}, 1.3);
  for (int r = 0; r < d.nranks(); ++r) {
    const auto& nb = d.neighbors(r);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (int n : nb) {
      EXPECT_NE(n, r);
      const auto& back = d.neighbors(n);
      EXPECT_TRUE(std::find(back.begin(), back.end(), r) != back.end());
    }
  }
}

TEST(Decomposition, Dist2ToSubdomainUsesMinimumImage) {
  Decomposition d({20.0, 10.0, 10.0}, {true, true, false}, {2, 1, 1}, 1.3);
  // rank 0 owns x in [0, 10); a point at x = 19.9 is 0.1 away through the
  // periodic seam, not 9.9 away through the interior
  EXPECT_NEAR(d.dist2_to_subdomain({19.9, 5.0, 5.0}, 0), 0.01, 1e-12);
  EXPECT_TRUE(d.in_halo_of({19.9, 5.0, 5.0}, 0));
  EXPECT_FALSE(d.in_halo_of({15.0, 5.0, 5.0}, 0));
}

// -------------------------------------------------- the equivalence gate

dpd::DpdParams channel_params() {
  dpd::DpdParams p;
  p.box = {12.0, 6.0, 6.0};
  p.periodic = {true, true, false};
  return p;
}

// Replicated deterministic setup: every rank (and the single-rank
// reference) builds the identical population through the same code path.
std::shared_ptr<dpd::DpdSystem> make_channel_system() {
  const auto prm = channel_params();
  auto sys = std::make_shared<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys->fill(3.0, dpd::kSolvent, 42);
  sys->set_body_force([](const Vec3&, dpd::Species) { return Vec3{0.05, 0.0, 0.0}; });
  return sys;
}

std::uint64_t single_rank_digest(int steps) {
  auto sys = make_channel_system();
  for (int s = 0; s < steps; ++s) sys->step();
  return trajectory_digest(*sys);
}

std::uint64_t distributed_digest(int nranks, int steps) {
  std::uint64_t out = 0;
  xmp::run(nranks, [&](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    drv.distribute();
    for (int s = 0; s < steps; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    if (world.rank() == 0) out = d;
  });
  return out;
}

TEST(ExchangeEquivalence, TwoRankSymmetricRunIsBitwiseEqual) {
  EXPECT_EQ(distributed_digest(2, 40), single_rank_digest(40));
}

TEST(ExchangeEquivalence, FourRankSymmetricRunIsBitwiseEqual) {
  EXPECT_EQ(distributed_digest(4, 40), single_rank_digest(40));
}

TEST(ExchangeEquivalence, DigestAgreesOnEveryRank) {
  std::mutex mu;
  std::set<std::uint64_t> digests;
  xmp::run(2, [&](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    drv.distribute();
    for (int s = 0; s < 5; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    std::lock_guard<std::mutex> lk(mu);
    digests.insert(d);
  });
  EXPECT_EQ(digests.size(), 1u);
}

TEST(ExchangeEquivalence, RestartAcrossMidRunCheckpointIsBitwiseEqual) {
  const int pre = 20, post = 20;
  const std::uint64_t ref = single_rank_digest(pre + post);
  std::uint64_t out = 0;
  xmp::run(2, [&](xmp::Comm& world) {
    std::vector<std::uint8_t> blob;  // per-rank checkpoint
    {
      auto sys = make_channel_system();
      DistributedDpd drv(world, *sys);
      drv.distribute();
      for (int s = 0; s < pre; ++s) sys->step();
      resilience::BlobWriter w;
      sys->save_state(w);
      drv.save_state(w);
      blob = w.take();
    }
    // fresh process stand-in: rebuild the same configuration, then load
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    resilience::BlobReader r(blob);
    sys->load_state(r);
    drv.load_state(r);
    r.expect_end();
    for (int s = 0; s < post; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    if (world.rank() == 0) out = d;
  });
  EXPECT_EQ(out, ref);
}

TEST(ExchangeRestart, TruncatedDriverBlobThrowsCorruptError) {
  // A driver blob cut short inside the halo-width field must be rejected as
  // a corrupt checkpoint, not read past its end.
  xmp::run(1, [](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    drv.distribute();
    resilience::BlobWriter w;
    drv.save_state(w);
    std::vector<std::uint8_t> blob = w.take();
    // layout: 3 x i32 dims, f64 halo width, u8 distributed flag — nothing else
    constexpr std::size_t kHaloAt = 3 * sizeof(std::int32_t);
    ASSERT_EQ(blob.size(), kHaloAt + sizeof(double) + 1);
    blob.resize(kHaloAt + sizeof(double) / 2);
    resilience::BlobReader r(blob);
    EXPECT_THROW(drv.load_state(r), resilience::CorruptError);
  });
}

// Replicated deterministic setup with all particles crowded into x < 6 —
// the worst case for a uniform x-split: the upper half of the ranks starts
// out owning nothing.
std::shared_ptr<dpd::DpdSystem> make_skewed_system() {
  const auto prm = channel_params();
  auto sys = std::make_shared<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys->fill(3.0, dpd::kSolvent, 42);
  std::vector<std::size_t> drop;
  for (std::size_t i = 0; i < sys->size(); ++i)
    if (sys->positions()[i].x > 6.0) drop.push_back(i);
  sys->remove_particles(std::move(drop));
  sys->set_body_force([](const Vec3&, dpd::Species) { return Vec3{0.05, 0.0, 0.0}; });
  return sys;
}

TEST(ExchangeEquivalence, SkewedPopulationWithEmptyRanksIsBitwiseEqual) {
  // Ranks that own no particle still enter every collective, exchange
  // halos and checkpoint. Under the fixed uniform x-split the run must stay
  // bitwise equal to single-rank, straight through and across a mid-run
  // checkpoint/restart.
  const int pre = 12, post = 12;
  std::uint64_t ref = 0;
  {
    auto sys = make_skewed_system();
    for (int s = 0; s < pre + post; ++s) sys->step();
    ref = trajectory_digest(*sys);
  }
  for (int nranks : {2, 4}) {
    DistOptions opt;
    opt.dims = {nranks, 1, 1};
    std::int64_t min_owned = -1;
    std::uint64_t straight = 0, restarted = 0;
    xmp::run(nranks, [&](xmp::Comm& world) {
      {
        auto sys = make_skewed_system();
        DistributedDpd drv(world, *sys, opt);
        drv.distribute();
        const auto owned = world.allreduce(static_cast<std::int64_t>(sys->owned_count()),
                                           xmp::Op::Min);
        for (int s = 0; s < pre + post; ++s) sys->step();
        const std::uint64_t d = drv.global_digest();
        if (world.rank() == 0) {
          min_owned = owned;
          straight = d;
        }
      }
      std::vector<std::uint8_t> blob;
      {
        auto sys = make_skewed_system();
        DistributedDpd drv(world, *sys, opt);
        drv.distribute();
        for (int s = 0; s < pre; ++s) sys->step();
        resilience::BlobWriter w;
        sys->save_state(w);
        drv.save_state(w);
        blob = w.take();
      }
      auto sys = make_skewed_system();
      DistributedDpd drv(world, *sys, opt);
      resilience::BlobReader r(blob);
      sys->load_state(r);
      drv.load_state(r);
      r.expect_end();
      for (int s = 0; s < post; ++s) sys->step();
      const std::uint64_t d = drv.global_digest();
      if (world.rank() == 0) restarted = d;
    });
    EXPECT_EQ(min_owned, 0) << nranks << " ranks: the skew must leave a rank empty";
    EXPECT_EQ(straight, ref) << nranks << " ranks, straight through";
    EXPECT_EQ(restarted, ref) << nranks << " ranks, across restart";
  }
}

// ----------------------------------------------- migration & diagnostics

TEST(ExchangeMigration, OwnershipMovesAndGlobalCountIsConserved) {
  telemetry::Registry::reset_all();
  telemetry::set_enabled(true);
  std::mutex mu;
  double migrated = 0.0, halo_particles = 0.0, halo_bytes = 0.0;
  std::int64_t count0 = 0, countN = 0;
  double temp = -1.0;
  xmp::run(2, [&](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    drv.distribute();
    const std::int64_t c0 = drv.global_count();
    for (int s = 0; s < 60; ++s) sys->step();
    const std::int64_t cn = drv.global_count();
    const double t = drv.kinetic_temperature();
    const auto counters = telemetry::Registry::local().counters();
    std::lock_guard<std::mutex> lk(mu);
    if (world.rank() == 0) {
      count0 = c0;
      countN = cn;
      temp = t;
    }
    auto get = [&](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? 0.0 : it->second.value;
    };
    migrated += get("dpd.migrate.count");
    halo_particles += get("dpd.halo.particles");
    halo_bytes += get("dpd.halo.bytes");
  });
  telemetry::set_enabled(false);
  EXPECT_GT(count0, 0);
  EXPECT_EQ(count0, countN);  // migration moves ownership, never particles
  EXPECT_GT(migrated, 0.0) << "60 body-forced steps should migrate someone";
  EXPECT_GT(halo_particles, 0.0);
  EXPECT_GT(halo_bytes, 0.0);
  EXPECT_GT(temp, 0.0);
}

TEST(ExchangeTelemetry, CommMatrixAttributesExchangeTraffic) {
  telemetry::CommMatrix matrix(dpd::exchange::comm_tag_classes());
  xmp::run(
      2,
      [](xmp::Comm& world) {
        auto sys = make_channel_system();
        DistributedDpd drv(world, *sys);
        drv.distribute();
        for (int s = 0; s < 5; ++s) sys->step();
      },
      matrix.sink());
  std::uint64_t build_bytes = 0, update_bytes = 0;
  for (const auto& [key, cell] : matrix.cells()) {
    const std::string& cls = std::get<2>(key);
    if (cls == "dpd.halo.build") build_bytes += cell.bytes;
    if (cls == "dpd.halo.update") update_bytes += cell.bytes;
  }
  EXPECT_GT(build_bytes, 0u);
  EXPECT_GT(update_bytes, 0u);
}

// --------------------------------------- force modules under decomposition

TEST(ExchangeModules, BondsAndPlateletsMatchSingleRankBitwise) {
  // Platelet adhesion (cutoff 1.5) reaches beyond the rc + skin pair halo
  // (1.3): the driver must be told, via halo_width, to ghost the wider
  // shell. Bonds and platelet slot tables are replicated and gid-keyed;
  // owner-decided state transitions are re-synced after every step.
  const int steps = 25;
  auto build = [](dpd::DpdSystem& sys, dpd::BondSet& bonds, dpd::PlateletModel& model) {
    sys.fill(3.0, dpd::kSolvent, 7);
    dpd::RbcRingParams ring;
    ring.center = {6.0, 3.0, 3.0};  // spans the 2-rank x-split boundary
    ring.radius = 1.5;
    ring.beads = 12;
    dpd::make_rbc_ring(sys, bonds, ring);
    model.seed_platelets(sys, 12, 11);
  };
  auto platelet_params = [] {
    dpd::PlateletParams p;
    p.adhesive_region = [](const Vec3& r) { return r.x > 4.0 && r.x < 8.0; };
    return p;
  };

  // single-rank reference
  std::uint64_t ref_digest = 0;
  std::vector<int> ref_states;
  {
    const auto prm = channel_params();
    dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    auto bonds = std::make_shared<dpd::BondSet>();
    auto model = std::make_shared<dpd::PlateletModel>(platelet_params());
    build(sys, *bonds, *model);
    sys.add_module(bonds);
    sys.add_module(model);
    for (int s = 0; s < steps; ++s) {
      sys.step();
      model->update(sys);
    }
    ref_digest = trajectory_digest(sys);
    for (std::size_t k = 0; k < model->total(); ++k)
      ref_states.push_back(static_cast<int>(model->state_of(k)));
  }

  std::uint64_t dist_digest = 0;
  std::vector<int> dist_states;
  std::mutex mu;
  bool states_agree = true;
  xmp::run(2, [&](xmp::Comm& world) {
    const auto prm = channel_params();
    dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    auto bonds = std::make_shared<dpd::BondSet>();
    auto model = std::make_shared<dpd::PlateletModel>(platelet_params());
    build(sys, *bonds, *model);
    sys.add_module(bonds);
    sys.add_module(model);
    DistOptions opt;
    opt.halo_width = platelet_params().adhesion_cutoff + prm.skin;
    DistributedDpd drv(world, sys, opt);
    drv.distribute();
    for (int s = 0; s < steps; ++s) {
      sys.step();
      model->update(sys);
      drv.sync_platelets(*model);
    }
    const std::uint64_t d = drv.global_digest();
    std::vector<int> states;
    for (std::size_t k = 0; k < model->total(); ++k)
      states.push_back(static_cast<int>(model->state_of(k)));
    std::lock_guard<std::mutex> lk(mu);
    if (world.rank() == 0) {
      dist_digest = d;
      dist_states = states;
    } else if (!dist_states.empty() && dist_states != states) {
      states_agree = false;
    }
  });
  EXPECT_EQ(dist_digest, ref_digest);
  EXPECT_EQ(dist_states, ref_states);
  EXPECT_TRUE(states_agree);
}

TEST(ExchangeModules, NarrowHaloWithWideBondFailsLoudly) {
  // A bond longer than the halo width must throw, not silently zero the
  // spring on the rank that cannot see the far endpoint.
  xmp::run(2, [](xmp::Comm& world) {
    const auto prm = channel_params();
    dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    // two bonded particles straddling the x-split, farther apart than
    // rc + skin; everything else far away
    sys.add_particle({4.0, 3.0, 3.0}, {}, dpd::kSolvent);
    sys.add_particle({8.0, 3.0, 3.0}, {}, dpd::kSolvent);
    auto bonds = std::make_shared<dpd::BondSet>();
    bonds->add_bond(0, 1, 4.0, 10.0);
    sys.add_module(bonds);
    DistributedDpd drv(world, sys, DistOptions{{2, 1, 1}});
    drv.distribute();
    EXPECT_THROW(sys.step(), std::runtime_error);
  });
}

// --------------------------------------------- gid-keyed pair RNG pinning

TEST(GidPairRng, RemoveThenStepMatchesNeverInsertedReference) {
  // Removing particles then stepping must be bitwise identical to a run
  // whose population never contained them at all (same survivors, same
  // gids): remove_particles may leave no hidden state behind, and the
  // pair-RNG streams of surviving pairs must be untouched.
  const auto prm = channel_params();
  dpd::DpdSystem a(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  a.fill(3.0, dpd::kSolvent, 13);
  ASSERT_GT(a.size(), 100u);
  a.remove_particles({3, 17, 41, 80, 99});

  dpd::DpdSystem b(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  std::vector<dpd::ParticleRecord> survivors;
  for (std::size_t i = 0; i < a.size(); ++i) survivors.push_back(a.particle_record(i));
  b.reset_particles(survivors);
  b.set_next_gid(a.next_gid());

  for (int s = 0; s < 20; ++s) {
    a.step();
    b.step();
  }
  EXPECT_EQ(trajectory_digest(a), trajectory_digest(b));
}

TEST(GidPairRng, PairNoiseIsKeyedOnGidsNotLocalIndices) {
  // The same physical pair, carrying the same gids but sitting at
  // different *local* slots, must draw the same random pair force.
  dpd::DpdParams prm;
  prm.box = {10.0, 10.0, 10.0};
  prm.periodic = {true, true, true};

  // system A: two far-away dummies claim gids 0 and 1, the interacting
  // pair gets gids 2 and 3 at local slots 2 and 3
  dpd::DpdSystem a(prm, std::make_shared<dpd::NoWalls>());
  a.add_particle({1.0, 1.0, 1.0}, {}, dpd::kSolvent);
  a.add_particle({9.0, 9.0, 9.0}, {}, dpd::kSolvent);
  a.add_particle({5.0, 5.0, 5.0}, {0.1, 0.0, 0.0}, dpd::kSolvent);
  a.add_particle({5.5, 5.0, 5.0}, {-0.1, 0.0, 0.0}, dpd::kSolvent);

  // system B: only the interacting pair, rebuilt with the same gids 2 and 3
  // but at local slots 0 and 1
  dpd::DpdSystem b(prm, std::make_shared<dpd::NoWalls>());
  std::vector<dpd::ParticleRecord> recs = {a.particle_record(2), a.particle_record(3)};
  b.reset_particles(recs);
  b.set_next_gid(a.next_gid());

  for (int s = 0; s < 5; ++s) {
    a.step();
    b.step();
  }
  const dpd::Vec3 pa2 = a.positions()[2], pa3 = a.positions()[3];
  const dpd::Vec3 pb2 = b.positions()[0], pb3 = b.positions()[1];
  EXPECT_EQ(pa2.x, pb2.x);
  EXPECT_EQ(pa2.y, pb2.y);
  EXPECT_EQ(pa2.z, pb2.z);
  EXPECT_EQ(pa3.x, pb3.x);
  EXPECT_EQ(pa3.y, pb3.y);
  EXPECT_EQ(pa3.z, pb3.z);
}

}  // namespace
