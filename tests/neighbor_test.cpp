// Verlet neighbor-list equivalence suite: the fast pair paths (CSR list,
// grid point queries) must agree exactly with direct O(N^2) enumeration
// across periodicities, skins, boxes too small for a distinct +-1 cell
// window, and particle insertion/deletion (remap + splice) — and
// checkpoint/restart must stay bitwise identical even though a restart
// rebuilds a list the uninterrupted run was still reusing (docs/PERF.md
// explains why that is non-trivial).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "dpd/inflow.hpp"
#include "dpd/neighbor.hpp"
#include "dpd/system.hpp"
#include "resilience/blob.hpp"
#include "telemetry/registry.hpp"

namespace {

using Pair = std::pair<std::size_t, std::size_t>;

dpd::SoA3 random_positions(std::size_t n, const dpd::Vec3& box, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> ux(0.0, box.x), uy(0.0, box.y), uz(0.0, box.z);
  dpd::SoA3 pos;
  for (std::size_t i = 0; i < n; ++i) pos.push_back({ux(rng), uy(rng), uz(rng)});
  return pos;
}

/// All pairs with r < rc at `pos` by direct O(N^2) enumeration, sorted.
std::vector<Pair> brute_pairs(const dpd::NeighborList& nl, const dpd::SoA3& pos) {
  const double rc2 = nl.params().rc * nl.params().rc;
  std::vector<Pair> out;
  for (std::size_t i = 0; i < pos.size(); ++i)
    for (std::size_t j = i + 1; j < pos.size(); ++j)
      if (nl.min_image(pos[i], pos[j]).norm2() < rc2) out.emplace_back(i, j);
  return out;
}

std::vector<Pair> list_pairs(const dpd::NeighborList& nl, const dpd::SoA3& pos) {
  std::vector<Pair> out;
  nl.for_each(pos, [&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
    out.emplace_back(std::min(i, j), std::max(i, j));
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// The canonical CSR layout: each pair once, under its lower index, runs
/// sorted strictly ascending.
void expect_canonical(const dpd::NeighborList& nl, std::size_t n) {
  const auto& offs = nl.offsets();
  const auto& nbr = nl.neighbors();
  ASSERT_EQ(offs.size(), n + 1);
  ASSERT_EQ(offs.back(), nbr.size());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = offs[i]; k < offs[i + 1]; ++k) {
      EXPECT_GT(nbr[k], i);
      if (k > offs[i]) {
        EXPECT_GT(nbr[k], nbr[k - 1]);
      }
    }
}

/// Order-preserving compaction of `pos` without the (sorted) indices in
/// `dead`, as DpdSystem::remove_particles does; returns the index map.
std::vector<long> remove_sorted(dpd::SoA3& pos, const std::vector<std::size_t>& dead) {
  std::vector<long> new_index(pos.size(), -1);
  std::size_t w = 0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (std::binary_search(dead.begin(), dead.end(), i)) continue;
    new_index[i] = static_cast<long>(w);
    pos.set(w++, pos.get(i));
  }
  pos.resize(w);
  return new_index;
}

/// The canonical CSR a list over reference positions `pos` must hold, by
/// direct O(N^2) enumeration: every pair j < t within rc + skin, under row j,
/// runs ascending, both-ghost pairs dropped when `ghost` is given.
std::pair<std::vector<std::size_t>, std::vector<std::uint32_t>> brute_csr(
    const dpd::NeighborList& nl, const dpd::SoA3& pos, const std::vector<char>* ghost) {
  const double rcut = nl.params().rc + nl.params().skin;
  std::vector<std::size_t> offs{0};
  std::vector<std::uint32_t> nbr;
  for (std::size_t j = 0; j < pos.size(); ++j) {
    for (std::size_t t = j + 1; t < pos.size(); ++t)
      if (!(ghost && (*ghost)[j] && (*ghost)[t]) &&
          nl.min_image(pos[j], pos[t]).norm2() < rcut * rcut)
        nbr.push_back(static_cast<std::uint32_t>(t));
    offs.push_back(nbr.size());
  }
  return {offs, nbr};
}

void expect_csr_is_brute(const dpd::NeighborList& nl, const dpd::SoA3& pos,
                         const std::vector<char>* ghost = nullptr) {
  const auto [offs, nbr] = brute_csr(nl, pos, ghost);
  EXPECT_EQ(nl.offsets(), offs);
  EXPECT_EQ(nl.neighbors(), nbr);
}

/// Every j within `cutoff` of `p`, by a direct scan.
std::vector<std::size_t> brute_query(const dpd::NeighborList& nl, const dpd::SoA3& pos,
                                     const dpd::Vec3& p, double cutoff) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < pos.size(); ++j)
    if (nl.min_image(p, pos[j]).norm2() <= cutoff * cutoff) out.push_back(j);
  return out;
}

std::vector<std::size_t> sorted_query(const dpd::NeighborList& nl, const dpd::SoA3& pos,
                                      const dpd::Vec3& p, double cutoff) {
  std::vector<std::size_t> out;
  nl.query(pos, p, cutoff, [&](std::size_t j, const dpd::Vec3&, double) { out.push_back(j); });
  std::sort(out.begin(), out.end());
  return out;
}

double counter(const char* name) {
  const auto counters = telemetry::Registry::local().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second.value;
}

/// Bitwise fingerprint of the full particle state.
std::vector<std::uint8_t> state_of(const dpd::DpdSystem& sys) {
  resilience::BlobWriter w;
  sys.save_state(w);
  return w.take();
}

}  // namespace

// ---------------- pair enumeration vs brute force ----------------

TEST(NeighborList, PairsMatchBruteForcePeriodic) {
  dpd::NeighborParams prm;
  prm.box = {8.0, 6.0, 5.0};
  prm.periodic = {true, true, true};
  prm.rc = 1.0;
  prm.skin = 0.3;
  dpd::NeighborList nl(prm);
  const auto pos = random_positions(500, prm.box, 21);
  EXPECT_TRUE(nl.ensure(pos));  // first ensure is always a rebuild
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, PairsMatchBruteForceMixedPeriodicity) {
  dpd::NeighborParams prm;
  prm.box = {8.0, 6.0, 5.0};
  prm.periodic = {true, false, false};
  prm.rc = 1.0;
  prm.skin = 0.25;
  dpd::NeighborList nl(prm);
  const auto pos = random_positions(400, prm.box, 22);
  nl.ensure(pos);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, CsrRunsAreCanonical) {
  // each pair once, under its lower index, runs sorted ascending — the
  // ordering the bitwise-restart argument rests on
  dpd::NeighborParams prm;
  prm.box = {6.0, 6.0, 6.0};
  dpd::NeighborList nl(prm);
  const auto pos = random_positions(300, prm.box, 23);
  nl.ensure(pos);
  expect_canonical(nl, pos.size());
}

TEST(NeighborList, ReuseUntilSkinExceeded) {
  dpd::NeighborParams prm;
  prm.box = {7.0, 7.0, 7.0};
  prm.skin = 0.4;
  dpd::NeighborList nl(prm);
  auto pos = random_positions(400, prm.box, 24);
  EXPECT_TRUE(nl.ensure(pos));

  // displace every particle by less than skin/2: the stale list must be
  // reused and still enumerate exactly the in-range pairs at the *new*
  // positions
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  const double amp = 0.9 * 0.5 * prm.skin / std::sqrt(3.0);
  for (std::size_t i = 0; i < pos.size(); ++i)
    pos[i] += dpd::Vec3{d(rng), d(rng), d(rng)} * amp;
  EXPECT_FALSE(nl.ensure(pos));
  EXPECT_EQ(nl.reuses(), 1u);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));

  // one particle crossing skin/2 forces a rebuild
  pos[7].x += 0.6 * prm.skin;
  EXPECT_TRUE(nl.ensure(pos));
  EXPECT_EQ(nl.rebuilds(), 2u);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, ZeroSkinRebuildsEveryTime) {
  dpd::NeighborParams prm;
  prm.box = {5.0, 5.0, 5.0};
  prm.skin = 0.0;
  dpd::NeighborList nl(prm);
  const auto pos = random_positions(100, prm.box, 25);
  EXPECT_TRUE(nl.ensure(pos));
  EXPECT_TRUE(nl.ensure(pos));  // even unchanged positions: no reuse
  EXPECT_EQ(nl.reuses(), 0u);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, DegenerateTinyBoxFallsBack) {
  // Boxes with fewer than 3 cells along an axis, where the +-1 cell window
  // around a particle wraps onto itself (periodic) or runs off both walls
  // (non-periodic): rc + skin = 1.3 gives a 2.5^3 periodic box one cell per
  // axis, and a 3.5-high non-periodic z two cells. The grid walk must still
  // visit each cell, and so each pair, exactly once — at the build and at a
  // splice.
  struct Box {
    dpd::Vec3 size;
    std::array<bool, 3> periodic;
  };
  for (const Box& b : {Box{{2.5, 2.5, 2.5}, {true, true, true}},
                       Box{{6.0, 5.0, 3.5}, {true, true, false}}}) {
    SCOPED_TRACE(b.size.z);
    dpd::NeighborParams prm;
    prm.box = b.size;
    prm.periodic = b.periodic;
    prm.rc = 1.0;
    prm.skin = 0.3;
    dpd::NeighborList nl(prm);
    auto pos = random_positions(60, prm.box, 26);
    nl.ensure(pos);
    expect_canonical(nl, pos.size());
    EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));

    const auto extra = random_positions(12, prm.box, 126);
    for (std::size_t k = 0; k < extra.size(); ++k) pos.push_back(extra.get(k));
    EXPECT_FALSE(nl.ensure(pos));  // spliced, not rebuilt
    EXPECT_EQ(nl.rebuilds(), 1u);
    expect_canonical(nl, pos.size());
    EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
  }
}

TEST(NeighborList, SpliceCounterCountsAppendedParticlesOnly) {
  // a build appends every particle through the same walk as a splice, but
  // dpd.nlist.splice counts only particles spliced into a reused list
  telemetry::set_enabled(true);
  auto spliced = [] { return counter("dpd.nlist.splice"); };
  dpd::NeighborParams prm;
  prm.box = {7.0, 6.0, 5.0};
  dpd::NeighborList nl(prm);
  auto pos = random_positions(300, prm.box, 29);
  const double before = spliced();
  EXPECT_TRUE(nl.ensure(pos));
  EXPECT_EQ(spliced(), before);

  const auto extra = random_positions(7, prm.box, 129);
  for (std::size_t k = 0; k < extra.size(); ++k) pos.push_back(extra.get(k));
  EXPECT_FALSE(nl.ensure(pos));
  EXPECT_EQ(spliced(), before + 7.0);

  nl.invalidate();
  EXPECT_TRUE(nl.ensure(pos));
  EXPECT_EQ(spliced(), before + 7.0);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, BuildAndSpliceCsrEqualBruteForceCsr) {
  // The whole CSR, not just the interacting pairs, against a direct O(N^2)
  // enumeration at the reference radius: after a build and after a splice,
  // in the quickstart DPD box, in tiny periodic boxes with fewer than 3
  // cells per axis (1.3-wide cells: 2.5 gives 1 cell, 3.6 gives 2), and
  // with a ghost filter.
  struct Case {
    const char* name;
    dpd::Vec3 box;
    std::array<bool, 3> periodic;
    std::size_t n;
    bool ghosts;
  };
  for (const Case& c : {Case{"quickstart", {16.0, 6.0, 10.0}, {false, true, false}, 2821, false},
                        Case{"tiny 1 cell", {2.5, 2.5, 2.5}, {true, true, true}, 60, false},
                        Case{"tiny 2 cells", {3.6, 3.6, 3.6}, {true, true, true}, 140, false},
                        Case{"ghost filter", {8.0, 6.0, 5.0}, {true, true, false}, 700, true}}) {
    SCOPED_TRACE(c.name);
    dpd::NeighborParams prm;
    prm.box = c.box;
    prm.periodic = c.periodic;
    dpd::NeighborList nl(prm);
    auto pos = random_positions(c.n, prm.box, 33);
    const auto extra = random_positions(9, prm.box, 133);
    std::vector<char> ghost(c.n + extra.size());
    std::mt19937 rng(34);
    for (auto& g : ghost) g = static_cast<char>(rng() % 3 == 0);
    if (c.ghosts) nl.set_pair_filter(&ghost);
    const auto* filter = c.ghosts ? &ghost : nullptr;

    EXPECT_TRUE(nl.ensure(pos));
    expect_csr_is_brute(nl, pos, filter);
    for (std::size_t k = 0; k < extra.size(); ++k) pos.push_back(extra.get(k));
    EXPECT_FALSE(nl.ensure(pos));  // spliced, not rebuilt
    expect_csr_is_brute(nl, pos, filter);
  }
}

TEST(NeighborList, CandidateCounterMatchesCellWindowCount) {
  // dpd.nlist.candidates counts the distance tests of each build or splice:
  // for every appended t, the listed j < t whose cell lies in t's window.
  // Pinned against the same count made by direct enumeration of cell
  // coordinates, on a fixed 2,821-particle quickstart box (12 x 4 x 7
  // cells, y periodic).
  telemetry::set_enabled(true);
  dpd::NeighborParams prm;
  prm.box = {16.0, 6.0, 10.0};
  prm.periodic = {false, true, false};
  dpd::NeighborList nl(prm);
  auto pos = random_positions(2821, prm.box, 35);

  const double rcut = prm.rc + prm.skin;
  const double len[3] = {prm.box.x, prm.box.y, prm.box.z};
  int ncell[3];
  for (int a = 0; a < 3; ++a) ncell[a] = std::max(1, static_cast<int>(len[a] / rcut));
  auto cell = [&](const dpd::Vec3& p, int a) {
    double v = a == 0 ? p.x : a == 1 ? p.y : p.z;
    if (prm.periodic[a]) v -= len[a] * std::floor(v / len[a]);
    return std::clamp(static_cast<int>(v / len[a] * ncell[a]), 0, ncell[a] - 1);
  };
  auto near = [&](const dpd::Vec3& p, const dpd::Vec3& q) {
    for (int a = 0; a < 3; ++a) {
      const int d = std::abs(cell(p, a) - cell(q, a)), n = ncell[a];
      if (n > 3 && (prm.periodic[a] ? std::min(d, n - d) : d) > 1) return false;
    }
    return true;
  };
  auto window_count = [&](std::size_t from, std::size_t to) {
    double count = 0.0;
    for (std::size_t t = from; t < to; ++t)
      for (std::size_t j = 0; j < t; ++j) count += near(pos[j], pos[t]);
    return count;
  };

  double before = counter("dpd.nlist.candidates");
  EXPECT_TRUE(nl.ensure(pos));
  const double build_count = counter("dpd.nlist.candidates") - before;
  EXPECT_EQ(build_count, window_count(0, pos.size()));
  EXPECT_GT(build_count, 0.0);

  const std::size_t n_ref = pos.size();
  const auto extra = random_positions(8, prm.box, 135);
  for (std::size_t k = 0; k < extra.size(); ++k) pos.push_back(extra.get(k));
  before = counter("dpd.nlist.candidates");
  EXPECT_FALSE(nl.ensure(pos));
  EXPECT_EQ(counter("dpd.nlist.candidates") - before, window_count(n_ref, pos.size()));
}

TEST(NeighborList, AddThenRemoveBeforeEnsureIsExact) {
  // particles appended but not yet spliced sit in the tail above the
  // reference count; a deletion in between must remap the listed part and
  // carry the surviving tail along to the next ensure()
  dpd::NeighborParams prm;
  prm.box = {7.0, 6.0, 5.0};
  prm.periodic = {true, true, false};
  prm.skin = 0.4;
  dpd::NeighborList nl(prm);
  auto pos = random_positions(400, prm.box, 28);
  EXPECT_TRUE(nl.ensure(pos));
  const std::size_t n_ref = pos.size();
  const auto extra = random_positions(5, prm.box, 128);
  for (std::size_t k = 0; k < extra.size(); ++k) pos.push_back(extra.get(k));

  // point queries see the unspliced tail (scanned directly) and, after the
  // splice, find the newcomers through the grid
  auto check_queries = [&] {
    for (std::size_t t = n_ref - 3; t < pos.size(); ++t)
      EXPECT_EQ(sorted_query(nl, pos, pos.get(t), 1.0), brute_query(nl, pos, pos.get(t), 1.0))
          << "query around " << t;
  };

  // one listed particle and one unspliced newcomer
  nl.on_remap(remove_sorted(pos, {123, n_ref + 2}));
  EXPECT_TRUE(nl.valid());
  check_queries();
  EXPECT_FALSE(nl.ensure(pos));
  EXPECT_EQ(nl.rebuilds(), 1u);
  expect_canonical(nl, pos.size());
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
  check_queries();
}

TEST(NeighborList, QueryMatchesBruteForce) {
  dpd::NeighborParams prm;
  prm.box = {8.0, 5.0, 6.0};
  prm.periodic = {true, true, false};
  prm.skin = 0.4;
  dpd::NeighborList nl(prm);
  auto pos = random_positions(500, prm.box, 27);
  nl.ensure(pos);

  auto check_queries = [&](unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> ux(0.0, prm.box.x), uy(0.0, prm.box.y),
        uz(-1.0, prm.box.z + 1.0);
    for (int q = 0; q < 50; ++q) {
      const dpd::Vec3 p{ux(rng), uy(rng), uz(rng)};
      const double cutoff = 0.5 + 0.02 * q;
      EXPECT_EQ(sorted_query(nl, pos, p, cutoff), brute_query(nl, pos, p, cutoff)) << "query " << q;
    }
  };
  check_queries(31);

  // after sub-skin/2 drift the grid is stale but padded: queries must still
  // be exact against the *current* positions
  std::mt19937 rng(78);
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  const double amp = 0.9 * 0.5 * prm.skin / std::sqrt(3.0);
  for (std::size_t i = 0; i < pos.size(); ++i)
    pos[i] += dpd::Vec3{d(rng), d(rng), d(rng)} * amp;
  EXPECT_FALSE(nl.ensure(pos));
  check_queries(32);
}

// ---------------- DpdSystem integration ----------------

namespace {

dpd::DpdParams small_box_params(double skin) {
  dpd::DpdParams prm;
  prm.box = {6.0, 6.0, 6.0};
  prm.periodic = {true, true, true};
  prm.skin = skin;
  return prm;
}

}  // namespace

TEST(DpdNeighbor, ForcesMatchDirectReference) {
  // engine forces (Verlet gather + SIMD kernel) vs the Groot-Warren formula
  // evaluated pair-by-pair over direct enumeration
  auto prm = small_box_params(0.3);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  sys.compute_forces();

  const auto& vel = sys.velocities();
  const auto& spc = sys.species();
  std::vector<dpd::Vec3> ref(sys.size());
  const double inv_sqrt_dt = 1.0 / std::sqrt(prm.dt);
  sys.for_each_pair_direct([&](std::size_t i, std::size_t j, const dpd::Vec3& dr, double r) {
    const auto si = static_cast<std::size_t>(spc[i]), sj = static_cast<std::size_t>(spc[j]);
    const double a = prm.a[si][sj];
    const double g = prm.gamma[si][sj];
    const double sig = std::sqrt(2.0 * g * prm.kBT);
    const double w = 1.0 - r / prm.rc;
    const double rv = dr.dot(vel[j] - vel[i]) / r;
    const double zeta = dpd::pair_gaussian_like(sys.step_count(), static_cast<std::uint32_t>(i),
                                                static_cast<std::uint32_t>(j));
    const double fmag = a * w - g * w * w * rv + sig * w * zeta * inv_sqrt_dt;
    const dpd::Vec3 f = dr * (fmag / r);
    ref[i] -= f;
    ref[j] += f;
  });

  const auto& frc = sys.forces();
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const double tol = 1e-9 * std::max(1.0, ref[i].norm());
    EXPECT_NEAR(frc[i].x, ref[i].x, tol) << "particle " << i;
    EXPECT_NEAR(frc[i].y, ref[i].y, tol);
    EXPECT_NEAR(frc[i].z, ref[i].z, tol);
  }
}

TEST(DpdNeighbor, TrajectoryIndependentOfSkin) {
  // skin 0 rebuilds the list every force pass; skin 0.6 reuses a stale (but
  // valid) one for many steps. The canonical pair order plus the batch-
  // position-invariant kernel make the trajectories bitwise identical.
  dpd::DpdSystem a(small_box_params(0.0), std::make_shared<dpd::NoWalls>());
  dpd::DpdSystem b(small_box_params(0.6), std::make_shared<dpd::NoWalls>());
  a.fill(3.0, dpd::kSolvent);
  b.fill(3.0, dpd::kSolvent);
  for (int s = 0; s < 25; ++s) {
    a.step();
    b.step();
  }
  EXPECT_GT(b.neighbor_list().reuses(), 0u);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(state_of(a), state_of(b));
}

TEST(DpdNeighbor, CheckpointRestartIsBitwise) {
  // a restart rebuilds the neighbor list mid-reuse-window; the trajectory
  // must not notice (the repo's CI digest smoke enforces the same property
  // end-to-end)
  auto prm = small_box_params(0.6);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  for (int s = 0; s < 7; ++s) sys.step();

  resilience::BlobWriter w;
  sys.save_state(w);
  const auto snapshot = w.take();

  dpd::DpdSystem restarted(prm, std::make_shared<dpd::NoWalls>());
  resilience::BlobReader r(snapshot.data(), snapshot.size());
  restarted.load_state(r);

  for (int s = 0; s < 9; ++s) {
    sys.step();
    restarted.step();
  }
  EXPECT_EQ(state_of(sys), state_of(restarted));
}

TEST(DpdNeighbor, ListSurvivesRemovalAndInsertion) {
  auto prm = small_box_params(0.4);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  sys.compute_forces();  // builds the list

  auto expect_pairs_exact = [&] {
    std::vector<Pair> fast, ref;
    sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
      fast.emplace_back(std::min(i, j), std::max(i, j));
    });
    sys.for_each_pair_direct([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
      ref.emplace_back(i, j);
    });
    std::sort(fast.begin(), fast.end());
    std::sort(ref.begin(), ref.end());
    EXPECT_EQ(fast, ref);
  };

  sys.remove_particles({0, 5, 17, sys.size() - 1});
  expect_pairs_exact();

  sys.add_particle({3.0, 3.0, 3.0}, {0.1, 0.0, 0.0}, dpd::kSolvent);
  expect_pairs_exact();
}

namespace {

/// Open 10x5x5 channel with FlowBc inflow/outflow along x: the paper's
/// open-boundary DPD setup in miniature (insertions and deletions most
/// steps).
struct OpenBox {
  dpd::DpdSystem sys;
  dpd::FlowBc bc;

  static dpd::DpdParams params(double skin) {
    dpd::DpdParams prm;
    prm.box = {10.0, 5.0, 5.0};
    prm.periodic = {false, true, true};
    prm.skin = skin;
    return prm;
  }
  static dpd::FlowBcParams bc_params() {
    dpd::FlowBcParams bp;
    bp.axis = 0;
    bp.density = 3.0;
    bp.target_velocity = [](const dpd::Vec3&) { return dpd::Vec3{1.0, 0.0, 0.0}; };
    return bp;
  }
  /// An empty box (restore target) or, with `fill`, a filled one.
  explicit OpenBox(double skin, bool fill = true)
      : sys(params(skin), std::make_shared<dpd::NoWalls>()), bc(bc_params()) {
    if (fill) sys.fill(3.0, dpd::kSolvent);
  }
  void step() {
    sys.step();
    bc.apply(sys);
  }
  std::vector<std::uint8_t> snapshot() const {
    resilience::BlobWriter w;
    sys.save_state(w);
    bc.save_state(w);
    return w.take();
  }
  void restore(const std::vector<std::uint8_t>& blob) {
    resilience::BlobReader r(blob.data(), blob.size());
    sys.load_state(r);
    bc.load_state(r);
  }
};

}  // namespace

TEST(DpdNeighbor, InflowOutflowKeepsListCorrect) {
  // FlowBc inserts and deletes particles every step; the list must stay
  // exact through both the remap (deletion) and splice (insertion) paths
  OpenBox box(0.4);
  auto& sys = box.sys;
  for (int s = 0; s < 10; ++s) box.step();
  EXPECT_GT(box.bc.inserted_total() + box.bc.deleted_total(), 0u);

  std::vector<Pair> fast, ref;
  sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
    fast.emplace_back(std::min(i, j), std::max(i, j));
  });
  sys.for_each_pair_direct(
      [&](std::size_t i, std::size_t j, const dpd::Vec3&, double) { ref.emplace_back(i, j); });
  std::sort(fast.begin(), fast.end());
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(fast, ref);
}

TEST(DpdNeighbor, HeavyChurnKeepsPairSetsExact) {
  // 100 steps of add/remove churn interleaved with stepping: every remap
  // and splice must leave the reused list enumerating exactly the O(N^2)
  // reference pair set at the current positions, and point queries exact
  // against a direct scan
  auto prm = small_box_params(0.4);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 41);
  std::mt19937 rng(91);
  std::uniform_real_distribution<double> u(0.0, prm.box.x);
  const auto& nl = sys.neighbor_list();
  auto expect_queries_exact = [&](const char* after, int step) {
    for (int q = 0; q < 8; ++q) {
      const dpd::Vec3 p{u(rng), u(rng), u(rng)};
      const double cutoff = 0.4 + 0.1 * q;
      ASSERT_EQ(sorted_query(nl, sys.positions(), p, cutoff),
                brute_query(nl, sys.positions(), p, cutoff))
          << "query " << q << " after the " << after << " of churn step " << step;
    }
  };
  std::size_t removed_total = 0, added_total = 0;
  for (int s = 0; s < 100; ++s) {
    sys.step();
    if (s % 3 == 0 && sys.size() > 50) {
      std::uniform_int_distribution<std::size_t> pick(0, sys.size() - 1);
      sys.remove_particles({pick(rng), pick(rng), pick(rng)});
      removed_total += 3;  // upper bound; duplicates collapse
      expect_queries_exact("remap", s);
    }
    if (s % 4 == 0) {
      sys.add_particle({u(rng), u(rng), u(rng)}, {0.0, 0.0, 0.0}, dpd::kSolvent);
      ++added_total;
      expect_queries_exact("insertion", s);  // the newcomer sits in the unspliced tail
      sys.ensure_neighbors();
      expect_queries_exact("splice", s);
    }
    std::vector<Pair> fast, ref;
    sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
      fast.emplace_back(std::min(i, j), std::max(i, j));
    });
    sys.for_each_pair_direct(
        [&](std::size_t i, std::size_t j, const dpd::Vec3&, double) { ref.emplace_back(i, j); });
    std::sort(fast.begin(), fast.end());
    std::sort(ref.begin(), ref.end());
    ASSERT_EQ(fast, ref) << "churn step " << s;
  }
  EXPECT_GT(removed_total, 0u);
  EXPECT_GT(added_total, 0u);
  EXPECT_GT(sys.neighbor_list().reuses(), 0u);  // churn must not kill reuse entirely
}

TEST(DpdNeighbor, FlowBcChurnTrajectoryIndependentOfSkin) {
  // skin 0 rebuilds the list at every force evaluation; skin 0.3 keeps one
  // list alive across FlowBc deletions (remap) and insertions (splice).
  // Any sorted superset of the interacting pairs gives the same forces, so
  // the two trajectories must be bitwise equal.
  OpenBox fresh(0.0), kept(0.3);
  for (int s = 0; s < 100; ++s) {
    fresh.step();
    kept.step();
  }
  EXPECT_GT(kept.bc.inserted_total(), 0u);
  EXPECT_GT(kept.bc.deleted_total(), 0u);
  EXPECT_GT(kept.sys.neighbor_list().reuses(), 0u);
  EXPECT_EQ(fresh.sys.neighbor_list().reuses(), 0u);
  ASSERT_EQ(fresh.sys.size(), kept.sys.size());
  EXPECT_EQ(state_of(fresh.sys), state_of(kept.sys));
}

TEST(DpdNeighbor, FlowBcMidChurnRestartIsBitwise) {
  // checkpoint right after a force evaluation that spliced newcomers into a
  // reused list; the restored run rebuilds from scratch and must not notice
  OpenBox run(0.3);
  const auto& nl = run.sys.neighbor_list();
  bool spliced = false;
  for (int s = 0; s < 200 && !spliced; ++s) {
    // particles appended since the list's last ensure() (offsets has one
    // entry per listed particle plus one)
    const bool pending = nl.valid() && run.sys.size() + 1 > nl.offsets().size();
    const auto rebuilds = nl.rebuilds();
    run.step();
    spliced = pending && nl.rebuilds() == rebuilds;
  }
  ASSERT_TRUE(spliced);
  const auto blob = run.snapshot();
  OpenBox restored(0.3, /*fill=*/false);
  restored.restore(blob);
  for (int s = 0; s < 20; ++s) {
    run.step();
    restored.step();
  }
  ASSERT_EQ(run.sys.size(), restored.sys.size());
  EXPECT_EQ(state_of(run.sys), state_of(restored.sys));
}

TEST(DpdNeighbor, FlowBcChurnReusesList) {
  // Deterministic work-counter gate: under FlowBc churn the list must be
  // rebuilt at most at every other force evaluation (the Verlet skin, not
  // the insert/delete events, decides). A list that is thrown away on every
  // insertion or deletion rebuilds at nearly every step here.
  OpenBox box(0.3);
  for (int s = 0; s < 200; ++s) box.step();
  const auto& nl = box.sys.neighbor_list();
  EXPECT_GT(box.bc.inserted_total(), 0u);
  EXPECT_GT(box.bc.deleted_total(), 0u);
  const double frac = static_cast<double>(nl.rebuilds()) /
                      static_cast<double>(nl.rebuilds() + nl.reuses());
  RecordProperty("rebuild_frac", std::to_string(frac));
  EXPECT_LE(frac, 0.5) << nl.rebuilds() << " rebuilds, " << nl.reuses() << " reuses";
}
