// DPD pair-iteration throughput: Verlet neighbor list vs the legacy
// per-call cell walk (which also pays a std::function indirect call per
// pair, replicating the pre-fast-path dispatch). The cell walk is a
// bench-local baseline built over DpdSystem's public positions(),
// min_image() and params(); the library carries only the Verlet path.
// Prints pairs/sec for both and DPD_PAIRS_SPEEDUP for CI to grep, then
// measures rebuilds/step across skin radii on a live (stepped) system.
// Writes BENCH_dpd_pairs.json. Exits non-zero when the two sweeps report
// different pair counts, or when the speedup falls below the gate (override
// with NEKTARG_DPD_PAIRS_MIN_SPEEDUP; timing smoke, default is a loose 1.0).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "dpd/system.hpp"
#include "telemetry/bench_report.hpp"

namespace {

constexpr double kBoxLen = 12.0;
constexpr double kDensity = 3.0;
constexpr int kWarmupSteps = 50;
constexpr int kTraversals = 25;
constexpr int kRepeats = 5;
constexpr int kLiveSteps = 200;

dpd::DpdSystem make_system(double skin) {
  dpd::DpdParams prm;
  prm.box = {kBoxLen, kBoxLen, kBoxLen};
  prm.periodic = {true, true, true};
  prm.skin = skin;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(kDensity, dpd::kSolvent);
  for (int s = 0; s < kWarmupSteps; ++s) sys.step();
  return sys;
}

/// Legacy pre-Verlet pair walk: rebuilds an rc-sized linked-list cell grid
/// on every call and enumerates pairs through the 13-cell half stencil.
/// Needs at least 3 cells along each periodic axis (kBoxLen / rc = 12 here);
/// fewer would visit some cell pairs twice, which the pair-count check in
/// main() reports.
class CellWalk {
public:
  explicit CellWalk(const dpd::DpdSystem& sys) : sys_(sys) {}

  template <class Fn>
  void for_each_pair(Fn&& fn) {
    build_cells();
    const auto& prm = sys_.params();
    const auto& pos = sys_.positions();
    const double rc2 = prm.rc * prm.rc;
    auto cell_of = [&](int cx, int cy, int cz) -> long {
      auto adjust = [](int c, int n, bool per) -> int {
        if (c < 0) return per ? c + n : -1;
        if (c >= n) return per ? c - n : -1;
        return c;
      };
      cx = adjust(cx, ncx_, prm.periodic[0]);
      cy = adjust(cy, ncy_, prm.periodic[1]);
      cz = adjust(cz, ncz_, prm.periodic[2]);
      if (cx < 0 || cy < 0 || cz < 0) return -1;
      return (static_cast<long>(cz) * ncy_ + cy) * ncx_ + cx;
    };
    auto visit = [&](long i, long j) {
      const auto ii = static_cast<std::size_t>(i), jj = static_cast<std::size_t>(j);
      const dpd::Vec3 dr = sys_.min_image(pos[ii], pos[jj]);
      const double r2 = dr.norm2();
      if (r2 < rc2 && r2 > 1e-20) fn(ii, jj, dr, std::sqrt(r2));
    };
    for (int cz = 0; cz < ncz_; ++cz)
      for (int cy = 0; cy < ncy_; ++cy)
        for (int cx = 0; cx < ncx_; ++cx) {
          const long c = cell_of(cx, cy, cz);
          for (long i = head_[static_cast<std::size_t>(c)]; i >= 0;
               i = next_[static_cast<std::size_t>(i)])
            for (long j = next_[static_cast<std::size_t>(i)]; j >= 0;
                 j = next_[static_cast<std::size_t>(j)])
              visit(i, j);
          for (const auto& o : kHalfStencil) {
            const long c2 = cell_of(cx + o[0], cy + o[1], cz + o[2]);
            if (c2 < 0 || c2 == c) continue;
            for (long i = head_[static_cast<std::size_t>(c)]; i >= 0;
                 i = next_[static_cast<std::size_t>(i)])
              for (long j = head_[static_cast<std::size_t>(c2)]; j >= 0;
                   j = next_[static_cast<std::size_t>(j)])
                visit(i, j);
          }
        }
  }

private:
  static constexpr int kHalfStencil[13][3] = {{1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},
                                              {1, -1, 0}, {1, 0, 1},  {1, 0, -1}, {0, 1, 1},
                                              {0, 1, -1}, {1, 1, 1},  {1, 1, -1}, {1, -1, 1},
                                              {1, -1, -1}};

  void build_cells() {
    const auto& prm = sys_.params();
    const auto& pos = sys_.positions();
    ncx_ = std::max(1, static_cast<int>(prm.box.x / prm.rc));
    ncy_ = std::max(1, static_cast<int>(prm.box.y / prm.rc));
    ncz_ = std::max(1, static_cast<int>(prm.box.z / prm.rc));
    head_.assign(static_cast<std::size_t>(ncx_) * ncy_ * ncz_, -1);
    next_.assign(pos.size(), -1);
    // cell coordinate of a (wrapped on periodic axes) position component
    auto coord = [](double v, double L, int n, bool per) {
      if (per) {
        v = std::fmod(v, L);
        if (v < 0.0) v += L;
      }
      return std::clamp(static_cast<int>(v / L * n), 0, n - 1);
    };
    for (std::size_t i = 0; i < pos.size(); ++i) {
      const dpd::Vec3 p = pos[i];
      const int cx = coord(p.x, prm.box.x, ncx_, prm.periodic[0]);
      const int cy = coord(p.y, prm.box.y, ncy_, prm.periodic[1]);
      const int cz = coord(p.z, prm.box.z, ncz_, prm.periodic[2]);
      const std::size_t c =
          (static_cast<std::size_t>(cz) * ncy_ + cy) * static_cast<std::size_t>(ncx_) + cx;
      next_[i] = head_[c];
      head_[c] = static_cast<long>(i);
    }
  }

  const dpd::DpdSystem& sys_;
  int ncx_ = 0, ncy_ = 0, ncz_ = 0;
  std::vector<long> head_, next_;
};

struct Throughput {
  double pairs_per_sec = 0.0;
  double best_ms = 0.0;
  std::size_t pairs = 0;
};

/// Best-of-kRepeats time for kTraversals pair sweeps with `sweep()`.
template <class Sweep>
Throughput time_sweeps(Sweep&& sweep) {
  Throughput out;
  double checksum = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    std::size_t pairs = 0;
    double acc = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < kTraversals; ++t) sweep(pairs, acc);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < out.best_ms) out.best_ms = ms;
    out.pairs = pairs / kTraversals;
    checksum += acc;
  }
  if (!(checksum == checksum)) std::abort();  // keep the work observable
  out.pairs_per_sec =
      static_cast<double>(out.pairs) * kTraversals / (out.best_ms * 1e-3);
  return out;
}

}  // namespace

int main() {
  std::printf("=== DPD pair iteration: Verlet list vs legacy cell walk ===\n");

  auto sys = make_system(0.3);
  const std::size_t n = sys.size();
  std::printf("n=%zu box=%.0f^3 rc=%.1f density=%.1f\n", n, kBoxLen, sys.params().rc, kDensity);

  // Legacy baseline: rebuild the rc-sized cell grid every sweep and pay an
  // indirect call per pair, as the pre-Verlet for_each_pair did.
  CellWalk walk(sys);
  const auto legacy = time_sweeps([&](std::size_t& pairs, double& acc) {
    std::function<void(std::size_t, std::size_t, const dpd::Vec3&, double)> visit =
        [&](std::size_t, std::size_t, const dpd::Vec3&, double r) {
          ++pairs;
          acc += r;
        };
    walk.for_each_pair(visit);
  });

  // Fast path: Verlet list (reused while the skin holds) + inlined kernel.
  const auto verlet = time_sweeps([&](std::size_t& pairs, double& acc) {
    sys.for_each_pair([&](std::size_t, std::size_t, const dpd::Vec3&, double r) {
      ++pairs;
      acc += r;
    });
  });

  const double speedup = verlet.pairs_per_sec / legacy.pairs_per_sec;
  std::printf("cellwalk: %10.3e pairs/s  (%.2f ms / %d sweeps, %zu pairs)\n",
              legacy.pairs_per_sec, legacy.best_ms, kTraversals, legacy.pairs);
  std::printf("verlet:   %10.3e pairs/s  (%.2f ms / %d sweeps, %zu pairs)\n",
              verlet.pairs_per_sec, verlet.best_ms, kTraversals, verlet.pairs);
  // Both sweeps run over the same frozen positions, so they must find the
  // same rc pair set; a count mismatch means one of them is wrong and the
  // ratio below compares different work.
  if (legacy.pairs != verlet.pairs) {
    std::printf("FAIL: cell walk found %zu pairs, Verlet sweep %zu\n", legacy.pairs,
                verlet.pairs);
    return 1;
  }
  std::printf("DPD_PAIRS_SPEEDUP=%.2f\n", speedup);

  telemetry::BenchReport rep("dpd_pairs");
  rep.meta("n", static_cast<double>(n));
  rep.meta("box", kBoxLen);
  rep.meta("rc", sys.params().rc);
  rep.meta("density", kDensity);
  rep.meta("traversals", static_cast<double>(kTraversals));
  rep.row();
  rep.set("variant", std::string("cellwalk"));
  rep.set("pairs_per_sec", legacy.pairs_per_sec);
  rep.set("best_ms", legacy.best_ms);
  rep.row();
  rep.set("variant", std::string("verlet"));
  rep.set("pairs_per_sec", verlet.pairs_per_sec);
  rep.set("best_ms", verlet.best_ms);
  rep.set("speedup", speedup);

  // Rebuild frequency on a live run: fresh system per skin, kLiveSteps of
  // real dynamics, rebuilds/reuses read off the neighbor-list counters.
  std::printf("\nskin   rebuilds/step  reuse-frac  pairs-in-list\n");
  for (double skin : {0.15, 0.3, 0.6}) {
    auto live = make_system(skin);
    const auto& nl = live.neighbor_list();
    const std::size_t rb0 = nl.rebuilds(), ru0 = nl.reuses();
    for (int s = 0; s < kLiveSteps; ++s) live.step();
    const double rebuilds = static_cast<double>(nl.rebuilds() - rb0);
    const double reuses = static_cast<double>(nl.reuses() - ru0);
    const double per_step = rebuilds / kLiveSteps;
    const double reuse_frac = reuses / (rebuilds + reuses);
    std::printf("%.2f   %12.3f  %10.3f  %13zu\n", skin, per_step, reuse_frac, nl.pair_count());
    rep.row();
    rep.set("variant", std::string("live"));
    rep.set("skin", skin);
    rep.set("steps", static_cast<double>(kLiveSteps));
    rep.set("rebuilds_per_step", per_step);
    rep.set("reuse_frac", reuse_frac);
    rep.set("list_pairs", static_cast<double>(nl.pair_count()));
  }
  rep.write();

  const telemetry::BenchGate gate("NEKTARG_DPD_PAIRS_MIN_SPEEDUP", 1.0,
                                  telemetry::BenchGate::kMin);
  std::printf("\nDPD_PAIRS_MIN_SPEEDUP=%.2f\n", gate.threshold());
  if (const int rc = gate.check("Verlet speedup", speedup)) return rc;
  std::printf("OK\n");
  return 0;
}
