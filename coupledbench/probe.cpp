// Host-speed probe (see METRICS.md, "Host-speed correction"): a fixed
// DPD-like pair sweep that uses nothing from the library, so its time moves
// only with the host. 12,000 particles at density 3 in a 20 x 20 x 10 box,
// positions and velocities from a fixed seed, the pairs within r_c = 1 found
// once; one sweep evaluates conservative, dissipative and random forces over
// every pair (about 1.5 MB of data, inside the reference host's 2 MB L2).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "bench.hpp"

namespace bench {

namespace {

class PairSweep {
 public:
  PairSweep() {
    constexpr int nx = 20, ny = 20, nz = 10, n = 3 * nx * ny * nz;
    std::mt19937 gen(12345);
    std::uniform_real_distribution<double> ux(0.0, nx), uy(0.0, ny), uz(0.0, nz), uv(-1.0, 1.0);
    for (int i = 0; i < n; ++i) {
      x_.push_back(ux(gen));
      y_.push_back(uy(gen));
      z_.push_back(uz(gen));
      vx_.push_back(uv(gen));
      vy_.push_back(uv(gen));
      vz_.push_back(uv(gen));
    }
    fx_.assign(n, 0.0);
    fy_.assign(n, 0.0);
    fz_.assign(n, 0.0);
    auto cell = [](int a, int b, int c) { return (a * ny + b) * nz + c; };
    std::vector<std::vector<std::uint32_t>> cells(nx * ny * nz);
    for (int i = 0; i < n; ++i)
      cells[cell(int(x_[i]), int(y_[i]), int(z_[i]))].push_back(static_cast<std::uint32_t>(i));
    for (int i = 0; i < n; ++i) {
      const int a = int(x_[i]), b = int(y_[i]), c = int(z_[i]);
      for (int da = -1; da <= 1; ++da)
        for (int db = -1; db <= 1; ++db)
          for (int dc = -1; dc <= 1; ++dc) {
            const int p = a + da, q = b + db, r = c + dc;
            if (p < 0 || q < 0 || r < 0 || p >= nx || q >= ny || r >= nz) continue;
            for (std::uint32_t j : cells[cell(p, q, r)]) {
              if (j <= static_cast<std::uint32_t>(i)) continue;
              const double dx = x_[i] - x_[j], dy = y_[i] - y_[j], dz = z_[i] - z_[j];
              if (dx * dx + dy * dy + dz * dz >= 1.0) continue;
              pi_.push_back(static_cast<std::uint32_t>(i));
              pj_.push_back(j);
            }
          }
    }
  }

  /// One force sweep; `salt` varies the random force so no sweep is skippable.
  double sweep(std::uint64_t salt) {
    std::fill(fx_.begin(), fx_.end(), 0.0);
    std::fill(fy_.begin(), fy_.end(), 0.0);
    std::fill(fz_.begin(), fz_.end(), 0.0);
    for (std::size_t k = 0; k < pi_.size(); ++k) {
      const std::uint32_t i = pi_[k], j = pj_[k];
      const double dx = x_[i] - x_[j], dy = y_[i] - y_[j], dz = z_[i] - z_[j];
      const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
      const double w = 1.0 - r;
      const double ex = dx / r, ey = dy / r, ez = dz / r;
      const double dv = ex * (vx_[i] - vx_[j]) + ey * (vy_[i] - vy_[j]) + ez * (vz_[i] - vz_[j]);
      std::uint64_t h = (std::uint64_t{i} * 0x9E3779B97F4A7C15ull) ^ (j + salt);
      h ^= h >> 31;
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 27;
      const double xi = static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
      const double f = 25.0 * w - 4.5 * w * w * dv + 3.0 * w * xi;
      fx_[i] += f * ex;
      fy_[i] += f * ey;
      fz_[i] += f * ez;
      fx_[j] -= f * ex;
      fy_[j] -= f * ey;
      fz_[j] -= f * ez;
    }
    return fx_[0] + fy_[1] + fz_[2];
  }

 private:
  std::vector<double> x_, y_, z_, vx_, vy_, vz_, fx_, fy_, fz_;
  std::vector<std::uint32_t> pi_, pj_;
};

}  // namespace

double probe_ms() {
  static PairSweep sweep;
  static std::uint64_t salt = 0;
  volatile double sink = sweep.sweep(++salt);  // warm: the workload has just evicted it
  const auto t0 = Clock::now();
  sink = sink + sweep.sweep(++salt);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<double> host_corrected(const std::vector<double>& spans,
                                   const std::vector<double>& probes) {
  if (probes.size() != spans.size() + 1)
    throw std::logic_error("host_corrected: need one probe around each span");
  std::vector<double> out;
  out.reserve(spans.size());
  for (std::size_t k = 0; k < spans.size(); ++k)
    out.push_back(spans[k] * kProbeRefMs / (0.5 * (probes[k] + probes[k + 1])));
  return out;
}

}  // namespace bench
