#include "dpd/exchange/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dpd::exchange {

GridDims auto_dims(int nranks, const Vec3& box) {
  if (nranks < 1) throw std::invalid_argument("exchange: auto_dims needs nranks >= 1");
  GridDims best{1, 1, nranks};
  double best_score = -1.0;
  for (int px = 1; px <= nranks; ++px) {
    if (nranks % px) continue;
    const int rest = nranks / px;
    for (int py = 1; py <= rest; ++py) {
      if (rest % py) continue;
      const int pz = rest / py;
      const double lx = box.x / px, ly = box.y / py, lz = box.z / pz;
      const double score = ly * lz + lx * lz + lx * ly;  // per-rank surface / 2
      if (best_score < 0.0 || score < best_score - 1e-12) {
        best_score = score;
        best = {px, py, pz};
      }
    }
  }
  return best;
}

Decomposition::Decomposition(const Vec3& box, const std::array<bool, 3>& periodic, GridDims dims,
                             double halo_width)
    : box_(box), periodic_(periodic), dims_(dims), halo_(halo_width) {
  if (dims_.px < 1 || dims_.py < 1 || dims_.pz < 1)
    throw std::invalid_argument("exchange: decomposition dims must be positive");
  if (halo_ <= 0.0) throw std::invalid_argument("exchange: halo_width must be positive");
  const int ns[3] = {dims_.px, dims_.py, dims_.pz};
  const double Ls[3] = {box_.x, box_.y, box_.z};
  for (int a = 0; a < 3; ++a) {
    auto& c = cuts_[static_cast<std::size_t>(a)];
    c.resize(static_cast<std::size_t>(ns[a]) + 1);
    const double w = Ls[a] / ns[a];
    for (int k = 0; k < ns[a]; ++k) c[static_cast<std::size_t>(k)] = w * k;
    c[static_cast<std::size_t>(ns[a])] = Ls[a];
  }
  const int n = nranks();
  neighbors_.assign(static_cast<std::size_t>(n), {});
  // box-to-box periodic distance between every subdomain pair; with the
  // point-to-box halo test using the same strict `< halo` criterion, a
  // particle can only ever be ghosted to a rank in this precomputed set
  const double h2 = halo_ * halo_;
  for (int r = 0; r < n; ++r) {
    const Subdomain a = subdomain(r);
    for (int d = 0; d < n; ++d) {
      if (d == r) continue;
      const Subdomain b = subdomain(d);
      auto axis = [&](double alo, double ahi, double blo, double bhi, double L,
                      bool per) -> double {
        auto plain = [&](double shift) {
          return std::max(0.0, std::max(blo + shift - ahi, alo - (bhi + shift)));
        };
        double v = plain(0.0);
        if (per) v = std::min({v, plain(-L), plain(L)});
        return v;
      };
      const double dx = axis(a.lo.x, a.hi.x, b.lo.x, b.hi.x, box_.x, periodic_[0]);
      const double dy = axis(a.lo.y, a.hi.y, b.lo.y, b.hi.y, box_.y, periodic_[1]);
      const double dz = axis(a.lo.z, a.hi.z, b.lo.z, b.hi.z, box_.z, periodic_[2]);
      if (dx * dx + dy * dy + dz * dz < h2) neighbors_[static_cast<std::size_t>(r)].push_back(d);
    }
  }
}

std::array<int, 3> Decomposition::coords_of(int rank) const {
  const int cx = rank % dims_.px;
  const int cy = (rank / dims_.px) % dims_.py;
  const int cz = rank / (dims_.px * dims_.py);
  return {cx, cy, cz};
}

int Decomposition::rank_at(int cx, int cy, int cz) const {
  auto adjust = [](int c, int n, bool per) {
    if (per) return ((c % n) + n) % n;
    return std::clamp(c, 0, n - 1);
  };
  cx = adjust(cx, dims_.px, periodic_[0]);
  cy = adjust(cy, dims_.py, periodic_[1]);
  cz = adjust(cz, dims_.pz, periodic_[2]);
  return (cz * dims_.py + cy) * dims_.px + cx;
}

Subdomain Decomposition::subdomain(int rank) const {
  if (rank < 0 || rank >= nranks())
    throw std::invalid_argument("exchange: subdomain rank " + std::to_string(rank) +
                                " out of range");
  const auto c = coords_of(rank);
  const auto& cx = cuts_[0];
  const auto& cy = cuts_[1];
  const auto& cz = cuts_[2];
  Subdomain s;
  s.lo = {cx[static_cast<std::size_t>(c[0])], cy[static_cast<std::size_t>(c[1])],
          cz[static_cast<std::size_t>(c[2])]};
  s.hi = {cx[static_cast<std::size_t>(c[0]) + 1], cy[static_cast<std::size_t>(c[1]) + 1],
          cz[static_cast<std::size_t>(c[2]) + 1]};
  return s;
}

int Decomposition::rank_of_position(const Vec3& p) const {
  auto cell = [](double x, double L, int n, bool per, const std::vector<double>& cuts) {
    if (per) {
      x = std::fmod(x, L);
      if (x < 0.0) x += L;
    }
    // slab whose [cuts[k], cuts[k+1]) half-open interval holds x — exactly
    // the membership subdomain() describes, even at slab edges
    const auto it = std::upper_bound(cuts.begin(), cuts.end(), x);
    const auto k = static_cast<int>(it - cuts.begin()) - 1;
    return std::clamp(k, 0, n - 1);
  };
  return rank_at(cell(p.x, box_.x, dims_.px, periodic_[0], cuts_[0]),
                 cell(p.y, box_.y, dims_.py, periodic_[1], cuts_[1]),
                 cell(p.z, box_.z, dims_.pz, periodic_[2], cuts_[2]));
}

double Decomposition::dist2_to_subdomain(const Vec3& p, int rank) const {
  const Subdomain s = subdomain(rank);
  auto axis = [](double x, double lo, double hi, double L, bool per) {
    auto plain = [&](double xx) { return xx < lo ? lo - xx : (xx > hi ? xx - hi : 0.0); };
    double v = plain(x);
    if (per) v = std::min({v, plain(x - L), plain(x + L)});
    return v;
  };
  const double dx = axis(p.x, s.lo.x, s.hi.x, box_.x, periodic_[0]);
  const double dy = axis(p.y, s.lo.y, s.hi.y, box_.y, periodic_[1]);
  const double dz = axis(p.z, s.lo.z, s.hi.z, box_.z, periodic_[2]);
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace dpd::exchange
