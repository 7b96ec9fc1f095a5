#pragma once
// Spatial decomposition of the (possibly periodic) DPD box into a uniform
// px x py x pz grid of subdomains, one per xmp rank (the paper runs the
// atomistic side this way across thousands of MPI ranks; see docs/PERF.md
// "Distributed DPD"). The class is pure geometry — ownership of a particle
// is "its position falls inside my subdomain", halo membership is "within
// halo_width of your subdomain under the box periodicity" — and every rank
// constructs an identical instance, so all placement decisions are
// replicated instead of communicated.

#include <array>
#include <vector>

#include "dpd/types.hpp"

namespace dpd::exchange {

/// Process-grid dimensions. count()==0 (the default) asks for auto_dims().
struct GridDims {
  int px = 0, py = 0, pz = 0;
  int count() const { return px * py * pz; }
};

/// Factor `nranks` into a grid minimizing per-subdomain surface (ghost
/// traffic) for the given box aspect: among all factorizations the one with
/// the smallest ly*lz + lx*lz + lx*ly wins, ties broken towards splitting
/// the longest axis.
GridDims auto_dims(int nranks, const Vec3& box);

/// Half-open axis-aligned slab of the box: lo <= p < hi per axis.
struct Subdomain {
  Vec3 lo{}, hi{};
};

class Decomposition {
public:
  /// Throws std::invalid_argument when dims.count() != nranks or any
  /// dimension is non-positive, and when halo_width <= 0. Cut planes are
  /// uniform and fixed for the lifetime of the instance.
  Decomposition(const Vec3& box, const std::array<bool, 3>& periodic, GridDims dims,
                double halo_width);

  int nranks() const { return dims_.count(); }
  const GridDims& dims() const { return dims_; }
  double halo_width() const { return halo_; }
  const Vec3& box() const { return box_; }

  std::array<int, 3> coords_of(int rank) const;
  int rank_at(int cx, int cy, int cz) const;  ///< periodic wrap / clamp per axis
  Subdomain subdomain(int rank) const;

  /// Owning rank of a position (clamped into the box on non-periodic axes,
  /// wrapped on periodic ones).
  int rank_of_position(const Vec3& p) const;

  /// Ranks (ascending, excluding `rank`) whose subdomain lies within
  /// halo_width of rank's subdomain under the box periodicity — the only
  /// ranks halo/migration traffic can flow to or from.
  const std::vector<int>& neighbors(int rank) const { return neighbors_[static_cast<std::size_t>(rank)]; }

  /// Squared distance from p to rank's subdomain (0 inside), taking the
  /// shorter way around on periodic axes.
  double dist2_to_subdomain(const Vec3& p, int rank) const;

  /// Must rank `dst` hold a ghost image of a particle at p?
  bool in_halo_of(const Vec3& p, int dst) const {
    return dist2_to_subdomain(p, dst) < halo_ * halo_;
  }

private:
  Vec3 box_{};
  std::array<bool, 3> periodic_{};
  GridDims dims_{};
  double halo_ = 0.0;
  // per axis: dims+1 ascending slab boundaries from 0 to the box length;
  // subdomain(), rank_of_position() and the neighbor sets all read these,
  // so they agree exactly at slab edges
  std::array<std::vector<double>, 3> cuts_;
  std::vector<std::vector<int>> neighbors_;
};

}  // namespace dpd::exchange
