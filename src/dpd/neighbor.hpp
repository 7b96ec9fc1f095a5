#pragma once
// Verlet neighbor-list engine for the DPD force path (paper Sec. 3.5: the
// DPD-LAMMPS hot loops). A cell grid with cells of size >= rc + skin bins
// the particles' reference positions; from it we keep a half neighbor list
// (each pair stored once, under its lower index, runs sorted ascending)
// that is *reused* across force evaluations until any particle has moved
// farther than skin/2 from its reference position — the classic
// Verlet-list criterion that guarantees no interacting pair (r < rc) is
// ever missed.
//
// The list invariant: the CSR holds every pair (i < j) whose *reference*
// positions lie within rc + skin, where a particle's reference position is
// where it stood when it entered the list. There is one way in: appending.
// Each appended particle t pairs with the lower-index particles already
// binned in the grid cells around it and is binned only afterwards, so
// every pair is found exactly once, from its higher index, whatever the box
// shape. A build resets the grid and the CSR and appends every particle; on
// a reused list, particles added since the last ensure() are appended the
// same way. Pairs come out with t ascending, so a stable counting merge by
// row puts each at the end of its row and every run stays sorted without a
// sort. Deletion remaps the list (drop dead rows and entries, renumber,
// re-sort the bins), so the list also survives the open-boundary churn of
// the flux BC.
//
// The bins are a counting sort: every listed particle keeps its cell
// (cell_of_), and slot_idx_ lists the particles cell by cell, cell c owning
// the slots [cell_start_[c], cell_start_[c+1]). A scatter in index order
// leaves each cell's members ascending, so while append walks t upward the
// members below t are a prefix of every cell, ending at a per-cell cursor
// (cell_fill_) that advances as t is binned. Each window cell's candidates
// are that prefix, streamed from contiguous slots; the distance test writes
// every candidate and advances the hit count by the predicate, so its
// outcome is never branched on. Newcomers have the highest indices, so a
// splice re-sorts the listed particles (O(n + cells)) and walks the
// newcomers exactly as a build walks everyone.
//
// The canonical (i ascending, j ascending within each run) pair ordering is
// load-bearing: the force loop skips out-of-range pairs entirely, so the
// floating-point summation order of the *contributing* pairs is a function
// of the particle state alone, not of when the list was last rebuilt,
// remapped or appended to. That is what keeps checkpoint/restart bitwise
// identical even though a restart rebuilds the list while an uninterrupted
// run may still be reusing an older (valid) one. Under spatial
// decomposition (exchange/) the same property extends across ranks: local
// arrays are kept sorted by global particle ID, so index order == gid order
// and every rank accumulates an owned particle's pair forces in exactly the
// single-rank order.
//
// Positions are structure-of-arrays (soa.hpp); ensure/query stream the flat
// x/y/z lanes. An optional ghost-pair filter drops the both-ghost pairs no
// rank is responsible for.
//
// The same bins serve point queries (query()) for sparse secondary scans —
// platelet adhesion and thrombus-arrest checks — which would otherwise
// rescan particle subsets quadratically. A query visits the particles of
// each cell in slot order; its callers do not depend on visit order.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dpd/soa.hpp"
#include "dpd/types.hpp"

namespace dpd {

struct NeighborParams {
  Vec3 box{20.0, 10.0, 10.0};
  std::array<bool, 3> periodic{true, true, false};
  double rc = 1.0;    ///< interaction cutoff
  double skin = 0.3;  ///< Verlet skin: list radius is rc + skin
};

class NeighborList {
public:
  NeighborList() = default;
  explicit NeighborList(const NeighborParams& p) { configure(p); }

  /// Set the geometry/cutoff parameters; drops any existing list.
  void configure(const NeighborParams& p);
  const NeighborParams& params() const { return prm_; }

  /// Exclude pairs from the half list that no local computation needs:
  /// with `is_ghost` set, both-ghost pairs are skipped. Pass nullptr to
  /// clear. The mask must outlive the list and cover every particle at
  /// build time; changing it invalidates the list.
  void set_pair_filter(const std::vector<char>* is_ghost) {
    ghost_ = is_ghost;
    invalidate();
  }

  /// Make the list valid for `pos`: reuse it when every referenced particle
  /// has moved less than skin/2 from its reference position, rebuild
  /// otherwise. Particles added since the last call (indices at or above
  /// the reference count) are appended to a reused list (a splice). Returns
  /// true iff a rebuild happened.
  bool ensure(const SoA3& pos);

  /// Drop the list (wholesale state reload, geometry or filter change).
  void invalidate() { valid_ = false; }
  /// ForceModule-style remap hook for an order-preserving compaction
  /// (new_index[i] = new slot of particle i, -1 if deleted): a valid list
  /// drops the dead rows and entries, renumbers the survivors and re-sorts
  /// the bins, and stays valid. Particles appended since the last ensure()
  /// stay in the unspliced tail.
  void on_remap(const std::vector<long>& new_index);
  bool valid() const { return valid_; }

  // --- stats (telemetry mirrors these as dpd.nlist.* counters) ---
  std::uint64_t rebuilds() const { return rebuilds_; }
  /// Force evaluations served without a rebuild (including those that only
  /// spliced in new particles).
  std::uint64_t reuses() const { return reuses_; }
  std::size_t pair_count() const { return neighbors_.size(); }

  /// CSR half list: pairs of particle i live in
  /// neighbors_[offsets()[i] .. offsets()[i+1]), sorted ascending, j > i.
  const std::vector<std::size_t>& offsets() const { return offsets_; }
  const std::vector<std::uint32_t>& neighbors() const { return neighbors_; }

  /// Minimum-image displacement a -> b under the configured periodicity.
  Vec3 min_image(const Vec3& a, const Vec3& b) const {
    Vec3 d = b - a;
    auto mi = [](double v, double L) {
      if (v > 0.5 * L) return v - L;
      if (v < -0.5 * L) return v + L;
      return v;
    };
    if (prm_.periodic[0]) d.x = mi(d.x, prm_.box.x);
    if (prm_.periodic[1]) d.y = mi(d.y, prm_.box.y);
    if (prm_.periodic[2]) d.z = mi(d.z, prm_.box.z);
    return d;
  }

  /// Visit every interacting pair (r < rc at *current* positions) once:
  /// fn(i, j, dr = xj - xi minimum image, r). Requires a valid list.
  template <class Fn>
  void for_each(const SoA3& pos, Fn&& fn) const {
    const double rc2 = prm_.rc * prm_.rc;
    const std::size_t n = offsets_.empty() ? 0 : offsets_.size() - 1;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
        const std::size_t j = neighbors_[k];
        const Vec3 dr = min_image(pos[i], pos[j]);
        const double r2 = dr.norm2();
        if (r2 < rc2 && r2 > 1e-20) fn(i, j, dr, std::sqrt(r2));
      }
    }
  }

  /// Visit every particle within `cutoff` of point `p` (current positions):
  /// fn(j, dr = xj - p minimum image, r2). Walks only the grid cells that
  /// can hold such a particle, padding the search radius by skin/2 because
  /// the grid bins reference positions; particles appended since the last
  /// ensure() are not binned yet and are scanned directly. The caller must
  /// have ensure()d the list against the same position array.
  template <class Fn>
  void query(const SoA3& pos, const Vec3& p, double cutoff, Fn&& fn) const {
    const double c2 = cutoff * cutoff;
    auto visit = [&](std::size_t j) {
      const Vec3 dr = min_image(p, pos[j]);
      const double r2 = dr.norm2();
      if (r2 <= c2) fn(j, dr, r2);
    };
    const std::size_t binned = valid_ ? ref_pos_.size() : 0;
    if (valid_) for_each_binned_near(p, cutoff + 0.5 * prm_.skin, visit);
    for (std::size_t j = binned; j < pos.size(); ++j) visit(j);
  }

private:
  /// Reset the grid and the CSR, then append every particle.
  void build(const SoA3& pos);
  /// Append the particles [ref_pos_.size(), pos.size()) to the list.
  void append(const SoA3& pos);
  /// Counting sort of the listed particles by cell_of_: cell_start_ gets
  /// every cell's slot range, the particles [0, n_binned) are scattered in
  /// index order, and cell_fill_[c] ends the binned prefix of cell c.
  void sort_bins(std::size_t n_binned);
  /// The grid cell holding point p.
  std::uint32_t cell_index(Vec3 p) const {
    wrap(p);
    const int cx = cell_coord(p.x, prm_.box.x, ncx_);
    const int cy = cell_coord(p.y, prm_.box.y, ncy_);
    const int cz = cell_coord(p.z, prm_.box.z, ncz_);
    return static_cast<std::uint32_t>((cz * ncy_ + cy) * ncx_ + cx);
  }

  /// Visit the grid cells whose contents can lie within `pad` of cell
  /// `cell`: fn(c). Each cell is visited once, also when a dimension has too
  /// few cells for the +-reach window to be distinct.
  template <class Fn>
  void for_each_window_cell(std::uint32_t cell, double pad, Fn&& fn) const {
    const int c0 = static_cast<int>(cell);
    const CellRange cx = cells_along(c0 % ncx_, pad, csx_, ncx_, prm_.periodic[0]);
    const CellRange cy = cells_along(c0 / ncx_ % ncy_, pad, csy_, ncy_, prm_.periodic[1]);
    const CellRange cz = cells_along(c0 / ncx_ / ncy_, pad, csz_, ncz_, prm_.periodic[2]);
    for (int a = 0; a < cz.count; ++a)
      for (int b = 0; b < cy.count; ++b)
        for (int c = 0; c < cx.count; ++c)
          fn(static_cast<std::size_t>((cz[a] * ncy_ + cy[b]) * ncx_ + cx[c]));
  }

  /// Visit every binned particle in the grid cells that can hold points
  /// within `pad` of `p`: fn(j), in slot order.
  template <class Fn>
  void for_each_binned_near(const Vec3& p, double pad, Fn&& fn) const {
    for_each_window_cell(cell_index(p), pad, [&](std::size_t c) {
      for (std::uint32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) fn(slot_idx_[k]);
    });
  }

  void wrap(Vec3& p) const {
    auto wrap1 = [](double v, double L) {
      v = std::fmod(v, L);
      return v < 0.0 ? v + L : v;
    };
    if (prm_.periodic[0]) p.x = wrap1(p.x, prm_.box.x);
    if (prm_.periodic[1]) p.y = wrap1(p.y, prm_.box.y);
    if (prm_.periodic[2]) p.z = wrap1(p.z, prm_.box.z);
  }

  static int cell_coord(double v, double L, int n) {
    const int c = static_cast<int>(v / L * n);
    return c < 0 ? 0 : (c >= n ? n - 1 : c);
  }

  /// Cells along one dimension: `count` of them upward from `lo`, wrapping
  /// from n - 1 to 0, each listed at most once.
  struct CellRange {
    int lo, count, n;
    int operator[](int k) const { return lo + k < n ? lo + k : lo + k - n; }
  };

  /// The cells along one dimension whose contents can lie within `pad` of
  /// cell `base`: base - reach .. base + reach (wrapped when periodic,
  /// clipped otherwise), or all n cells in order when that window would
  /// list a cell twice.
  static CellRange cells_along(int base, double pad, double cell_size, int n, bool per) {
    const int reach = static_cast<int>(std::ceil(pad / cell_size));
    if (2 * reach + 1 >= n) return {0, n, n};
    if (per) return {base < reach ? base - reach + n : base - reach, 2 * reach + 1, n};
    const int lo = std::max(0, base - reach);
    return {lo, std::min(n - 1, base + reach) - lo + 1, n};
  }

  NeighborParams prm_;
  bool valid_ = false;

  // optional decomposition pair filter (see set_pair_filter)
  const std::vector<char>* ghost_ = nullptr;

  // cell grid over reference positions, binned by counting sort
  int ncx_ = 0, ncy_ = 0, ncz_ = 0;
  double csx_ = 0.0, csy_ = 0.0, csz_ = 0.0;
  std::vector<std::uint32_t> cell_of_;     ///< cell of each listed particle
  std::vector<std::uint32_t> cell_start_;  ///< cell c owns slots [start[c], start[c+1])
  std::vector<std::uint32_t> cell_fill_;   ///< append: end of each cell's binned prefix
  std::vector<std::uint32_t> slot_idx_;    ///< particle in each slot

  SoA3 ref_pos_;  ///< reference positions (rebuild trigger); size = listed particles
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> neighbors_;
  /// (row, t) pairs of one append. It keeps its high-water size, so the
  /// distance test can write every candidate before counting it; it grows
  /// only to the candidates in hand, since pages it touches stay resident.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pair_scratch_;
  std::vector<std::size_t> row_fill_;  ///< append: per-row new-pair count, then next slot

  std::uint64_t rebuilds_ = 0, reuses_ = 0;
};

}  // namespace dpd
