#include "dpd/neighbor.hpp"

#include <stdexcept>

#include "telemetry/registry.hpp"

namespace dpd {

void NeighborList::configure(const NeighborParams& p) {
  if (p.rc <= 0.0 || p.skin < 0.0) throw std::invalid_argument("NeighborList: rc/skin");
  prm_ = p;
  invalidate();
}

bool NeighborList::ensure(const SoA3& pos) {
  const std::size_t n_ref = ref_pos_.size();
  if (valid_ && pos.size() >= n_ref) {
    // Verlet criterion: the list is a superset of the interacting pairs as
    // long as no particle has moved farther than skin/2 from its reference.
    const double lim2 = 0.25 * prm_.skin * prm_.skin;
    bool ok = prm_.skin > 0.0;
    for (std::size_t i = 0; ok && i < n_ref; ++i)
      if (min_image(ref_pos_[i], pos[i]).norm2() > lim2) ok = false;
    if (ok) {
      if (pos.size() > n_ref) {
        telemetry::count("dpd.nlist.splice", static_cast<double>(pos.size() - n_ref));
        append(pos);
      }
      ++reuses_;
      telemetry::count("dpd.nlist.reuse");
      return false;
    }
  }
  build(pos);
  valid_ = true;
  ++rebuilds_;
  telemetry::count("dpd.nlist.rebuild");
  return true;
}

void NeighborList::on_remap(const std::vector<long>& new_index) {
  if (!valid_) return;
  const std::size_t n_ref = ref_pos_.size();
  if (new_index.size() < n_ref) throw std::invalid_argument("NeighborList: remap too short");
  telemetry::count("dpd.nlist.remap");
  // One in-place pass: rows and entries only move left, and an
  // order-preserving renumbering keeps every run ascending.
  std::size_t w = 0, r = 0;
  for (std::size_t i = 0; i < n_ref; ++i) {
    const std::size_t lo = offsets_[i], hi = offsets_[i + 1];
    if (new_index[i] < 0) continue;
    offsets_[r] = w;
    for (std::size_t k = lo; k < hi; ++k) {
      const long j = new_index[neighbors_[k]];
      if (j >= 0) neighbors_[w++] = static_cast<std::uint32_t>(j);
    }
    ref_pos_.set(r++, ref_pos_.get(i));
  }
  offsets_.resize(r + 1);
  offsets_[r] = w;
  neighbors_.resize(w);
  ref_pos_.resize(r);
  std::fill(cell_head_.begin(), cell_head_.end(), -1);
  cell_next_.assign(r, -1);
  for (std::size_t i = 0; i < r; ++i) bin(i);
}

void NeighborList::append(const SoA3& pos) {
  const std::size_t n_ref = ref_pos_.size(), n = pos.size();
  if (ghost_ && ghost_->size() < n)
    throw std::invalid_argument("NeighborList: pair-filter mask smaller than position array");
  const double rcut = prm_.rc + prm_.skin;
  const double rcut2 = rcut * rcut;
  ref_pos_.resize(n);
  cell_next_.resize(n, -1);
  // Each newcomer t takes its current position as reference and pairs with
  // every binned j < t within rc + skin; binning t only afterwards finds
  // each pair once, from its higher index.
  auto& pairs = pair_scratch_;
  pairs.clear();
  for (std::size_t t = n_ref; t < n; ++t) {
    const Vec3 p = pos[t];
    ref_pos_.set(t, p);
    for_each_binned_near(p, rcut, [&](std::size_t j) {
      if (keep(j, t) && min_image(ref_pos_[j], p).norm2() < rcut2)
        pairs.emplace_back(static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(t));
    });
    bin(t);
  }

  // Stable counting merge by row: t ascends through `pairs` and exceeds
  // every index already listed, so each pair lands at the end of its row
  // and every run stays ascending. Rows shift right by the new pairs of the
  // rows in front of them; walk them from the back so each moves once,
  // stopping where nothing moves any more.
  auto& fill = row_fill_;
  fill.assign(n, 0);
  for (const auto& pr : pairs) ++fill[pr.first];
  std::size_t hi = neighbors_.size(), shift = pairs.size();
  neighbors_.resize(hi + shift);
  offsets_.resize(n + 1, hi);
  offsets_[n] = hi + shift;
  for (std::size_t i = n; shift > 0;) {
    const std::size_t lo = offsets_[--i];
    shift -= fill[i];
    if (shift > 0)
      std::copy_backward(neighbors_.begin() + static_cast<long>(lo),
                         neighbors_.begin() + static_cast<long>(hi),
                         neighbors_.begin() + static_cast<long>(hi + shift));
    fill[i] = hi + shift;
    offsets_[i] = lo + shift;
    hi = lo;
  }
  for (const auto& pr : pairs) neighbors_[fill[pr.first]++] = pr.second;
}

void NeighborList::bin(std::size_t i) {
  Vec3 p = ref_pos_[i];
  wrap(p);
  const int cx = cell_coord(p.x, prm_.box.x, ncx_);
  const int cy = cell_coord(p.y, prm_.box.y, ncy_);
  const int cz = cell_coord(p.z, prm_.box.z, ncz_);
  const std::size_t c =
      (static_cast<std::size_t>(cz) * ncy_ + cy) * static_cast<std::size_t>(ncx_) + cx;
  cell_next_[i] = cell_head_[c];
  cell_head_[c] = static_cast<long>(i);
}

void NeighborList::build(const SoA3& pos) {
  telemetry::ScopedPhase phase("dpd.nlist.build");
  // cell grid with cells of size >= rc + skin
  const double rcut = prm_.rc + prm_.skin;
  ncx_ = std::max(1, static_cast<int>(prm_.box.x / rcut));
  ncy_ = std::max(1, static_cast<int>(prm_.box.y / rcut));
  ncz_ = std::max(1, static_cast<int>(prm_.box.z / rcut));
  csx_ = prm_.box.x / ncx_;
  csy_ = prm_.box.y / ncy_;
  csz_ = prm_.box.z / ncz_;
  cell_head_.assign(static_cast<std::size_t>(ncx_) * ncy_ * ncz_, -1);
  cell_next_.clear();
  ref_pos_.clear();
  offsets_.assign(1, 0);
  neighbors_.clear();
  append(pos);
}

}  // namespace dpd
