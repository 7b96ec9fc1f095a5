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
  // order-preserving renumbering keeps every run ascending. Survivors keep
  // their cells, so the bins are re-sorted without re-binning.
  std::size_t w = 0, r = 0;
  for (std::size_t i = 0; i < n_ref; ++i) {
    const std::size_t lo = offsets_[i], hi = offsets_[i + 1];
    if (new_index[i] < 0) continue;
    offsets_[r] = w;
    for (std::size_t k = lo; k < hi; ++k) {
      const long j = new_index[neighbors_[k]];
      if (j >= 0) neighbors_[w++] = static_cast<std::uint32_t>(j);
    }
    ref_pos_.set(r, ref_pos_.get(i));
    cell_of_[r++] = cell_of_[i];
  }
  offsets_.resize(r + 1);
  offsets_[r] = w;
  neighbors_.resize(w);
  ref_pos_.resize(r);
  cell_of_.resize(r);
  sort_bins(r);
}

void NeighborList::append(const SoA3& pos) {
  const std::size_t n_ref = ref_pos_.size(), n = pos.size();
  if (ghost_ && ghost_->size() < n)
    throw std::invalid_argument("NeighborList: pair-filter mask smaller than position array");
  const double rcut = prm_.rc + prm_.skin;
  const double rcut2 = rcut * rcut;
  // Each newcomer takes its current position as reference.
  ref_pos_.resize(n);
  cell_of_.resize(n);
  for (std::size_t t = n_ref; t < n; ++t) {
    const Vec3 p = pos[t];
    ref_pos_.set(t, p);
    cell_of_[t] = cell_index(p);
  }
  sort_bins(n_ref);

  // Newcomer t pairs with every binned j < t within rc + skin: in each
  // window cell, the slots from the cell's start to its fill cursor. Binning
  // t only afterwards finds each pair once, from its higher index. The test
  // writes every candidate and advances the pair count by the predicate, so
  // it takes no data-dependent branch.
  auto& pairs = pair_scratch_;
  std::size_t np = 0, candidates = 0;
  for (std::size_t t = n_ref; t < n; ++t) {
    const Vec3 p = ref_pos_[t];
    const auto tt = static_cast<std::uint32_t>(t);
    const bool t_ghost = ghost_ && (*ghost_)[t] != 0;
    for_each_window_cell(cell_of_[t], rcut, [&](std::size_t c) {
      const std::uint32_t lo = cell_start_[c], hi = cell_fill_[c];
      if (pairs.size() < np + (hi - lo)) pairs.resize(np + (hi - lo));
      candidates += hi - lo;
      for (std::uint32_t k = lo; k < hi; ++k) {
        const std::uint32_t j = slot_idx_[k];
        bool hit = min_image(ref_pos_[j], p).norm2() < rcut2;
        if (t_ghost) hit &= (*ghost_)[j] == 0;  // both-ghost pairs are dropped
        pairs[np] = {j, tt};
        np += hit;
      }
    });
    slot_idx_[cell_fill_[cell_of_[t]]++] = tt;
  }
  telemetry::count("dpd.nlist.candidates", static_cast<double>(candidates));

  // Stable counting merge by row: t ascends through `pairs` and exceeds
  // every index already listed, so each pair lands at the end of its row
  // and every run stays ascending. Rows shift right by the new pairs of the
  // rows in front of them. Walk them from the back: the rows down to the
  // next one that gains pairs share one shift and move as one block, and
  // the walk stops where nothing moves any more.
  auto& fill = row_fill_;
  fill.assign(n, 0);
  for (std::size_t q = 0; q < np; ++q) ++fill[pairs[q].first];
  std::size_t hi = neighbors_.size(), shift = np;
  neighbors_.resize(hi + shift);
  offsets_.resize(n + 1, hi);
  offsets_[n] = hi + shift;
  for (std::size_t i = n; shift > 0;) {
    const std::size_t top = --i;
    shift -= fill[top];
    fill[top] = hi + shift;  // the row's new pairs follow its old ones
    while (shift > 0 && i > 0 && fill[i - 1] == 0) --i;
    const std::size_t lo = offsets_[i];
    if (shift > 0) {
      std::copy_backward(neighbors_.begin() + static_cast<long>(lo),
                         neighbors_.begin() + static_cast<long>(hi),
                         neighbors_.begin() + static_cast<long>(hi + shift));
      for (std::size_t r = i; r <= top; ++r) offsets_[r] += shift;
    }
    hi = lo;
  }
  for (std::size_t q = 0; q < np; ++q) neighbors_[fill[pairs[q].first]++] = pairs[q].second;
}

void NeighborList::sort_bins(std::size_t n_binned) {
  std::fill(cell_start_.begin(), cell_start_.end(), 0u);
  for (const std::uint32_t c : cell_of_) ++cell_start_[c + 1];
  for (std::size_t c = 1; c < cell_start_.size(); ++c) cell_start_[c] += cell_start_[c - 1];
  cell_fill_.assign(cell_start_.begin(), cell_start_.end() - 1);
  slot_idx_.resize(cell_of_.size());
  for (std::size_t i = 0; i < n_binned; ++i)
    slot_idx_[cell_fill_[cell_of_[i]]++] = static_cast<std::uint32_t>(i);
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
  cell_start_.assign(static_cast<std::size_t>(ncx_) * ncy_ * ncz_ + 1, 0);
  cell_of_.clear();
  slot_idx_.clear();
  ref_pos_.clear();
  offsets_.assign(1, 0);
  neighbors_.clear();
  append(pos);
}

}  // namespace dpd
