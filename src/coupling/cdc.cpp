#include "coupling/cdc.hpp"

#include "resilience/blob.hpp"
#include "sem/ns3d.hpp"
#include "telemetry/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace coupling {

namespace {

// A degenerate extent collapses every particle onto a line or a plane of
// the continuum (divide-free but silently wrong); reject it up front.
void require_extent(const char* region, char axis, double lo, double hi) {
  if (!(hi > lo))
    throw std::invalid_argument(std::string("ContinuumDpdCoupler: degenerate ") + region +
                                ": need " + axis + "1 > " + axis + "0, got [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

/// 2D SEM patch: DPD x -> NS x, DPD z -> NS y, clamped into the mesh.
class Continuum2D final : public Continuum {
public:
  Continuum2D(sem::NavierStokes2D& ns, const EmbeddedRegion& region) : ns_(&ns), r_(region) {
    require_extent("EmbeddedRegion", 'x', r_.x0, r_.x1);
    require_extent("EmbeddedRegion", 'y', r_.y0, r_.y1);
  }
  std::size_t step() override { return ns_->step(); }
  void save_state(resilience::BlobWriter& w) const override { ns_->save_state(w); }
  void load_state(resilience::BlobReader& r) override { ns_->load_state(r); }

  dpd::Vec3 velocity_at(const dpd::Vec3& s) const override {
    const auto& d = ns_->disc();
    const auto& mesh = d.mesh();
    const double eps = 1e-9;
    const double x = std::clamp(r_.x0 + s.x * (r_.x1 - r_.x0), mesh.x0() + eps,
                                mesh.x0() + mesh.dx() * mesh.grid_nx() - eps);
    const double y = std::clamp(r_.y0 + s.z * (r_.y1 - r_.y0), mesh.y0() + eps,
                                mesh.y0() + mesh.dy() * mesh.grid_ny() - eps);
    const auto pb = d.point_basis(x, y);
    return {d.evaluate(ns_->u(), pb), 0.0, d.evaluate(ns_->v(), pb)};
  }

private:
  sem::NavierStokes2D* ns_;
  // analyze: no-checkpoint (constructor configuration)
  EmbeddedRegion r_;
};

/// 3D SEM patch: every axis maps directly, clamped into [0, L].
class Continuum3D final : public Continuum {
public:
  Continuum3D(sem::NavierStokes3D& ns, const EmbeddedBox& box) : ns_(&ns), b_(box) {
    require_extent("EmbeddedBox", 'x', b_.x0, b_.x1);
    require_extent("EmbeddedBox", 'y', b_.y0, b_.y1);
    require_extent("EmbeddedBox", 'z', b_.z0, b_.z1);
  }
  std::size_t step() override { return ns_->step(); }
  void save_state(resilience::BlobWriter& w) const override { ns_->save_state(w); }
  void load_state(resilience::BlobReader& r) override { ns_->load_state(r); }

  dpd::Vec3 velocity_at(const dpd::Vec3& s) const override {
    const auto& d = ns_->disc();
    const double eps = 1e-9;
    const auto pb = d.point_basis(std::clamp(b_.x0 + s.x * (b_.x1 - b_.x0), eps, d.Lx() - eps),
                                  std::clamp(b_.y0 + s.y * (b_.y1 - b_.y0), eps, d.Ly() - eps),
                                  std::clamp(b_.z0 + s.z * (b_.z1 - b_.z0), eps, d.Lz() - eps));
    return {d.evaluate(ns_->u(), pb), d.evaluate(ns_->v(), pb), d.evaluate(ns_->w(), pb)};
  }

private:
  sem::NavierStokes3D* ns_;
  // analyze: no-checkpoint (constructor configuration)
  EmbeddedBox b_;
};

}  // namespace

ContinuumDpdCoupler::ContinuumDpdCoupler(std::unique_ptr<Continuum> continuum,
                                         dpd::DpdSystem& dpd_sys, dpd::FlowBc& flow_bc,
                                         const ScaleMap& scales, const TimeProgression& tp)
    : continuum_(std::move(continuum)), dpd_(&dpd_sys), flow_bc_(&flow_bc), scales_(scales),
      tp_(tp) {
  scales_.validate();
}

ContinuumDpdCoupler::ContinuumDpdCoupler(sem::NavierStokes2D& ns, dpd::DpdSystem& dpd_sys,
                                         dpd::FlowBc& flow_bc, const EmbeddedRegion& region,
                                         const ScaleMap& scales, const TimeProgression& tp)
    : ContinuumDpdCoupler(std::make_unique<Continuum2D>(ns, region), dpd_sys, flow_bc, scales,
                          tp) {}

ContinuumDpdCoupler::ContinuumDpdCoupler(sem::NavierStokes3D& ns, dpd::DpdSystem& dpd_sys,
                                         dpd::FlowBc& flow_bc, const EmbeddedBox& box,
                                         const ScaleMap& scales, const TimeProgression& tp)
    : ContinuumDpdCoupler(std::make_unique<Continuum3D>(ns, box), dpd_sys, flow_bc, scales, tp) {}

dpd::Vec3 ContinuumDpdCoupler::continuum_velocity_at(const dpd::Vec3& p) const {
  const auto& box = dpd_->params().box;
  const dpd::Vec3 u = continuum_->velocity_at({p.x / box.x, p.y / box.y, p.z / box.z});
  return {scales_.velocity_ns_to_dpd(u.x), scales_.velocity_ns_to_dpd(u.y),
          scales_.velocity_ns_to_dpd(u.z)};
}

std::size_t ContinuumDpdCoupler::advance_interval(const std::function<void()>& per_dpd_step) {
  {
    // exchange: interpolate the continuum field onto the atomistic interface
    // (the FlowBc buffer and every registered Gamma_I window evaluate the
    // imposed velocity pointwise)
    telemetry::ScopedPhase phase("coupling.exchange");
    auto field = [this](const dpd::Vec3& p) { return continuum_velocity_at(p); };
    flow_bc_->set_target_velocity(field);
    if (buffers_) buffers_->set_shared_target(field);
    ++exchanges_;
  }

  // Fig. 5 time progression
  std::size_t cg_iters = 0;
  for (int s = 0; s < tp_.exchange_every_ns; ++s) {
    cg_iters += continuum_->step();
    for (int q = 0; q < tp_.dpd_per_ns; ++q) {
      dpd_->step();
      {
        telemetry::ScopedPhase phase("flowbc.apply");
        flow_bc_->apply(*dpd_);
      }
      if (buffers_) {
        telemetry::ScopedPhase phase("buffers.apply");
        buffers_->apply(*dpd_);
      }
      if (per_dpd_step) {
        telemetry::ScopedPhase phase("coupling.per_step");
        per_dpd_step();
      }
    }
  }
  return cg_iters;
}

double ContinuumDpdCoupler::interface_mismatch(dpd::FieldSampler& sampler) const {
  const auto snap = sampler.snapshot();
  double acc = 0.0;
  std::size_t cnt = 0;
  for (std::size_t b = 0; b < snap.size(); ++b) {
    const dpd::Vec3 c = sampler.bin_center(b);
    if (dpd_->geometry().sdf(c) < 1.0) continue;  // skip wall-contaminated bins
    acc += std::fabs(snap[b] - continuum_velocity_at(c).x);
    ++cnt;
  }
  return cnt ? acc / static_cast<double>(cnt) : 0.0;
}

void ContinuumDpdCoupler::save_state(resilience::BlobWriter& w) const {
  w.pod(static_cast<std::uint64_t>(exchanges_));
}

void ContinuumDpdCoupler::load_state(resilience::BlobReader& r) {
  exchanges_ = static_cast<std::size_t>(r.pod<std::uint64_t>());
}

}  // namespace coupling
