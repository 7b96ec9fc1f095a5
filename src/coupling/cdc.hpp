#pragma once
// Continuum-atomistic coupling (paper Sec. 3.3): an atomistic subdomain
// Omega_A (a DPD box) is embedded in a continuum patch Omega_C (an SEM
// Navier-Stokes solver). Every exchange period tau the continuum velocity
// is interpolated onto the atomistic interface samples, scaled by Eq. (1),
// and imposed on the DPD inflow buffer; the DPD solver then takes
// dpd_per_ns * exchange_every_ns steps per interval (Fig. 5 schedule).
//
// The schedule is written once, over the `Continuum` interface. A 2D patch
// maps DPD x <-> NS x and DPD z <-> NS y (DPD y is the out-of-plane,
// homogeneous, periodic direction); a 3D patch maps every axis directly and
// imposes the full velocity vector.

#include <functional>
#include <memory>

#include "coupling/scales.hpp"
#include "dpd/buffers.hpp"
#include "dpd/inflow.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "sem/ns2d.hpp"

namespace sem {
class NavierStokes3D;
}  // namespace sem

namespace coupling {

/// The continuum side of the coupling as the Fig. 5 schedule sees it.
class Continuum {
public:
  virtual ~Continuum() = default;
  /// One continuum time step; returns the CG iterations it spent.
  virtual std::size_t step() = 0;
  /// Continuum velocity, in continuum units and DPD axis order, at the DPD
  /// point whose coordinates are the fractions `frac` of the DPD box edges.
  virtual dpd::Vec3 velocity_at(const dpd::Vec3& frac) const = 0;
  /// The solver's checkpoint state (a driver digests and checkpoints either
  /// dimension through these).
  virtual void save_state(resilience::BlobWriter& w) const = 0;
  virtual void load_state(resilience::BlobReader& r) = 0;
};

struct EmbeddedRegion {
  /// NS-space rectangle covered by the DPD box.
  double x0 = 0.0, x1 = 1.0;  ///< NS x-range of the DPD box
  double y0 = 0.0, y1 = 1.0;  ///< NS y-range of the DPD box (maps to DPD z)
};

/// Continuum-space box covered by the DPD domain (3D patch).
struct EmbeddedBox {
  double x0 = 0, x1 = 1, y0 = 0, y1 = 1, z0 = 0, z1 = 1;
};

class ContinuumDpdCoupler {
public:
  /// `flow_bc` is the DPD inflow/outflow machinery whose target velocity the
  /// coupler refreshes each exchange. All objects must outlive the coupler.
  ContinuumDpdCoupler(std::unique_ptr<Continuum> continuum, dpd::DpdSystem& dpd_sys,
                      dpd::FlowBc& flow_bc, const ScaleMap& scales, const TimeProgression& tp);
  /// A 2D SEM patch. Throws std::invalid_argument on a degenerate region.
  ContinuumDpdCoupler(sem::NavierStokes2D& ns, dpd::DpdSystem& dpd_sys, dpd::FlowBc& flow_bc,
                      const EmbeddedRegion& region, const ScaleMap& scales,
                      const TimeProgression& tp);
  /// A 3D SEM patch. Throws std::invalid_argument on a degenerate box.
  ContinuumDpdCoupler(sem::NavierStokes3D& ns, dpd::DpdSystem& dpd_sys, dpd::FlowBc& flow_bc,
                      const EmbeddedBox& box, const ScaleMap& scales, const TimeProgression& tp);

  /// Register additional interface windows (the paper's Gamma_I1..5 planar
  /// surfaces): their shared target is refreshed at every exchange and they
  /// are applied each DPD step. Must outlive the coupler.
  void set_buffer_zones(dpd::BufferZones* zones) { buffers_ = zones; }

  /// One coupling interval (Fig. 5): refresh atomistic BCs from the
  /// continuum, then advance the continuum by exchange_every_ns steps and
  /// DPD by dpd_per_ns steps per continuum step. Optional per-DPD-step
  /// callback (platelet updates, sampling...). Returns the total continuum
  /// CG iterations spent (warm-start accounting for the ensemble engine).
  std::size_t advance_interval(const std::function<void()>& per_dpd_step = {});

  std::size_t exchanges() const { return exchanges_; }

  /// Checkpoint the coupling bookkeeping (interface exchange counter).
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

  /// Continuum velocity at a DPD point, in DPD units (the imposed-BC field).
  dpd::Vec3 continuum_velocity_at(const dpd::Vec3& p) const;

  /// Fig. 9 diagnostic: mean |u_DPD - u_NS| over the sampler's bins (both in
  /// DPD units), using a window of already-accumulated samples.
  double interface_mismatch(dpd::FieldSampler& sampler) const;

  Continuum& continuum() { return *continuum_; }
  dpd::DpdSystem& dpd_system() { return *dpd_; }

private:
  // analyze: no-checkpoint (coupled solvers checkpoint separately via the coordinator)
  std::unique_ptr<Continuum> continuum_;
  // analyze: no-checkpoint (coupled solvers checkpoint separately via the coordinator)
  dpd::DpdSystem* dpd_;
  // analyze: no-checkpoint (coupled solvers checkpoint separately via the coordinator)
  dpd::FlowBc* flow_bc_;
  // analyze: no-checkpoint (owned by the driver; checkpointed separately if registered)
  dpd::BufferZones* buffers_ = nullptr;
  // analyze: no-checkpoint (constructor configuration)
  ScaleMap scales_;
  // analyze: no-checkpoint (constructor configuration)
  TimeProgression tp_;
  std::size_t exchanges_ = 0;
};

}  // namespace coupling
