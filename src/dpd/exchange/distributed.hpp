#pragma once
// DistributedDpd — the domain-decomposition driver tying a per-rank
// DpdSystem to the exchange machinery (the ExchangeHook installed into the
// engine's step loop). Protocol per force evaluation:
//
//   refresh():  allreduce the max owned displacement since the last rebuild;
//               below skin/2 the halo fast path ships packed pos/vel lanes
//               for the planned boundary slots, above it ownership migrates
//               (MigrationExchanger), the halo is rebuilt from whole records
//               (HaloExchanger::build) and the local arrays are re-laid out
//               sorted by gid.
//
// Equivalence guarantee (the tentpole gate, pinned in
// tests/dpd_exchange_test.cpp and docs/PERF.md): every cross-boundary pair
// is computed on both ranks (compute-twice, ghost rows discarded), local
// arrays are kept sorted by gid with a complete rc+skin halo, and the
// engine's canonical CSR pair order plus gid-keyed pair RNG then reproduce
// the single-rank per-particle floating-point accumulation order exactly —
// N-rank trajectories are bitwise equal to the single-rank run, independent
// of rebuild cadence.

#include <cstdint>
#include <vector>

#include "dpd/exchange/decomposition.hpp"
#include "dpd/exchange/exchangers.hpp"
#include "dpd/platelets.hpp"
#include "dpd/system.hpp"
#include "xmp/comm.hpp"

namespace dpd::exchange {

struct DistOptions {
  GridDims dims{};  ///< process grid; default (count()==0) auto-factors
  /// Ghost shell thickness; 0 means rc + skin (the pair-completeness
  /// minimum). Raise to max module cutoff + skin when a force module
  /// (platelet adhesion, long bonds) reaches beyond rc.
  double halo_width = 0.0;
};

/// Bitwise trajectory digest (FNV-1a over gid-sorted owned gid/pos/vel) of
/// one system — the single-rank side of the equivalence gate.
std::uint64_t trajectory_digest(const DpdSystem& sys);

class DistributedDpd final : public ExchangeHook {
public:
  /// Installs itself as the system's exchange hook and enables the ghost
  /// pair filter. The system must outlive this driver.
  DistributedDpd(const xmp::Comm& comm, DpdSystem& sys, DistOptions opt = {});
  ~DistributedDpd() override;

  /// Partition a *replicated* initial population: every rank must hold the
  /// identical full particle set (same deterministic setup code); each
  /// keeps what falls inside its subdomain and builds the first halo.
  /// Collective; call once before stepping.
  void distribute();

  void refresh(DpdSystem& sys) override;

  const Decomposition& decomposition() const { return decomp_; }
  const DistOptions& options() const { return opt_; }

  /// All owned records of the run, gathered to `root` and sorted by gid
  /// (empty on other ranks). Collective.
  std::vector<ParticleRecord> gather(int root = 0) const;
  /// trajectory_digest of the whole distributed population — equal on every
  /// rank, and equal to the single-rank digest. Collective.
  std::uint64_t global_digest() const;

  // --- collective diagnostics over owned particles ---
  double kinetic_temperature() const;
  Vec3 total_momentum() const;
  std::int64_t global_count() const;

  /// Replicate owner-decided platelet state transitions to every rank's
  /// slot table (call right after model.update(sys)); freezes local copies
  /// of Bound platelets. Collective.
  void sync_platelets(PlateletModel& model);

  /// Checkpoint the driver: process grid + halo width (validated on load)
  /// and the distributed flag. Plans and displacement references are not
  /// stored, so load forces a full rebuild at the next refresh, which is
  /// trajectory-neutral (see docs/PERF.md). The per-rank particle state
  /// lives in DpdSystem::save_state.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  void full_rebuild(DpdSystem& sys);
  void capture_ref(const DpdSystem& sys);
  std::vector<ParticleRecord> owned_records(const DpdSystem& sys) const;

  // analyze: no-checkpoint (rank-affine communicator handle, re-supplied on restart)
  xmp::Comm comm_;
  // analyze: no-checkpoint (borrowed engine; checkpoints separately)
  DpdSystem& sys_;
  DistOptions opt_;  ///< layout + halo width; serialised for restart validation
  // analyze: no-checkpoint (fixed geometry derived from opt_, which is serialised)
  Decomposition decomp_;
  // analyze: no-checkpoint (stateless protocol object)
  MigrationExchanger migrate_;
  // analyze: no-checkpoint (plans rebuilt by the forced post-load rebuild)
  HaloExchanger halo_;
  bool distributed_ = false;  ///< serialised: has distribute()/load run?
  // analyze: no-checkpoint (load_state forces the rebuild that repopulates it)
  bool rebuild_pending_ = false;
  // analyze: no-checkpoint (displacement reference, recaptured at every rebuild)
  std::vector<Vec3> ref_pos_;
};

}  // namespace dpd::exchange
