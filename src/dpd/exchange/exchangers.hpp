#pragma once
// The three exchangers of the decomposition driver (Mirheo-style
// exchanger/packer split, ROADMAP item 2):
//
//   MigrationExchanger — transfers *ownership*: after a rebuild trigger,
//     records whose position left the subdomain travel to the neighbour
//     rank that now contains them.
//   HaloExchanger — builds and refreshes *ghosts*: owned particles within
//     halo_width of a neighbour subdomain are replicated there. A full
//     build() ships whole ParticleRecords and plans the index lists; the
//     per-force-pass update() then ships only packed pos/vel lanes for the
//     planned slots.
//
// All traffic is tagged point-to-point between decomposition neighbours
// (kTag*), counted in telemetry (dpd.halo.particles / dpd.halo.bytes /
// dpd.migrate.count) and classifiable in a CommMatrix via comm_tag_classes().

#include <cstdint>
#include <vector>

#include "dpd/exchange/decomposition.hpp"
#include "dpd/system.hpp"
#include "telemetry/comm_matrix.hpp"
#include "xmp/comm.hpp"

namespace dpd::exchange {

inline constexpr int kTagMigrate = 7101;
inline constexpr int kTagHaloBuild = 7102;
inline constexpr int kTagHaloUpdate = 7103;

/// Tag classes attributing exchange traffic in a telemetry::CommMatrix.
telemetry::TagClasses comm_tag_classes();

class MigrationExchanger {
public:
  MigrationExchanger(const xmp::Comm& comm, const Decomposition& decomp)
      : comm_(comm), decomp_(&decomp) {}

  /// Re-home `owned` by current position: records leaving this rank's
  /// subdomain are sent to their new owner, arrivals merged in; returns the
  /// post-migration owned set sorted by gid. Collective over the neighbour
  /// set. Throws when a particle skipped past the neighbour shell (moved
  /// further than halo_width since the last rebuild — the decomposition is
  /// too fine for the timestep).
  std::vector<ParticleRecord> exchange(std::vector<ParticleRecord> owned) const;

private:
  xmp::Comm comm_;
  const Decomposition* decomp_;
};

class HaloExchanger {
public:
  HaloExchanger(const xmp::Comm& comm, const Decomposition& decomp)
      : comm_(comm), decomp_(&decomp) {}

  /// Full halo rebuild from the gid-sorted owned set: ships copies of
  /// boundary particles to every neighbour whose subdomain they are within
  /// halo_width of, returns owned + received ghosts sorted by gid, and
  /// records the send/recv slot plans that update() replays.
  std::vector<ParticleRecord> build(const std::vector<ParticleRecord>& owned);

  /// Fast path between rebuilds: ship current pos/vel of the planned
  /// boundary slots, scatter into the planned ghost slots. The system's
  /// local layout must be unchanged since the last build().
  void update(DpdSystem& sys);

  /// Ghost slots per neighbour rank, in plan order (tests/diagnostics).
  const std::vector<std::vector<std::uint32_t>>& recv_plan() const { return recv_; }
  const std::vector<std::vector<std::uint32_t>>& send_plan() const { return send_; }

private:
  xmp::Comm comm_;
  const Decomposition* decomp_;
  // Per neighbour (parallel to decomp_->neighbors(rank)): local slots whose
  // pos/vel we ship there / local ghost slots filled from there.
  std::vector<std::vector<std::uint32_t>> send_, recv_;
  // hoisted per-call scratch: the fast path runs every force pass and must
  // not allocate once the plans have warmed these up
  std::vector<double> pack_buf_, recv_buf_;
};

}  // namespace dpd::exchange
