#pragma once
// 3D-continuum <-> DPD coupling, the paper's actual configuration (a 3D
// NEKTAR patch with an embedded DPD subdomain), is the one
// ContinuumDpdCoupler of cdc.hpp built from a NavierStokes3D and an
// EmbeddedBox. This header keeps the 3D name for existing callers.

#include "coupling/cdc.hpp"
#include "sem/ns3d.hpp"

namespace coupling {

using ContinuumDpdCoupler3D = ContinuumDpdCoupler;

}  // namespace coupling
