#pragma once
// Three-dimensional spectral-element core on structured hexahedral meshes:
// the dimensionality NEKTAR-3D actually runs at. Provides the continuous-
// Galerkin discretization, matrix-free tensor-product operators, and the
// Helmholtz/Poisson solver; per-element operator cost is O(P^4) via sum
// factorisation, the same kernel structure whose SIMDization Table 1
// measures. (The unsteady Navier-Stokes splitting is validated in 2D in
// ns2d.hpp; all its building blocks are provided here in 3D.)

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "la/cg.hpp"
#include "la/dense.hpp"
#include "la/vector.hpp"
#include "sem/gll.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace sem {

/// Boundary tags of the box domain's six faces.
enum class HexFace : int { X0 = 0, X1 = 1, Y0 = 2, Y1 = 3, Z0 = 4, Z1 = 5 };

/// Uniform box mesh [0,Lx] x [0,Ly] x [0,Lz] with nx x ny x nz hexahedra
/// and a continuous-Galerkin GLL discretization of order P.
class Discretization3D {
public:
  Discretization3D(double Lx, double Ly, double Lz, std::size_t nx, std::size_t ny,
                   std::size_t nz, int order);

  int order() const { return P_; }
  const GllRule& rule() const { return rule_; }
  const la::DenseMatrix& diff_matrix() const { return D_; }

  std::size_t num_nodes() const { return ncoords_; }
  std::size_t num_elements() const { return nx_ * ny_ * nz_; }
  std::size_t nodes_per_element() const {
    const auto n1 = static_cast<std::size_t>(P_ + 1);
    return n1 * n1 * n1;
  }

  double Lx() const { return Lx_; }
  double Ly() const { return Ly_; }
  double Lz() const { return Lz_; }
  double dx() const { return Lx_ / static_cast<double>(nx_); }
  double dy() const { return Ly_ / static_cast<double>(ny_); }
  double dz() const { return Lz_ / static_cast<double>(nz_); }
  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }

  /// Global node id of element e's local node (a, b, c). O(1) lookup in the
  /// precomputed element->global table (built once at construction; the
  /// arithmetic lattice addressing only runs at build time).
  std::size_t global_node(std::size_t e, int a, int b, int c) const {
    return elem_map_[e * nodes_per_element() +
                     (static_cast<std::size_t>(c) * (static_cast<std::size_t>(P_) + 1) +
                      static_cast<std::size_t>(b)) *
                         (static_cast<std::size_t>(P_) + 1) +
                     static_cast<std::size_t>(a)];
  }

  /// Element e's slice of the gather/scatter table: nodes_per_element()
  /// global ids in (c, b, a) order, `a` fastest. The operator fast paths
  /// stream through this instead of re-deriving lattice indices.
  const std::size_t* elem_map(std::size_t e) const {
    return elem_map_.data() + e * nodes_per_element();
  }

  double node_x(std::size_t g) const;
  double node_y(std::size_t g) const;
  double node_z(std::size_t g) const;

  /// Nodes on one of the six box faces (sorted, deduplicated).
  const std::vector<std::size_t>& face_nodes(HexFace f) const {
    return faces_[static_cast<std::size_t>(f)];
  }

  /// A located point: its element and the 1D Lagrange bases at its
  /// reference coordinates, built once for any number of fields.
  struct PointBasis {
    std::size_t e = 0;
    std::array<double, kMaxGllPoints> lx, ly, lz;
  };
  /// Throws if (x, y, z) is outside the box.
  PointBasis point_basis(double x, double y, double z) const;

  /// Tensor-product Lagrange interpolation of a field in the located element.
  double evaluate(const la::Vector& field, const PointBasis& pb) const;
  /// Tensor-product Lagrange evaluation of a nodal field at (x, y, z).
  double evaluate(const la::Vector& field, double x, double y, double z) const {
    return evaluate(field, point_basis(x, y, z));
  }

  void gather(const la::Vector& field, std::size_t e, double* local) const;
  void scatter_add(const double* local, std::size_t e, la::Vector& field) const;

private:
  std::size_t lattice_id(std::size_t li, std::size_t lj, std::size_t lk) const;
  std::size_t lattice_node(std::size_t e, int a, int b, int c) const;

  double Lx_, Ly_, Lz_;
  std::size_t nx_, ny_, nz_;
  int P_;
  GllRule rule_;
  la::DenseMatrix D_;
  std::size_t ncoords_ = 0;
  std::size_t lat_nx_ = 0, lat_ny_ = 0, lat_nz_ = 0;
  std::array<std::vector<std::size_t>, 6> faces_;
  std::vector<std::size_t> elem_map_;  // e * npe + local -> global (a fastest)
};

/// Matrix-free 3D operators (sum-factorised tensor kernels).
///
/// The apply paths run on the batched `la::simd` line kernels with
/// per-instance scratch buffers (no allocation and no index arithmetic per
/// apply); the pre-fast-path implementations are retained as `_reference`
/// for benchmarking and equivalence tests (bench/extra_sem3d_kernel,
/// tests/sem3d_test). Scratch makes applies non-reentrant: one Operators3D
/// instance must not be applied from two threads at once (each xmp rank
/// owns its solvers, so this never happens in-tree).
class Operators3D {
public:
  explicit Operators3D(const Discretization3D& d);

  const Discretization3D& disc() const { return *d_; }
  const la::Vector& mass_diag() const { return mass_; }

  void apply_stiffness(const la::Vector& u, la::Vector& y) const;
  /// y = lambda M u + nu K u in a single gather/kernel/scatter sweep: the
  /// diagonal mass term is folded into the element pass (the per-element
  /// lumped masses sum to the assembled diagonal).
  void apply_helmholtz(double lambda, double nu, const la::Vector& u, la::Vector& y) const;
  la::Vector helmholtz_diag(double lambda, double nu) const;

  /// Galerkin coarse operator Phi^T (lambda M + nu K) Phi on the trilinear
  /// hats of the (nx+1)(ny+1)(nz+1) element-vertex grid, vertex (I, J, K)
  /// at index (K (ny+1) + J) (nx+1) + I. Assembled from element products:
  /// the element kernel applied to the 8 local hats gives the 8x8 element
  /// matrix (the same for every element of the uniform box), which is
  /// summed into the vertex grid. Set-up only.
  la::DenseMatrix coarse_vertex_matrix(double lambda, double nu) const;

  /// Nodal derivatives, mass-averaged at shared nodes (as in 2D).
  void gradient(const la::Vector& u, la::Vector& ddx, la::Vector& ddy, la::Vector& ddz) const;
  void divergence(const la::Vector& u, const la::Vector& v, const la::Vector& w,
                  la::Vector& div) const;
  /// conv_q = (u.grad) q for each velocity component q in {u, v, w}.
  void convection(const la::Vector& u, const la::Vector& v, const la::Vector& w,
                  la::Vector& cu, la::Vector& cv, la::Vector& cw) const;

  double integral(const la::Vector& u) const;

  /// Pre-fast-path baselines (scalar strided y/z lines, per-call scratch):
  /// kept for bench/extra_sem3d_kernel and the equivalence suites.
  void apply_stiffness_reference(const la::Vector& u, la::Vector& y) const;
  void apply_helmholtz_reference(double lambda, double nu, const la::Vector& u,
                                 la::Vector& y) const;
  void gradient_reference(const la::Vector& u, la::Vector& ddx, la::Vector& ddy,
                          la::Vector& ddz) const;

private:
  void elem_stiffness(const double* u, double* y) const;
  void elem_helmholtz(double lambda, double nu, const double* u, double* y) const;
  void elem_derivs(const double* u, double* dx, double* dy, double* dz) const;
  void elem_stiffness_reference(const double* u, double* y) const;
  void elem_derivs_reference(const double* u, double* dx, double* dy, double* dz) const;

  const Discretization3D* d_;
  la::Vector mass_;
  la::Vector stiff_diag_;
  la::DenseMatrix G_;        // D^T diag(w) D
  la::DenseMatrix GT_, DT_;  // transposes for the along-line (x) kernels
  std::vector<double> ww_;     // w[j]*w[i] outer product, i fastest
  std::vector<double> lmass_;  // per-element lumped mass jac*wa*wb*wc
  // element scratch, hoisted out of the apply loops (see class comment)
  mutable std::vector<double> lu_, ly_, ldx_, ldy_, ldz_;
  // global-field scratch for divergence/convection
  mutable la::Vector gx_, gy_, gz_;
  double jac_;
  double rx_, ry_, rz_;
};

/// Helmholtz/Poisson boundary-value solver in 3D (Dirichlet on selected box
/// faces, natural elsewhere; pure-Neumann mean pinning as in 2D).
///
/// The Poisson operator (lambda = 0, the pressure solve) is preconditioned
/// by two additive levels, z = D^-1 r + Phi A_c^-1 Phi^T r: the Jacobi
/// diagonal D, plus an exact solve on the trilinear element-vertex space
/// Phi with the Galerkin matrix A_c = Phi^T A Phi (Cholesky-factored once).
/// Vertices on Dirichlet faces are dropped, so every kept hat vanishes on
/// the Dirichlet nodes and Phi needs no mask; with no Dirichlet face one
/// vertex is pinned so A_c stays SPD.
/// The coarse level removes Jacobi-PCG's growth with the element count.
/// lambda > 0 (the viscous solves) keeps plain Jacobi: the mass term
/// already bounds the condition number, and the coarse term costs more
/// than the iterations it saves. A vertex grid past 2048 vertices keeps
/// Jacobi too: the dense A_c would cost more to build than it saves. The
/// choice depends only on the operator and the mesh, with no option.
class HelmholtzSolver3D {
public:
  HelmholtzSolver3D(const Operators3D& ops, double lambda, double nu,
                    std::vector<HexFace> dirichlet_faces);

  la::CgResult solve(const la::Vector& f,
                     const std::function<double(double, double, double)>& g, la::Vector& u);

  /// Variant with explicit per-node Dirichlet values aligned with
  /// dirichlet_nodes() (the NS solver's per-step BC path).
  la::CgResult solve_with_values(const la::Vector& f, const la::Vector& bc_values,
                                 la::Vector& u);

  const std::vector<std::size_t>& dirichlet_nodes() const { return dnodes_; }
  bool pure_neumann() const { return dnodes_.empty(); }
  la::CgOptions& options() { return opt_; }

  /// Checkpoint the warm-start projector (the solver's only mutable state).
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  void build_coarse_space();
  /// z = D^-1 r + Phi A_c^-1 Phi^T r, in the member scratch below (only
  /// installed when coarse_dofs_ is non-empty).
  void apply_two_level(const double* r, double* z);

  // analyze: no-checkpoint (constructor configuration, re-supplied by the driver)
  const Operators3D* ops_;
  // analyze: no-checkpoint (constructor configuration: operator coefficients)
  double lambda_, nu_;
  // analyze: no-checkpoint (derived from the BC tags in the constructor)
  std::vector<std::size_t> dnodes_;
  // analyze: no-checkpoint (derived from dnodes_ in the constructor)
  std::vector<char> is_dirichlet_;
  // analyze: no-checkpoint (preconditioner table, precomputed from ops_)
  la::Vector precond_diag_;
  // analyze: no-checkpoint (coarse-space tables, derived from the mesh in the constructor)
  std::array<std::size_t, 3> lat_n_{}, vert_n_{};
  // analyze: no-checkpoint (per lattice plane: the vertex plane to its left, from the mesh)
  std::array<std::vector<std::size_t>, 3> plane_vertex_;
  // analyze: no-checkpoint (per lattice plane: the right hat's value there, from the mesh)
  std::array<std::vector<double>, 3> plane_weight_;
  // analyze: no-checkpoint (kept coarse vertices, from the BC tags; empty = Jacobi only)
  std::vector<std::size_t> coarse_dofs_;
  // analyze: no-checkpoint (Cholesky factor of A_c, precomputed from ops_)
  la::DenseMatrix coarse_chol_;
  // analyze: no-checkpoint (transfer and coarse-solve scratch, overwritten every apply)
  la::Vector stage_a_, stage_b_, vert_, coarse_rhs_, coarse_sol_, fine_;
  la::SolutionProjector projector_;
  // analyze: no-checkpoint (solver tolerances are configuration)
  la::CgOptions opt_;
};

}  // namespace sem
