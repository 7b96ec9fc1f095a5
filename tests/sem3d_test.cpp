// Tests for the 3D spectral-element core: discretization continuity,
// operator identities, manufactured Helmholtz solutions, and spectral
// convergence in the order.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "sem/hex3d.hpp"

namespace {

TEST(Disc3d, NodeCountAndSharing) {
  sem::Discretization3D d(2.0, 1.0, 1.0, 2, 1, 1, 3);
  // lattice (2*3+1)(3+1)(3+1)
  EXPECT_EQ(d.num_nodes(), 7u * 4u * 4u);
  // shared face between elements 0 and 1
  for (int b = 0; b <= 3; ++b)
    for (int c = 0; c <= 3; ++c)
      EXPECT_EQ(d.global_node(0, 3, b, c), d.global_node(1, 0, b, c));
}

TEST(Disc3d, NodeCoordinatesConsistent) {
  sem::Discretization3D d(2.0, 3.0, 4.0, 2, 3, 2, 4);
  // corner nodes
  const std::size_t g0 = d.global_node(0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(d.node_x(g0), 0.0);
  EXPECT_DOUBLE_EQ(d.node_y(g0), 0.0);
  EXPECT_DOUBLE_EQ(d.node_z(g0), 0.0);
  const std::size_t e_last = d.num_elements() - 1;
  const std::size_t g1 = d.global_node(e_last, 4, 4, 4);
  EXPECT_NEAR(d.node_x(g1), 2.0, 1e-13);
  EXPECT_NEAR(d.node_y(g1), 3.0, 1e-13);
  EXPECT_NEAR(d.node_z(g1), 4.0, 1e-13);
}

TEST(Disc3d, FaceNodeCounts) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 2);
  // each face is a (2*2+1)^2 lattice
  for (int f = 0; f < 6; ++f)
    EXPECT_EQ(d.face_nodes(static_cast<sem::HexFace>(f)).size(), 25u);
}

TEST(Disc3d, EvaluateReproducesSmoothField) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 5);
  la::Vector f(d.num_nodes());
  auto fn = [](double x, double y, double z) {
    return std::sin(2 * x) * std::cos(y) * std::exp(0.5 * z);
  };
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = fn(d.node_x(g), d.node_y(g), d.node_z(g));
  for (double x : {0.13, 0.5, 0.94})
    for (double y : {0.21, 0.77})
      for (double z : {0.05, 0.63})
        EXPECT_NEAR(d.evaluate(f, x, y, z), fn(x, y, z), 2e-5);
}

TEST(Disc3d, PointBasisKeepsTheLagrangeContractionBitwise) {
  // A located point's bases serve every field and sum in the order of the
  // per-call lagrange_basis_at contraction below, on which the coupled-run
  // digests depend. Points on element faces and box corners included.
  sem::Discretization3D d(1.0, 2.0, 1.0, 2, 3, 2, 5);
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::sin(3.0 * d.node_x(g) + d.node_y(g)) * std::exp(d.node_z(g));
  const int P = d.order();
  auto ref = [](double v, double h, std::size_t idx) {
    return std::clamp(2.0 * (v - static_cast<double>(idx) * h) / h - 1.0, -1.0, 1.0);
  };
  std::vector<std::array<double, 3>> points = {{0.5, 1.0, 0.5}, {1.0, 2.0, 1.0}, {0.0, 0.0, 0.0}};
  for (int q = 1; q <= 40; ++q)  // interior points spread over every element
    points.push_back({std::fmod(0.37 * q, 1.0), std::fmod(0.83 * q, 2.0), std::fmod(0.59 * q, 1.0)});
  for (const auto& p : points) {
    const auto pb = d.point_basis(p[0], p[1], p[2]);
    const std::size_t i = pb.e % 2, j = (pb.e / 2) % 3, k = pb.e / 6;
    const la::Vector lx = sem::lagrange_basis_at(d.rule(), ref(p[0], d.dx(), i));
    const la::Vector ly = sem::lagrange_basis_at(d.rule(), ref(p[1], d.dy(), j));
    const la::Vector lz = sem::lagrange_basis_at(d.rule(), ref(p[2], d.dz(), k));
    double s = 0.0;
    for (int c = 0; c <= P; ++c) {
      double sc = 0.0;
      for (int b = 0; b <= P; ++b) {
        double sb = 0.0;
        for (int a = 0; a <= P; ++a)
          sb += lx[static_cast<std::size_t>(a)] * f[d.global_node(pb.e, a, b, c)];
        sc += ly[static_cast<std::size_t>(b)] * sb;
      }
      s += lz[static_cast<std::size_t>(c)] * sc;
    }
    EXPECT_EQ(d.evaluate(f, pb), s);
    EXPECT_EQ(d.evaluate(f, p[0], p[1], p[2]), s);
  }
  // fixed scratch bounds the order
  EXPECT_NO_THROW(sem::Discretization3D(1.0, 1.0, 1.0, 1, 1, 1, sem::kMaxGllPoints - 1));
  EXPECT_THROW(sem::Discretization3D(1.0, 1.0, 1.0, 1, 1, 1, sem::kMaxGllPoints),
               std::invalid_argument);
}

TEST(Ops3d, MassSumsToVolume) {
  sem::Discretization3D d(2.0, 1.5, 1.0, 3, 2, 2, 4);
  sem::Operators3D ops(d);
  la::Vector ones(d.num_nodes(), 1.0);
  EXPECT_NEAR(ops.integral(ones), 3.0, 1e-11);
}

TEST(Ops3d, StiffnessAnnihilatesConstantsAndIsSymmetric) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 3);
  sem::Operators3D ops(d);
  const std::size_t n = d.num_nodes();
  la::Vector ones(n, 1.0), y;
  ops.apply_stiffness(ones, y);
  for (std::size_t g = 0; g < n; ++g) EXPECT_NEAR(y[g], 0.0, 1e-10);

  la::Vector x(n), z(n), Kx, Kz;
  for (std::size_t g = 0; g < n; ++g) {
    x[g] = std::sin(1.0 + 2.0 * static_cast<double>(g));
    z[g] = std::cos(0.5 * static_cast<double>(g));
  }
  ops.apply_stiffness(x, Kx);
  ops.apply_stiffness(z, Kz);
  double xKz = 0.0, zKx = 0.0;
  for (std::size_t g = 0; g < n; ++g) {
    xKz += x[g] * Kz[g];
    zKx += z[g] * Kx[g];
  }
  EXPECT_NEAR(xKz, zKx, 1e-9 * (1.0 + std::fabs(xKz)));
}

TEST(Helmholtz3d, ManufacturedDirichletSolution) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 6);
  sem::Operators3D ops(d);
  const double lambda = 1.5, nu = 0.7;
  sem::HelmholtzSolver3D hs(ops, lambda, nu,
                            {sem::HexFace::X0, sem::HexFace::X1, sem::HexFace::Y0,
                             sem::HexFace::Y1, sem::HexFace::Z0, sem::HexFace::Z1});
  hs.options().rtol = 1e-12;
  auto exact = [](double x, double y, double z) {
    return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
  };
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = (lambda + 3.0 * nu * M_PI * M_PI) *
           exact(d.node_x(g), d.node_y(g), d.node_z(g));
  la::Vector u;
  auto res = hs.solve(f, [&](double x, double y, double z) { return exact(x, y, z); }, u);
  EXPECT_TRUE(res.converged);
  double err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    err = std::max(err, std::fabs(u[g] - exact(d.node_x(g), d.node_y(g), d.node_z(g))));
  EXPECT_LT(err, 5e-5);
}

TEST(Helmholtz3d, PureNeumannPoisson) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 6);
  sem::Operators3D ops(d);
  sem::HelmholtzSolver3D hs(ops, 0.0, 1.0, {});
  hs.options().rtol = 1e-12;
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::cos(M_PI * d.node_x(g));
  la::Vector u;
  auto res = hs.solve(f, [](double, double, double) { return 0.0; }, u);
  EXPECT_TRUE(res.converged);
  double err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    const double exact = std::cos(M_PI * d.node_x(g)) / (M_PI * M_PI);
    err = std::max(err, std::fabs(u[g] - exact));
  }
  EXPECT_LT(err, 5e-5);
  EXPECT_NEAR(ops.integral(u), 0.0, 1e-9);
}

class Sem3dOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(Sem3dOrderSweep, SpectralConvergence) {
  auto err_at = [](int P) {
    sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, P);
    sem::Operators3D ops(d);
    sem::HelmholtzSolver3D hs(ops, 1.0, 1.0,
                              {sem::HexFace::X0, sem::HexFace::X1, sem::HexFace::Y0,
                               sem::HexFace::Y1, sem::HexFace::Z0, sem::HexFace::Z1});
    hs.options().rtol = 1e-13;
    auto exact = [](double x, double y, double z) {
      return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
    };
    la::Vector f(d.num_nodes());
    for (std::size_t g = 0; g < d.num_nodes(); ++g)
      f[g] = (1.0 + 3.0 * M_PI * M_PI) * exact(d.node_x(g), d.node_y(g), d.node_z(g));
    la::Vector u;
    hs.solve(f, [&](double x, double y, double z) { return exact(x, y, z); }, u);
    double e = 0.0;
    for (std::size_t g = 0; g < d.num_nodes(); ++g)
      e = std::max(e, std::fabs(u[g] - exact(d.node_x(g), d.node_y(g), d.node_z(g))));
    return e;
  };
  const int P = GetParam();
  const double eP = err_at(P), eP2 = err_at(P + 2);
  if (eP > 1e-9) {
    EXPECT_LT(eP2, 0.25 * eP) << "P=" << P;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, Sem3dOrderSweep, ::testing::Values(2, 3, 4));

// --- two-level pressure preconditioner ------------------------------------

// The system HelmholtzSolver3D::solve builds for zero Dirichlet data, solved
// by a plain Jacobi cg_solve: the same masked operator, right-hand side and
// (for pure-Neumann Poisson) mean shift, with a zero initial guess.
struct JacobiSolve {
  la::Vector u;
  std::size_t iterations = 0;
};

JacobiSolve jacobi_cg(const sem::Operators3D& ops, double lambda, double nu,
                      const std::vector<sem::HexFace>& faces, const la::Vector& f,
                      double rtol) {
  const auto& d = ops.disc();
  const std::size_t n = d.num_nodes();
  std::vector<char> dir(n, 0);
  for (sem::HexFace fc : faces)
    for (std::size_t g : d.face_nodes(fc)) dir[g] = 1;
  la::Vector tmp_in(n), tmp_out(n);
  la::LinearOperator op = [&](const double* x, double* y) {
    for (std::size_t g = 0; g < n; ++g) tmp_in[g] = dir[g] ? 0.0 : x[g];
    ops.apply_helmholtz(lambda, nu, tmp_in, tmp_out);
    for (std::size_t g = 0; g < n; ++g) y[g] = dir[g] ? x[g] : tmp_out[g];
  };
  const auto& M = ops.mass_diag();
  la::Vector b(n);
  for (std::size_t g = 0; g < n; ++g) b[g] = dir[g] ? 0.0 : M[g] * f[g];
  if (faces.empty() && lambda == 0.0) {
    double sb = 0.0, sm = 0.0;
    for (std::size_t g = 0; g < n; ++g) {
      sb += b[g];
      sm += M[g];
    }
    for (std::size_t g = 0; g < n; ++g) b[g] -= M[g] * (sb / sm);
  }
  la::Vector diag = ops.helmholtz_diag(lambda, nu);
  for (std::size_t g = 0; g < n; ++g)
    if (dir[g]) diag[g] = 1.0;
  JacobiSolve out;
  out.u = la::Vector(n, 0.0);
  la::CgOptions opt;
  opt.rtol = rtol;
  const auto res = la::cg_solve(op, b, out.u, la::jacobi_preconditioner(diag), opt);
  EXPECT_TRUE(res.converged);
  out.iterations = res.iterations;
  return out;
}

la::Vector pressure_like_rhs(const sem::Discretization3D& d) {
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    const double x = d.node_x(g) / d.Lx(), y = d.node_y(g) / d.Ly(), z = d.node_z(g) / d.Lz();
    f[g] = std::cos(M_PI * x) * std::cos(2.0 * M_PI * y) + std::sin(3.0 * M_PI * z) * x +
           0.5 * std::cos(M_PI * y) * std::cos(M_PI * z);
  }
  return f;
}

double rel_diff(const la::Vector& a, const la::Vector& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t g = 0; g < a.size(); ++g) {
    num += (a[g] - b[g]) * (a[g] - b[g]);
    den += b[g] * b[g];
  }
  return std::sqrt(num / den);
}

std::size_t two_level_iterations(std::size_t nx, std::size_t ny, std::size_t nz, int P) {
  sem::Discretization3D d(4.0, 1.0, 1.0, nx, ny, nz, P);
  sem::Operators3D ops(d);
  sem::HelmholtzSolver3D hs(ops, 0.0, 1.0, {sem::HexFace::X1});
  const la::Vector f = pressure_like_rhs(d);
  la::Vector u;
  const auto res = hs.solve(f, [](double, double, double) { return 0.0; }, u);
  EXPECT_TRUE(res.converged);
  return res.iterations;
}

TEST(Helmholtz3dTwoLevel, HalvesPressureIterationsOnTheCoupled3dMesh) {
  // coupled3d_sem's pressure system: 4 x 1 x 1 box, 8 x 2 x 4 elements,
  // P = 5, p = 0 on X1, no warm-start history (a fresh solver's first solve)
  sem::Discretization3D d(4.0, 1.0, 1.0, 8, 2, 4, 5);
  sem::Operators3D ops(d);
  const std::vector<sem::HexFace> faces = {sem::HexFace::X1};
  sem::HelmholtzSolver3D hs(ops, 0.0, 1.0, faces);
  hs.options().rtol = 1e-12;
  const la::Vector f = pressure_like_rhs(d);
  la::Vector u;
  const auto res = hs.solve(f, [](double, double, double) { return 0.0; }, u);
  ASSERT_TRUE(res.converged);
  const auto ref = jacobi_cg(ops, 0.0, 1.0, faces, f, 1e-12);
  EXPECT_LE(2 * res.iterations, ref.iterations)
      << "two-level " << res.iterations << " vs Jacobi " << ref.iterations;
  EXPECT_LT(rel_diff(u, ref.u), 1e-9);
}

TEST(Helmholtz3dTwoLevel, IterationsBarelyGrowUnderRefinement) {
  // 8x more elements at P = 4: Jacobi-PCG nearly doubles; the coarse
  // vertex space keeps the growth within 1.35x
  const auto coarse = two_level_iterations(8, 2, 4, 4);
  const auto fine = two_level_iterations(16, 4, 8, 4);
  EXPECT_LE(static_cast<double>(fine), 1.35 * static_cast<double>(coarse))
      << coarse << " -> " << fine;
}

TEST(Helmholtz3dTwoLevel, PureNeumannPoissonPinsOneVertex) {
  // no Dirichlet face: the pinned coarse vertex keeps A_c SPD; the solve
  // lands on the zero-mean solution and still beats Jacobi clearly
  sem::Discretization3D d(4.0, 1.0, 1.0, 8, 2, 4, 5);
  sem::Operators3D ops(d);
  auto solve = [&](const la::Vector& f, la::Vector& u) {
    sem::HelmholtzSolver3D hs(ops, 0.0, 1.0, {});
    hs.options().rtol = 1e-12;
    const auto res = hs.solve(f, [](double, double, double) { return 0.0; }, u);
    EXPECT_TRUE(res.converged);
    return res.iterations;
  };
  la::Vector f(d.num_nodes()), u;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) f[g] = std::cos(M_PI * d.node_x(g) / 4.0);
  solve(f, u);
  double err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    const double exact = std::cos(M_PI * d.node_x(g) / 4.0) * 16.0 / (M_PI * M_PI);
    err = std::max(err, std::fabs(u[g] - exact));
  }
  EXPECT_LT(err, 1e-4);
  EXPECT_NEAR(ops.integral(u), 0.0, 1e-9);

  // a forcing with many modes (the solver removes its mean)
  const la::Vector rich = pressure_like_rhs(d);
  const std::size_t iters = solve(rich, u);
  auto ref = jacobi_cg(ops, 0.0, 1.0, {}, rich, 1e-12);
  const double mean = ops.integral(ref.u) / (d.Lx() * d.Ly() * d.Lz());
  for (std::size_t g = 0; g < ref.u.size(); ++g) ref.u[g] -= mean;
  EXPECT_LE(static_cast<double>(iters), 0.6 * static_cast<double>(ref.iterations))
      << "two-level " << iters << " vs Jacobi " << ref.iterations;
  EXPECT_LT(rel_diff(u, ref.u), 1e-9);
}

TEST(Helmholtz3dTwoLevel, VertexGridPastTheCapKeepsPlainJacobi) {
  // 17^3 = 4913 vertices > 2048: no dense coarse matrix is built, and the
  // Poisson solve is bit for bit a Jacobi cg_solve (P = 1 keeps it cheap)
  sem::Discretization3D d(1.0, 1.0, 1.0, 16, 16, 16, 1);
  sem::Operators3D ops(d);
  const std::vector<sem::HexFace> faces = {sem::HexFace::X1};
  sem::HelmholtzSolver3D hs(ops, 0.0, 1.0, faces);
  const la::Vector f = pressure_like_rhs(d);
  la::Vector u;
  const auto res = hs.solve(f, [](double, double, double) { return 0.0; }, u);
  const auto ref = jacobi_cg(ops, 0.0, 1.0, faces, f, hs.options().rtol);
  EXPECT_EQ(res.iterations, ref.iterations);
  std::size_t differ = 0;
  for (std::size_t g = 0; g < u.size(); ++g) differ += u[g] != ref.u[g];
  EXPECT_EQ(differ, 0u);
}

TEST(Helmholtz3dTwoLevel, ViscousSolveStaysPlainJacobiBitwise) {
  // lambda > 0 keeps the Jacobi path: the solver's answer is bit for bit a
  // Jacobi cg_solve of the same system
  sem::Discretization3D d(4.0, 1.0, 1.0, 8, 2, 4, 5);
  sem::Operators3D ops(d);
  const std::vector<sem::HexFace> faces = {sem::HexFace::X1, sem::HexFace::Y0,
                                           sem::HexFace::Y1};
  const double lambda = 1.0 / 0.02, nu = 0.05;
  sem::HelmholtzSolver3D hs(ops, lambda, nu, faces);
  const la::Vector f = pressure_like_rhs(d);
  la::Vector u;
  const auto res = hs.solve(f, [](double, double, double) { return 0.0; }, u);
  const auto ref = jacobi_cg(ops, lambda, nu, faces, f, hs.options().rtol);
  EXPECT_EQ(res.iterations, ref.iterations);
  std::size_t differ = 0;
  for (std::size_t g = 0; g < u.size(); ++g) differ += u[g] != ref.u[g];
  EXPECT_EQ(differ, 0u);
}

}  // namespace

#include "sem/ns3d.hpp"

namespace {

TEST(Ops3d, GradientOfLinearFieldExact) {
  sem::Discretization3D d(2.0, 1.0, 1.5, 2, 2, 2, 4);
  sem::Operators3D ops(d);
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = 3.0 * d.node_x(g) - 2.0 * d.node_y(g) + 0.5 * d.node_z(g);
  la::Vector fx, fy, fz;
  ops.gradient(f, fx, fy, fz);
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    EXPECT_NEAR(fx[g], 3.0, 1e-10);
    EXPECT_NEAR(fy[g], -2.0, 1e-10);
    EXPECT_NEAR(fz[g], 0.5, 1e-10);
  }
}

TEST(Ops3d, DivergenceOfSolenoidalFieldZero) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 5);
  sem::Operators3D ops(d);
  la::Vector u(d.num_nodes()), v(d.num_nodes()), w(d.num_nodes()), div;
  // (y z, x z, -2 x y... pick u=y, v=z, w=x: div = 0
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    u[g] = d.node_y(g);
    v[g] = d.node_z(g);
    w[g] = d.node_x(g);
  }
  ops.divergence(u, v, w, div);
  for (std::size_t g = 0; g < d.num_nodes(); ++g) EXPECT_NEAR(div[g], 0.0, 1e-10);
}

TEST(Ns3d, PoiseuilleBetweenPlates) {
  // flow in x, plates at z = 0, 1; exact parabola imposed at inlet and side
  // faces; steady state must carry it through the domain
  const double H = 1.0, Umax = 1.0, nu = 0.05;
  sem::Discretization3D d(2.0, 1.0, H, 3, 2, 2, 4);
  sem::NavierStokes3D::Params prm;
  prm.nu = nu;
  prm.dt = 2e-3;
  prm.pressure_dirichlet_faces = {sem::HexFace::X1};
  sem::NavierStokes3D ns(d, prm);
  auto prof = [&](double, double, double z, double) { return 4.0 * Umax * z * (H - z) / (H * H); };
  auto zero = [](double, double, double, double) { return 0.0; };
  ns.set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y1, prof, zero, zero);
  ns.set_natural_bc(sem::HexFace::X1);
  // Z faces default to no-slip walls
  for (int s = 0; s < 500; ++s) ns.step();
  EXPECT_NEAR(d.evaluate(ns.u(), 1.0, 0.5, 0.5), Umax, 0.05);
  EXPECT_NEAR(d.evaluate(ns.v(), 1.0, 0.5, 0.5), 0.0, 0.03);
  EXPECT_NEAR(d.evaluate(ns.w(), 1.0, 0.5, 0.5), 0.0, 0.03);
  EXPECT_NEAR(d.evaluate(ns.u(), 1.5, 0.5, 0.25), prof(0, 0, 0.25, 0), 0.06);
}

TEST(Ns3d, TaylorGreenColumnDecay) {
  // 2D Taylor-Green vortex extended uniformly in z (w = 0): an exact 3D NS
  // solution; all faces Dirichlet from the exact fields.
  const double nu = 0.02;
  sem::Discretization3D d(1.0, 1.0, 0.5, 3, 3, 1, 5);
  sem::NavierStokes3D::Params prm;
  prm.nu = nu;
  prm.dt = 2e-3;
  prm.time_order = 2;
  prm.pressure_dirichlet_faces = {};
  sem::NavierStokes3D ns(d, prm);
  auto F = [nu](double t) { return std::exp(-2.0 * M_PI * M_PI * nu * t); };
  auto ue = [&](double x, double y, double, double t) {
    return std::sin(M_PI * x) * std::cos(M_PI * y) * F(t);
  };
  auto ve = [&](double x, double y, double, double t) {
    return -std::cos(M_PI * x) * std::sin(M_PI * y) * F(t);
  };
  auto we = [](double, double, double, double) { return 0.0; };
  for (int f = 0; f < 6; ++f)
    ns.set_velocity_bc(static_cast<sem::HexFace>(f), ue, ve, we);
  ns.set_initial([&](double x, double y, double z, double t) { return ue(x, y, z, t); },
                 [&](double x, double y, double z, double t) { return ve(x, y, z, t); },
                 [&](double x, double y, double z, double t) { return we(x, y, z, t); });
  for (int s = 0; s < 100; ++s) ns.step();
  const double T = ns.time();
  double err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    err = std::max(err,
                   std::fabs(ns.u()[g] - ue(d.node_x(g), d.node_y(g), d.node_z(g), T)));
  EXPECT_LT(err, 0.02);
  // w stays (near) zero: the column structure is preserved
  double wmax = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    wmax = std::max(wmax, std::fabs(ns.w()[g]));
  EXPECT_LT(wmax, 0.02);
}

// ---- fast path vs retained reference kernels --------------------------

la::Vector wavy_field(const sem::Discretization3D& d, double kx, double ky, double kz) {
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::sin(kx * d.node_x(g) + 0.3) * std::cos(ky * d.node_y(g)) *
           std::sin(kz * d.node_z(g) + 0.7);
  return f;
}

class Ops3dEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(Ops3dEquivalence, StiffnessMatchesReference) {
  const int P = GetParam();
  for (std::size_t nx : {1u, 2u, 3u}) {
    sem::Discretization3D d(1.3, 1.0, 0.8, nx, 2, 1, P);
    sem::Operators3D ops(d);
    const auto u = wavy_field(d, 2.0, 3.0, 1.5);
    la::Vector yf, yr;
    ops.apply_stiffness(u, yf);
    ops.apply_stiffness_reference(u, yr);
    double scale = 0.0;
    for (std::size_t g = 0; g < yr.size(); ++g) scale = std::max(scale, std::fabs(yr[g]));
    for (std::size_t g = 0; g < yr.size(); ++g)
      EXPECT_NEAR(yf[g], yr[g], 1e-12 * (1.0 + scale)) << "P=" << P << " nx=" << nx;
  }
}

TEST_P(Ops3dEquivalence, HelmholtzMatchesReference) {
  const int P = GetParam();
  sem::Discretization3D d(1.0, 1.2, 0.9, 2, 2, 2, P);
  sem::Operators3D ops(d);
  const auto u = wavy_field(d, 1.0, 2.0, 3.0);
  la::Vector yf, yr;
  ops.apply_helmholtz(2.75, 0.31, u, yf);
  ops.apply_helmholtz_reference(2.75, 0.31, u, yr);
  double scale = 0.0;
  for (std::size_t g = 0; g < yr.size(); ++g) scale = std::max(scale, std::fabs(yr[g]));
  for (std::size_t g = 0; g < yr.size(); ++g)
    EXPECT_NEAR(yf[g], yr[g], 1e-12 * (1.0 + scale)) << "P=" << P;
}

TEST_P(Ops3dEquivalence, MaskedHelmholtzMatchesReference) {
  // the Dirichlet-masked operator exactly as the solver's CG lambda builds
  // it: zero masked entries, apply, zero masked rows, restore identity
  const int P = GetParam();
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 1, 2, P);
  sem::Operators3D ops(d);
  std::vector<char> mask(d.num_nodes(), 0);
  for (std::size_t g : d.face_nodes(sem::HexFace::X0)) mask[g] = 1;
  for (std::size_t g : d.face_nodes(sem::HexFace::Z1)) mask[g] = 1;
  auto u = wavy_field(d, 2.2, 1.1, 0.9);
  auto masked_apply = [&](const la::Vector& in, la::Vector& out, bool ref) {
    la::Vector t = in;
    for (std::size_t g = 0; g < t.size(); ++g)
      if (mask[g]) t[g] = 0.0;
    if (ref)
      ops.apply_helmholtz_reference(1.0, 0.5, t, out);
    else
      ops.apply_helmholtz(1.0, 0.5, t, out);
    for (std::size_t g = 0; g < t.size(); ++g)
      if (mask[g]) out[g] = in[g];
  };
  la::Vector yf, yr;
  masked_apply(u, yf, false);
  masked_apply(u, yr, true);
  double scale = 0.0;
  for (std::size_t g = 0; g < yr.size(); ++g) scale = std::max(scale, std::fabs(yr[g]));
  for (std::size_t g = 0; g < yr.size(); ++g)
    EXPECT_NEAR(yf[g], yr[g], 1e-12 * (1.0 + scale)) << "P=" << P;
}

TEST_P(Ops3dEquivalence, GradientMatchesReference) {
  const int P = GetParam();
  sem::Discretization3D d(2.0, 1.0, 1.5, 2, 2, 1, P);
  sem::Operators3D ops(d);
  const auto u = wavy_field(d, 1.7, 2.3, 1.1);
  la::Vector fx, fy, fz, rx, ry, rz;
  ops.gradient(u, fx, fy, fz);
  ops.gradient_reference(u, rx, ry, rz);
  for (std::size_t g = 0; g < rx.size(); ++g) {
    EXPECT_NEAR(fx[g], rx[g], 1e-10 * (1.0 + std::fabs(rx[g]))) << "P=" << P;
    EXPECT_NEAR(fy[g], ry[g], 1e-10 * (1.0 + std::fabs(ry[g])));
    EXPECT_NEAR(fz[g], rz[g], 1e-10 * (1.0 + std::fabs(rz[g])));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, Ops3dEquivalence, ::testing::Values(3, 4, 5, 7, 9, 11));

TEST(Ops3dEquivalence2, PureNeumannSolveAgreesWithReferenceOperator) {
  // solve the same pure-Neumann Poisson problem through the fast operator
  // and through the reference operator; the discrete solutions must agree
  // far beyond the CG tolerance
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 5);
  sem::Operators3D ops(d);
  const std::size_t n = d.num_nodes();
  // zero-mean forcing
  la::Vector f(n);
  for (std::size_t g = 0; g < n; ++g)
    f[g] = std::cos(M_PI * d.node_x(g)) * std::cos(2.0 * M_PI * d.node_y(g));
  auto solve_with = [&](bool ref) {
    la::Vector b(n, 0.0);
    for (std::size_t g = 0; g < n; ++g) b[g] = ops.mass_diag()[g] * f[g];
    la::LinearOperator A = [&, ref](const double* x, double* y) {
      la::Vector xi(n), yo(n);
      for (std::size_t g = 0; g < n; ++g) xi[g] = x[g];
      if (ref)
        ops.apply_helmholtz_reference(0.2, 1.0, xi, yo);
      else
        ops.apply_helmholtz(0.2, 1.0, xi, yo);
      for (std::size_t g = 0; g < n; ++g) y[g] = yo[g];
    };
    la::Vector x(n, 0.0);
    la::CgOptions opt;
    opt.rtol = 1e-12;
    auto res = la::cg_solve(A, b, x, la::jacobi_preconditioner(ops.helmholtz_diag(0.2, 1.0)),
                            opt);
    EXPECT_TRUE(res.converged);
    return x;
  };
  const auto xf = solve_with(false);
  const auto xr = solve_with(true);
  for (std::size_t g = 0; g < n; ++g) EXPECT_NEAR(xf[g], xr[g], 1e-8);
}

}  // namespace
