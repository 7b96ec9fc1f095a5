#include "sem/hex3d.hpp"

#include "resilience/blob_la.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "la/simd.hpp"
#include "telemetry/registry.hpp"

namespace sem {

Discretization3D::Discretization3D(double Lx, double Ly, double Lz, std::size_t nx,
                                   std::size_t ny, std::size_t nz, int order)
    : Lx_(Lx), Ly_(Ly), Lz_(Lz), nx_(nx), ny_(ny), nz_(nz), P_(order),
      rule_(gll_rule(order)), D_(gll_diff_matrix(rule_)) {
  if (nx == 0 || ny == 0 || nz == 0 || Lx <= 0 || Ly <= 0 || Lz <= 0 || order < 1 ||
      order >= static_cast<int>(kMaxGllPoints))
    throw std::invalid_argument("Discretization3D: bad arguments");
  const auto P = static_cast<std::size_t>(order);
  lat_nx_ = nx * P + 1;
  lat_ny_ = ny * P + 1;
  lat_nz_ = nz * P + 1;
  ncoords_ = lat_nx_ * lat_ny_ * lat_nz_;

  // box face node sets
  for (std::size_t lk = 0; lk < lat_nz_; ++lk)
    for (std::size_t lj = 0; lj < lat_ny_; ++lj)
      for (std::size_t li = 0; li < lat_nx_; ++li) {
        const std::size_t g = lattice_id(li, lj, lk);
        if (li == 0) faces_[0].push_back(g);
        if (li == lat_nx_ - 1) faces_[1].push_back(g);
        if (lj == 0) faces_[2].push_back(g);
        if (lj == lat_ny_ - 1) faces_[3].push_back(g);
        if (lk == 0) faces_[4].push_back(g);
        if (lk == lat_nz_ - 1) faces_[5].push_back(g);
      }

  // element -> global gather/scatter table (a fastest), built once so the
  // operator apply loops never re-derive lattice indices
  const std::size_t npe = nodes_per_element();
  elem_map_.resize(num_elements() * npe);
  for (std::size_t e = 0; e < num_elements(); ++e) {
    std::size_t idx = e * npe;
    for (int c = 0; c <= P_; ++c)
      for (int b = 0; b <= P_; ++b)
        for (int a = 0; a <= P_; ++a) elem_map_[idx++] = lattice_node(e, a, b, c);
  }
}

std::size_t Discretization3D::lattice_id(std::size_t li, std::size_t lj, std::size_t lk) const {
  return (lk * lat_ny_ + lj) * lat_nx_ + li;
}

std::size_t Discretization3D::lattice_node(std::size_t e, int a, int b, int c) const {
  const auto P = static_cast<std::size_t>(P_);
  const std::size_t i = e % nx_;
  const std::size_t j = (e / nx_) % ny_;
  const std::size_t k = e / (nx_ * ny_);
  return lattice_id(i * P + static_cast<std::size_t>(a), j * P + static_cast<std::size_t>(b),
                    k * P + static_cast<std::size_t>(c));
}

namespace {
double lattice_coord(std::size_t l, int P, double h, const GllRule& rule, std::size_t n_elems) {
  // element index and local node along one axis; the last lattice plane
  // belongs to the last element's P-th node
  std::size_t e = l / static_cast<std::size_t>(P);
  std::size_t a = l % static_cast<std::size_t>(P);
  if (e == n_elems) {
    e = n_elems - 1;
    a = static_cast<std::size_t>(P);
  }
  return static_cast<double>(e) * h + 0.5 * (rule.nodes[a] + 1.0) * h;
}
}  // namespace

double Discretization3D::node_x(std::size_t g) const {
  return lattice_coord(g % lat_nx_, P_, dx(), rule_, nx_);
}
double Discretization3D::node_y(std::size_t g) const {
  return lattice_coord((g / lat_nx_) % lat_ny_, P_, dy(), rule_, ny_);
}
double Discretization3D::node_z(std::size_t g) const {
  return lattice_coord(g / (lat_nx_ * lat_ny_), P_, dz(), rule_, nz_);
}

Discretization3D::PointBasis Discretization3D::point_basis(double x, double y, double z) const {
  auto clamp_elem = [](double v, double h, std::size_t n) {
    auto e = static_cast<long>(std::floor(v / h));
    return static_cast<std::size_t>(std::clamp<long>(e, 0, static_cast<long>(n) - 1));
  };
  if (x < -1e-12 || y < -1e-12 || z < -1e-12 || x > Lx_ + 1e-12 || y > Ly_ + 1e-12 ||
      z > Lz_ + 1e-12)
    throw std::out_of_range("Discretization3D::evaluate: point outside box");
  const std::size_t i = clamp_elem(x, dx(), nx_);
  const std::size_t j = clamp_elem(y, dy(), ny_);
  const std::size_t k = clamp_elem(z, dz(), nz_);
  auto ref = [](double v, double h, std::size_t idx) {
    return std::clamp(2.0 * (v - static_cast<double>(idx) * h) / h - 1.0, -1.0, 1.0);
  };
  PointBasis pb;
  pb.e = (k * ny_ + j) * nx_ + i;
  lagrange_basis_fill(rule_, ref(x, dx(), i), pb.lx.data());
  lagrange_basis_fill(rule_, ref(y, dy(), j), pb.ly.data());
  lagrange_basis_fill(rule_, ref(z, dz(), k), pb.lz.data());
  return pb;
}

double Discretization3D::evaluate(const la::Vector& field, const PointBasis& pb) const {
  const std::size_t* map = elem_map(pb.e);
  const auto n1 = static_cast<std::size_t>(P_ + 1);
  double s = 0.0;
  for (std::size_t c = 0; c < n1; ++c) {
    double sc = 0.0;
    for (std::size_t b = 0; b < n1; ++b) {
      double sb = 0.0;
      for (std::size_t a = 0; a < n1; ++a) sb += pb.lx[a] * field[map[(c * n1 + b) * n1 + a]];
      sc += pb.ly[b] * sb;
    }
    s += pb.lz[c] * sc;
  }
  return s;
}

void Discretization3D::gather(const la::Vector& field, std::size_t e, double* local) const {
  const std::size_t npe = nodes_per_element();
  const std::size_t* map = elem_map_.data() + e * npe;
  for (std::size_t k = 0; k < npe; ++k) local[k] = field[map[k]];
}

void Discretization3D::scatter_add(const double* local, std::size_t e, la::Vector& field) const {
  const std::size_t npe = nodes_per_element();
  const std::size_t* map = elem_map_.data() + e * npe;
  for (std::size_t k = 0; k < npe; ++k) field[map[k]] += local[k];
}

// ---------------------------------------------------------------------------

Operators3D::Operators3D(const Discretization3D& d) : d_(&d) {
  jac_ = 0.125 * d.dx() * d.dy() * d.dz();
  rx_ = 2.0 / d.dx();
  ry_ = 2.0 / d.dy();
  rz_ = 2.0 / d.dz();

  const int P = d.order();
  const auto& w = d.rule().weights;
  const auto n1 = static_cast<std::size_t>(P) + 1;
  G_ = la::DenseMatrix(n1, n1);
  const auto& D = d.diff_matrix();
  for (std::size_t a = 0; a < n1; ++a)
    for (std::size_t b = 0; b < n1; ++b) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += D(m, a) * w[m] * D(m, b);
      G_(a, b) = s;
    }

  mass_.resize(d.num_nodes(), 0.0);
  stiff_diag_.resize(d.num_nodes(), 0.0);
  for (std::size_t e = 0; e < d.num_elements(); ++e)
    for (int c = 0; c <= P; ++c)
      for (int b = 0; b <= P; ++b)
        for (int a = 0; a <= P; ++a) {
          const std::size_t g = d.global_node(e, a, b, c);
          const double wa = w[static_cast<std::size_t>(a)];
          const double wb = w[static_cast<std::size_t>(b)];
          const double wc = w[static_cast<std::size_t>(c)];
          mass_[g] += jac_ * wa * wb * wc;
          stiff_diag_[g] +=
              jac_ * (rx_ * rx_ * wb * wc * G_(static_cast<std::size_t>(a), static_cast<std::size_t>(a)) +
                      ry_ * ry_ * wa * wc * G_(static_cast<std::size_t>(b), static_cast<std::size_t>(b)) +
                      rz_ * rz_ * wa * wb * G_(static_cast<std::size_t>(c), static_cast<std::size_t>(c)));
        }

  // fast-path tables and scratch
  GT_ = G_.transposed();
  DT_ = D.transposed();
  ww_.resize(n1 * n1);
  for (std::size_t j = 0; j < n1; ++j)
    for (std::size_t i = 0; i < n1; ++i) ww_[j * n1 + i] = w[i] * w[j];
  const std::size_t npe = d.nodes_per_element();
  lmass_.resize(npe);
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t b = 0; b < n1; ++b)
      for (std::size_t a = 0; a < n1; ++a)
        lmass_[(c * n1 + b) * n1 + a] = jac_ * w[a] * w[b] * w[c];
  lu_.resize(npe);
  ly_.resize(npe);
  ldx_.resize(npe);
  ldy_.resize(npe);
  ldz_.resize(npe);
}

void Operators3D::elem_stiffness(const double* u, double* y) const {
  const auto n1 = static_cast<std::size_t>(d_->order()) + 1;
  const auto& w = d_->rule().weights;
  const double cx = jac_ * rx_ * rx_;
  const double cy = jac_ * ry_ * ry_;
  const double cz = jac_ * rz_ * rz_;
  const std::size_t npe = n1 * n1 * n1;
  for (std::size_t q = 0; q < npe; ++q) y[q] = 0.0;
  // x: every (b,c) line of the element in one batched call, row scale wb*wc
  la::simd::lines_apply_t(GT_.data(), n1, n1 * n1, u, y, ww_.data(), cx);
  // y: per c-plane, G across the b rows, column scale wa
  for (std::size_t c = 0; c < n1; ++c)
    la::simd::lines_apply(G_.data(), n1, n1, u + c * n1 * n1, y + c * n1 * n1, w.data(),
                          cy * w[c]);
  // z: whole element as one plane of n1^2 columns, column scale wa*wb
  la::simd::lines_apply(G_.data(), n1, n1 * n1, u, y, ww_.data(), cz);
}

void Operators3D::elem_helmholtz(double lambda, double nu, const double* u, double* y) const {
  const auto n1 = static_cast<std::size_t>(d_->order()) + 1;
  const auto& w = d_->rule().weights;
  const double cx = nu * jac_ * rx_ * rx_;
  const double cy = nu * jac_ * ry_ * ry_;
  const double cz = nu * jac_ * rz_ * rz_;
  const std::size_t npe = n1 * n1 * n1;
  for (std::size_t q = 0; q < npe; ++q) y[q] = 0.0;
  la::simd::lines_apply_t(GT_.data(), n1, n1 * n1, u, y, ww_.data(), cx);
  for (std::size_t c = 0; c < n1; ++c)
    la::simd::lines_apply(G_.data(), n1, n1, u + c * n1 * n1, y + c * n1 * n1, w.data(),
                          cy * w[c]);
  la::simd::lines_apply(G_.data(), n1, n1 * n1, u, y, ww_.data(), cz);
  // lumped mass term folded into the element pass (sums to lambda*M*u)
  for (std::size_t q = 0; q < npe; ++q) y[q] += lambda * lmass_[q] * u[q];
}

void Operators3D::elem_stiffness_reference(const double* u, double* y) const {
  const int P = d_->order();
  const auto n1 = static_cast<std::size_t>(P) + 1;
  const auto& w = d_->rule().weights;
  const double cx = jac_ * rx_ * rx_;
  const double cy = jac_ * ry_ * ry_;
  const double cz = jac_ * rz_ * rz_;
  const std::size_t npe = n1 * n1 * n1;
  for (std::size_t q = 0; q < npe; ++q) y[q] = 0.0;

  auto at = [n1](std::size_t a, std::size_t b, std::size_t c) {
    return (c * n1 + b) * n1 + a;
  };
  // x-lines
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t b = 0; b < n1; ++b) {
      const double coef = cx * w[b] * w[c];
      const double* line = u + at(0, b, c);  // contiguous in a
      double* yl = y + at(0, b, c);
      for (std::size_t a = 0; a < n1; ++a)
        yl[a] += coef * la::simd::dot(G_.row(a), line, n1);
    }
  // y-lines
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t a = 0; a < n1; ++a) {
      const double coef = cy * w[a] * w[c];
      for (std::size_t b = 0; b < n1; ++b) {
        double s = 0.0;
        const double* Gb = G_.row(b);
        for (std::size_t m = 0; m < n1; ++m) s += Gb[m] * u[at(a, m, c)];
        y[at(a, b, c)] += coef * s;
      }
    }
  // z-lines
  for (std::size_t b = 0; b < n1; ++b)
    for (std::size_t a = 0; a < n1; ++a) {
      const double coef = cz * w[a] * w[b];
      for (std::size_t c = 0; c < n1; ++c) {
        double s = 0.0;
        const double* Gc = G_.row(c);
        for (std::size_t m = 0; m < n1; ++m) s += Gc[m] * u[at(a, b, m)];
        y[at(a, b, c)] += coef * s;
      }
    }
}

void Operators3D::apply_stiffness(const la::Vector& u, la::Vector& y) const {
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  telemetry::count("sem.apply.stiffness");
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_stiffness(lu_.data(), ly_.data());
    d_->scatter_add(ly_.data(), e, y);
  }
}

void Operators3D::apply_stiffness_reference(const la::Vector& u, la::Vector& y) const {
  const std::size_t npe = d_->nodes_per_element();
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  // lint: sem-alloc-ok (reference baseline keeps the pre-fast-path per-call scratch)
  std::vector<double> lu(npe), ly(npe);
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu.data());
    elem_stiffness_reference(lu.data(), ly.data());
    d_->scatter_add(ly.data(), e, y);
  }
}

void Operators3D::apply_helmholtz(double lambda, double nu, const la::Vector& u,
                                  la::Vector& y) const {
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  telemetry::count("sem.apply.helmholtz");
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_helmholtz(lambda, nu, lu_.data(), ly_.data());
    d_->scatter_add(ly_.data(), e, y);
  }
}

void Operators3D::apply_helmholtz_reference(double lambda, double nu, const la::Vector& u,
                                            la::Vector& y) const {
  apply_stiffness_reference(u, y);
  la::simd::scale(nu, y.data(), y.size());
  for (std::size_t g = 0; g < u.size(); ++g) y[g] += lambda * mass_[g] * u[g];
}

la::Vector Operators3D::helmholtz_diag(double lambda, double nu) const {
  la::Vector dg(d_->num_nodes());
  for (std::size_t g = 0; g < dg.size(); ++g) dg[g] = lambda * mass_[g] + nu * stiff_diag_[g];
  return dg;
}

la::DenseMatrix Operators3D::coarse_vertex_matrix(double lambda, double nu) const {
  const auto n1 = static_cast<std::size_t>(d_->order()) + 1;
  const std::size_t npe = d_->nodes_per_element();
  const auto& xi = d_->rule().nodes;
  // the 8 local hats: corner q = (i, j, k) bits, 1D factors (1 -+ xi) / 2
  auto hat = [](std::size_t bit, double t) { return 0.5 * (bit ? 1.0 + t : 1.0 - t); };
  std::vector<double> hats(8 * npe), khat(npe);
  for (std::size_t q = 0; q < 8; ++q)
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t b = 0; b < n1; ++b)
        for (std::size_t a = 0; a < n1; ++a)
          hats[q * npe + (c * n1 + b) * n1 + a] =
              hat(q & 1, xi[a]) * hat((q >> 1) & 1, xi[b]) * hat((q >> 2) & 1, xi[c]);
  double ke[8][8];
  for (std::size_t q = 0; q < 8; ++q) {
    elem_helmholtz(lambda, nu, hats.data() + q * npe, khat.data());
    for (std::size_t p = 0; p < 8; ++p)
      ke[p][q] = la::simd::dot(hats.data() + p * npe, khat.data(), npe);
  }

  const std::size_t vx = d_->nx() + 1, vy = d_->ny() + 1, vz = d_->nz() + 1;
  la::DenseMatrix A(vx * vy * vz, vx * vy * vz);
  for (std::size_t k = 0; k < d_->nz(); ++k)
    for (std::size_t j = 0; j < d_->ny(); ++j)
      for (std::size_t i = 0; i < d_->nx(); ++i) {
        std::size_t vert[8];
        for (std::size_t q = 0; q < 8; ++q)
          vert[q] = ((k + (q >> 2)) * vy + j + ((q >> 1) & 1)) * vx + i + (q & 1);
        for (std::size_t p = 0; p < 8; ++p)
          for (std::size_t q = 0; q < 8; ++q) A(vert[p], vert[q]) += ke[p][q];
      }
  return A;
}

void Operators3D::elem_derivs(const double* u, double* dx, double* dy, double* dz) const {
  const auto n1 = static_cast<std::size_t>(d_->order()) + 1;
  const auto& D = d_->diff_matrix();
  const std::size_t npe = n1 * n1 * n1;
  for (std::size_t q = 0; q < npe; ++q) dx[q] = dy[q] = dz[q] = 0.0;
  la::simd::lines_apply_t(DT_.data(), n1, n1 * n1, u, dx, nullptr, rx_);
  for (std::size_t c = 0; c < n1; ++c)
    la::simd::lines_apply(D.data(), n1, n1, u + c * n1 * n1, dy + c * n1 * n1, nullptr, ry_);
  la::simd::lines_apply(D.data(), n1, n1 * n1, u, dz, nullptr, rz_);
}

void Operators3D::elem_derivs_reference(const double* u, double* dx, double* dy,
                                        double* dz) const {
  const int P = d_->order();
  const auto n1 = static_cast<std::size_t>(P) + 1;
  const auto& D = d_->diff_matrix();
  auto at = [n1](std::size_t a, std::size_t b, std::size_t c) { return (c * n1 + b) * n1 + a; };
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t b = 0; b < n1; ++b)
      for (std::size_t a = 0; a < n1; ++a) {
        double sx = 0.0, sy = 0.0, sz = 0.0;
        for (std::size_t m = 0; m < n1; ++m) {
          sx += D(a, m) * u[at(m, b, c)];
          sy += D(b, m) * u[at(a, m, c)];
          sz += D(c, m) * u[at(a, b, m)];
        }
        dx[at(a, b, c)] = rx_ * sx;
        dy[at(a, b, c)] = ry_ * sy;
        dz[at(a, b, c)] = rz_ * sz;
      }
}

void Operators3D::gradient(const la::Vector& u, la::Vector& ddx, la::Vector& ddy,
                           la::Vector& ddz) const {
  const std::size_t n = d_->num_nodes();
  const std::size_t npe = d_->nodes_per_element();
  for (la::Vector* v : {&ddx, &ddy, &ddz}) {
    if (v->size() != n) v->resize(n);
    v->fill(0.0);
  }
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_derivs(lu_.data(), ldx_.data(), ldy_.data(), ldz_.data());
    for (std::size_t k = 0; k < npe; ++k) {
      const double m = lmass_[k];
      ldx_[k] *= m;
      ldy_[k] *= m;
      ldz_[k] *= m;
    }
    d_->scatter_add(ldx_.data(), e, ddx);
    d_->scatter_add(ldy_.data(), e, ddy);
    d_->scatter_add(ldz_.data(), e, ddz);
  }
  for (std::size_t g = 0; g < n; ++g) {
    ddx[g] /= mass_[g];
    ddy[g] /= mass_[g];
    ddz[g] /= mass_[g];
  }
}

void Operators3D::gradient_reference(const la::Vector& u, la::Vector& ddx, la::Vector& ddy,
                                     la::Vector& ddz) const {
  const std::size_t n = d_->num_nodes();
  const std::size_t npe = d_->nodes_per_element();
  const auto& w = d_->rule().weights;
  for (la::Vector* v : {&ddx, &ddy, &ddz}) {
    if (v->size() != n) v->resize(n);
    v->fill(0.0);
  }
  // lint: sem-alloc-ok (reference baseline keeps the pre-fast-path per-call scratch)
  std::vector<double> lu(npe), dx(npe), dy(npe), dz(npe);
  const auto n1 = static_cast<std::size_t>(d_->order()) + 1;
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu.data());
    elem_derivs_reference(lu.data(), dx.data(), dy.data(), dz.data());
    std::size_t k = 0;
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t b = 0; b < n1; ++b)
        for (std::size_t a = 0; a < n1; ++a, ++k) {
          const double m = jac_ * w[a] * w[b] * w[c];
          dx[k] *= m;
          dy[k] *= m;
          dz[k] *= m;
        }
    d_->scatter_add(dx.data(), e, ddx);
    d_->scatter_add(dy.data(), e, ddy);
    d_->scatter_add(dz.data(), e, ddz);
  }
  for (std::size_t g = 0; g < n; ++g) {
    ddx[g] /= mass_[g];
    ddy[g] /= mass_[g];
    ddz[g] /= mass_[g];
  }
}

void Operators3D::divergence(const la::Vector& u, const la::Vector& v, const la::Vector& w,
                             la::Vector& div) const {
  if (div.size() != u.size()) div.resize(u.size());
  gradient(u, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g) div[g] = gx_[g];
  gradient(v, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g) div[g] += gy_[g];
  gradient(w, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g) div[g] += gz_[g];
}

void Operators3D::convection(const la::Vector& u, const la::Vector& v, const la::Vector& w,
                             la::Vector& cu, la::Vector& cv, la::Vector& cw) const {
  if (cu.size() != u.size()) cu.resize(u.size());
  if (cv.size() != u.size()) cv.resize(u.size());
  if (cw.size() != u.size()) cw.resize(u.size());
  gradient(u, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g)
    cu[g] = u[g] * gx_[g] + v[g] * gy_[g] + w[g] * gz_[g];
  gradient(v, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g)
    cv[g] = u[g] * gx_[g] + v[g] * gy_[g] + w[g] * gz_[g];
  gradient(w, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g)
    cw[g] = u[g] * gx_[g] + v[g] * gy_[g] + w[g] * gz_[g];
}

double Operators3D::integral(const la::Vector& u) const {
  double s = 0.0;
  for (std::size_t g = 0; g < u.size(); ++g) s += mass_[g] * u[g];
  return s;
}

// ---------------------------------------------------------------------------

namespace {
// Largest vertex grid that gets a coarse level. A_c is dense: at the cap its
// factor holds 2048^2 doubles (32 MB) and costs ~3 GFlop once; a larger
// box (e.g. 16^3 elements from a scenario file) keeps plain Jacobi instead
// of a set-up that outgrows the solve.
constexpr std::size_t kMaxCoarseVertices = 2048;

// One axis of the separable coarse transfer, on a field laid out as
// [outer][planes][inner]: `lat` GLL lattice planes against `vert` element-
// vertex planes. Lattice plane l lies between vertex planes v0[l] and
// v0[l] + 1 with right-hat weight w[l], so each plane has two hat values.

// out = Phi_axis^T in  (lattice -> vertices)
void restrict_axis(const std::size_t* v0, const double* w, std::size_t lat, std::size_t vert,
                   std::size_t outer, std::size_t inner, const double* in, double* out) {
  std::fill(out, out + outer * vert * inner, 0.0);
  for (std::size_t o = 0; o < outer; ++o)
    for (std::size_t l = 0; l < lat; ++l) {
      const double* src = in + (o * lat + l) * inner;
      double* d0 = out + (o * vert + v0[l]) * inner;
      double* d1 = d0 + inner;
      const double w0 = 1.0 - w[l], w1 = w[l];
      for (std::size_t i = 0; i < inner; ++i) {
        d0[i] += w0 * src[i];
        d1[i] += w1 * src[i];
      }
    }
}

// out = Phi_axis in  (vertices -> lattice)
void prolong_axis(const std::size_t* v0, const double* w, std::size_t lat, std::size_t vert,
                  std::size_t outer, std::size_t inner, const double* in, double* out) {
  for (std::size_t o = 0; o < outer; ++o)
    for (std::size_t l = 0; l < lat; ++l) {
      const double* s0 = in + (o * vert + v0[l]) * inner;
      const double* s1 = s0 + inner;
      double* dst = out + (o * lat + l) * inner;
      const double w0 = 1.0 - w[l], w1 = w[l];
      for (std::size_t i = 0; i < inner; ++i) dst[i] = w0 * s0[i] + w1 * s1[i];
    }
}
}  // namespace

HelmholtzSolver3D::HelmholtzSolver3D(const Operators3D& ops, double lambda, double nu,
                                     std::vector<HexFace> dirichlet_faces)
    : ops_(&ops), lambda_(lambda), nu_(nu) {
  const auto& d = ops.disc();
  is_dirichlet_.assign(d.num_nodes(), 0);
  for (HexFace f : dirichlet_faces)
    for (std::size_t g : d.face_nodes(f)) is_dirichlet_[g] = 1;
  for (std::size_t g = 0; g < is_dirichlet_.size(); ++g)
    if (is_dirichlet_[g]) dnodes_.push_back(g);
  precond_diag_ = ops.helmholtz_diag(lambda, nu);
  for (std::size_t g : dnodes_) precond_diag_[g] = 1.0;
  const std::size_t vertices = (d.nx() + 1) * (d.ny() + 1) * (d.nz() + 1);
  if (lambda_ == 0.0 && vertices <= kMaxCoarseVertices) build_coarse_space();
}

void HelmholtzSolver3D::build_coarse_space() {
  const auto& d = ops_->disc();
  const auto P = static_cast<std::size_t>(d.order());
  const std::array<std::size_t, 3> ne = {d.nx(), d.ny(), d.nz()};
  for (std::size_t ax = 0; ax < 3; ++ax) {
    lat_n_[ax] = ne[ax] * P + 1;
    vert_n_[ax] = ne[ax] + 1;
    plane_vertex_[ax].resize(lat_n_[ax]);
    plane_weight_[ax].resize(lat_n_[ax]);
    for (std::size_t l = 0; l < lat_n_[ax]; ++l) {
      const std::size_t e = std::min(l / P, ne[ax] - 1);  // last plane: element n-1, a = P
      plane_vertex_[ax][l] = e;
      plane_weight_[ax][l] = 0.5 * (d.rule().nodes[l - e * P] + 1.0);
    }
  }

  // Dirichlet faces are vertex planes; every hat left has zero trace there.
  // With none, pin vertex 0 to remove the constant null space.
  const std::size_t vx = vert_n_[0], vy = vert_n_[1], vz = vert_n_[2];
  for (std::size_t k = 0; k < vz; ++k)
    for (std::size_t j = 0; j < vy; ++j)
      for (std::size_t i = 0; i < vx; ++i) {
        const std::size_t v = (k * vy + j) * vx + i;
        // a vertex is a lattice node, so the node's tag is the vertex's
        const std::size_t g = (k * P * lat_n_[1] + j * P) * lat_n_[0] + i * P;
        const bool dropped = pure_neumann() ? v == 0 : is_dirichlet_[g] != 0;
        if (!dropped) coarse_dofs_.push_back(v);
      }
  if (coarse_dofs_.empty()) return;

  const la::DenseMatrix A = ops_->coarse_vertex_matrix(lambda_, nu_);
  const std::size_t nc = coarse_dofs_.size();
  coarse_chol_ = la::DenseMatrix(nc, nc);
  for (std::size_t p = 0; p < nc; ++p)
    for (std::size_t q = 0; q < nc; ++q)
      coarse_chol_(p, q) = A(coarse_dofs_[p], coarse_dofs_[q]);
  if (!la::cholesky(coarse_chol_))
    throw std::logic_error("HelmholtzSolver3D: coarse vertex matrix not SPD");

  stage_a_.resize(std::max(lat_n_[1] * lat_n_[2] * vx, vy * vz * lat_n_[0]));
  stage_b_.resize(std::max(lat_n_[2] * vy * vx, vz * lat_n_[1] * lat_n_[0]));
  vert_.resize(vx * vy * vz);
  coarse_rhs_.resize(nc);
  coarse_sol_.resize(nc);
  fine_.resize(d.num_nodes());
}

void HelmholtzSolver3D::apply_two_level(const double* r, double* z) {
  const std::size_t n = fine_.size();
  const auto& [lx, ly, lz] = lat_n_;
  const auto& [vx, vy, vz] = vert_n_;
  const auto& v0 = plane_vertex_;
  const auto& w = plane_weight_;
  // restriction Phi^T r: contract x, then y, then z
  restrict_axis(v0[0].data(), w[0].data(), lx, vx, ly * lz, 1, r, stage_a_.data());
  restrict_axis(v0[1].data(), w[1].data(), ly, vy, lz, vx, stage_a_.data(), stage_b_.data());
  restrict_axis(v0[2].data(), w[2].data(), lz, vz, 1, vx * vy, stage_b_.data(), vert_.data());
  for (std::size_t k = 0; k < coarse_dofs_.size(); ++k) coarse_rhs_[k] = vert_[coarse_dofs_[k]];
  la::cholesky_solve(coarse_chol_, coarse_rhs_, coarse_sol_);
  vert_.fill(0.0);
  for (std::size_t k = 0; k < coarse_dofs_.size(); ++k) vert_[coarse_dofs_[k]] = coarse_sol_[k];
  // prolongation Phi y: expand x, then y, then z
  prolong_axis(v0[0].data(), w[0].data(), lx, vx, vy * vz, 1, vert_.data(), stage_a_.data());
  prolong_axis(v0[1].data(), w[1].data(), ly, vy, vz, lx, stage_a_.data(), stage_b_.data());
  prolong_axis(v0[2].data(), w[2].data(), lz, vz, 1, lx * ly, stage_b_.data(), fine_.data());
  for (std::size_t g = 0; g < n; ++g) z[g] = r[g] / precond_diag_[g] + fine_[g];
}

la::CgResult HelmholtzSolver3D::solve(const la::Vector& f,
                                      const std::function<double(double, double, double)>& g,
                                      la::Vector& u) {
  const auto& d = ops_->disc();
  la::Vector bc(dnodes_.size());
  for (std::size_t k = 0; k < dnodes_.size(); ++k)
    bc[k] = g(d.node_x(dnodes_[k]), d.node_y(dnodes_[k]), d.node_z(dnodes_[k]));
  return solve_with_values(f, bc, u);
}

la::CgResult HelmholtzSolver3D::solve_with_values(const la::Vector& f,
                                                  const la::Vector& bc_values, la::Vector& u) {
  const auto& d = ops_->disc();
  const std::size_t n = d.num_nodes();
  const auto& M = ops_->mass_diag();

  la::Vector tmp_in(n), tmp_out(n);
  la::LinearOperator op = [&](const double* x, double* y) {
    for (std::size_t gi = 0; gi < n; ++gi) tmp_in[gi] = is_dirichlet_[gi] ? 0.0 : x[gi];
    ops_->apply_helmholtz(lambda_, nu_, tmp_in, tmp_out);
    for (std::size_t gi = 0; gi < n; ++gi) y[gi] = is_dirichlet_[gi] ? x[gi] : tmp_out[gi];
  };

  la::Vector b(n);
  for (std::size_t gi = 0; gi < n; ++gi) b[gi] = M[gi] * f[gi];

  la::Vector lift(n, 0.0);
  if (!dnodes_.empty()) {
    for (std::size_t k = 0; k < dnodes_.size(); ++k) lift[dnodes_[k]] = bc_values[k];
    la::Vector Alift(n);
    ops_->apply_helmholtz(lambda_, nu_, lift, Alift);
    for (std::size_t gi = 0; gi < n; ++gi) b[gi] -= Alift[gi];
  }
  for (std::size_t gi = 0; gi < n; ++gi)
    if (is_dirichlet_[gi]) b[gi] = 0.0;

  if (pure_neumann() && lambda_ == 0.0) {
    double sum_b = 0.0, sum_m = 0.0;
    for (std::size_t gi = 0; gi < n; ++gi) {
      sum_b += b[gi];
      sum_m += M[gi];
    }
    const double shift = sum_b / sum_m;
    for (std::size_t gi = 0; gi < n; ++gi) b[gi] -= M[gi] * shift;
  }

  la::Vector u0(n, 0.0);
  projector_.predict(op, b, u0);
  la::Preconditioner precond = la::jacobi_preconditioner(precond_diag_);
  if (!coarse_dofs_.empty())
    precond = [this](const double* r, double* z, std::size_t) { apply_two_level(r, z); };
  auto res = la::cg_solve(op, b, u0, precond, opt_);
  projector_.record(op, u0);

  if (u.size() != n) u.resize(n);
  for (std::size_t gi = 0; gi < n; ++gi) u[gi] = u0[gi] + lift[gi];

  if (pure_neumann() && lambda_ == 0.0) {
    double num = 0.0, den = 0.0;
    for (std::size_t gi = 0; gi < n; ++gi) {
      num += M[gi] * u[gi];
      den += M[gi];
    }
    for (std::size_t gi = 0; gi < n; ++gi) u[gi] -= num / den;
  }
  return res;
}

void HelmholtzSolver3D::save_state(resilience::BlobWriter& w) const {
  resilience::put_projector(w, projector_);
}

void HelmholtzSolver3D::load_state(resilience::BlobReader& r) {
  resilience::get_projector(r, projector_);
}

}  // namespace sem
