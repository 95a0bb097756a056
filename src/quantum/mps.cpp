#include "quantum/mps.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "obs/metrics.h"

namespace qdb {

namespace {

// The complex products of the two-site update, the Jacobi SVD, the right
// environments and the sampler are written out as real arithmetic.  Each is the expression GCC
// lowers a std::complex product to, in the same order (re = ar*br - ai*bi,
// im = ar*bi + ai*br; a conjugate is an exact negation), so the results are
// bit-identical to std::complex on finite values, without the NaN-recovery
// branch that keeps those loops from being scheduled or vectorised.

bool is_zero(const cplx& z) { return z.real() == 0.0 && z.imag() == 0.0; }

// Both outcomes of one qubit after a measured prefix with row vector `vec`:
// v_p(r) = sum_l vec(l) A(l, p, r) into out[p * chi_r + r], and their
// unnormalised probabilities v_p^dag right v_p (clamped at 0).
void expand_prefix(const cplx* a, std::size_t chi_l, std::size_t chi_r,
                   const cplx* vec, const cplx* right, cplx* out, double prob[2]) {
  for (std::size_t p = 0; p < 2; ++p) {
    cplx* v = out + p * chi_r;
    std::fill(v, v + chi_r, cplx{});
    for (std::size_t l = 0; l < chi_l; ++l) {
      if (is_zero(vec[l])) continue;
      const double xr = vec[l].real(), xi = vec[l].imag();
      const cplx* arow = a + (l * 2 + p) * chi_r;
      for (std::size_t r = 0; r < chi_r; ++r) {
        const double ar = arow[r].real(), ai = arow[r].imag();
        v[r] = cplx{v[r].real() + (xr * ar - xi * ai), v[r].imag() + (xr * ai + xi * ar)};
      }
    }
    // acc = sum_{r, r'} (conj(v(r)) * right(r, r')) * v(r'); only its real
    // part is ever read.
    double acc = 0.0;
    for (std::size_t r = 0; r < chi_r; ++r) {
      const double cr = v[r].real(), ci = -v[r].imag();
      const cplx* rrow = right + r * chi_r;
      for (std::size_t rp = 0; rp < chi_r; ++rp) {
        const double er = rrow[rp].real(), ei = rrow[rp].imag();
        const double tr = cr * er - ci * ei, ti = cr * ei + ci * er;
        acc += tr * v[rp].real() - ti * v[rp].imag();
      }
    }
    prob[p] = std::max(acc, 0.0);
  }
}

}  // namespace

MpsSimulator::MpsSimulator(int num_qubits, int max_bond, double trunc_tol)
    : num_qubits_(num_qubits), max_bond_(max_bond), trunc_tol_(trunc_tol) {
  QDB_REQUIRE(num_qubits >= 1, "mps needs at least one qubit");
  QDB_REQUIRE(max_bond >= 1, "mps needs max_bond >= 1");
  reset();
}

void MpsSimulator::reset() {
  // Site buffers keep their capacity for the next circuit.
  sites_.resize(static_cast<std::size_t>(num_qubits_));
  for (auto& s : sites_) {
    s.chi_l = s.chi_r = 1;
    s.data.assign(2, cplx{});
    s.data[0] = 1.0;  // physical state |0>
  }
  truncated_weight_ = 0.0;
}

int MpsSimulator::max_bond_reached() const {
  int chi = 1;
  for (const auto& s : sites_) chi = std::max(chi, s.chi_r);
  return chi;
}

void MpsSimulator::apply_1q(const std::array<std::array<cplx, 2>, 2>& u, int q) {
  Site& s = sites_[static_cast<std::size_t>(q)];
  const double u00r = u[0][0].real(), u00i = u[0][0].imag();
  const double u01r = u[0][1].real(), u01i = u[0][1].imag();
  const double u10r = u[1][0].real(), u10i = u[1][0].imag();
  const double u11r = u[1][1].real(), u11i = u[1][1].imag();
  const auto chi_l = static_cast<std::size_t>(s.chi_l);
  const auto chi_r = static_cast<std::size_t>(s.chi_r);
  for (std::size_t l = 0; l < chi_l; ++l) {
    cplx* row0 = s.data.data() + l * 2 * chi_r;
    cplx* row1 = row0 + chi_r;
    for (std::size_t r = 0; r < chi_r; ++r) {
      const double a0r = row0[r].real(), a0i = row0[r].imag();
      const double a1r = row1[r].real(), a1i = row1[r].imag();
      row0[r] = cplx{(u00r * a0r - u00i * a0i) + (u01r * a1r - u01i * a1i),
                     (u00r * a0i + u00i * a0r) + (u01r * a1i + u01i * a1r)};
      row1[r] = cplx{(u10r * a0r - u10i * a0i) + (u11r * a1r - u11i * a1i),
                     (u10r * a0i + u10i * a0r) + (u11r * a1i + u11i * a1r)};
    }
  }
}

void MpsSimulator::jacobi_svd(int m_rows, int n_cols) {
  // One-sided Jacobi orthogonalises the columns of A (ws_.g) while
  // accumulating V; it is simple, numerically robust, and fast for the small
  // matrices an MPS two-site update produces.
  const auto m = static_cast<std::size_t>(m_rows);
  const auto n = static_cast<std::size_t>(n_cols);
  cplx* g = ws_.g.data();
  ws_.v.assign(n * n, cplx{});
  cplx* v = ws_.v.data();
  for (std::size_t j = 0; j < n; ++j) v[j * n + j] = 1.0;

  // Rotate columns x, y of length len by the Jacobi rotation (c, s) after
  // multiplying y by conj(phase) = (pr, pi).
  auto rotate = [](cplx* x, cplx* y, std::size_t len, double c, double s,
                   double pr, double pi) {
    for (std::size_t r = 0; r < len; ++r) {
      const double xr = x[r].real(), xi = x[r].imag();
      const double y0r = y[r].real(), y0i = y[r].imag();
      const double yr = y0r * pr - y0i * pi, yi = y0r * pi + y0i * pr;
      x[r] = cplx{c * xr - s * yr, c * xi - s * yi};
      y[r] = cplx{s * xr + c * yr, s * xi + c * yi};
    }
  };

  // Squared column norms, recomputed only for columns a rotation changed:
  // the same sum over the same doubles gives the same value, so a kept one
  // is what a recomputation would give.
  ws_.norms.resize(n);
  ws_.stale.assign(n, 1);
  double* norms = ws_.norms.data();
  auto norm2 = [&](std::size_t j) {
    if (ws_.stale[j] != 0) {
      const cplx* col = g + j * m;
      double nn = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        nn += col[r].real() * col[r].real() + col[r].imag() * col[r].imag();
      }
      norms[j] = nn;
      ws_.stale[j] = 0;
    }
    return norms[j];
  };

  constexpr double kTol = 1e-14;
  for (int sweep = 0; sweep < 60; ++sweep) {
    bool converged = true;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        cplx* gi = g + i * m;
        cplx* gj = g + j * m;
        // alpha = |g_i|^2, beta = |g_j|^2, gamma = <g_i, g_j>.
        const double alpha = norm2(i), beta = norm2(j);
        double gamma_r = 0.0, gamma_i = 0.0;
        for (std::size_t r = 0; r < m; ++r) {
          const double xr = gi[r].real(), cxi = -gi[r].imag();
          const double yr = gj[r].real(), yi = gj[r].imag();
          gamma_r += xr * yr - cxi * yi;
          gamma_i += xr * yi + cxi * yr;
        }
        const double ag = std::abs(cplx{gamma_r, gamma_i});
        if (ag <= kTol * std::sqrt(alpha * beta) || ag == 0.0) continue;
        converged = false;
        // Absorb the phase of gamma into column j so the 2x2 Gram block
        // becomes real, then apply the classic Jacobi rotation.
        const double pr = gamma_r / ag, pi = -(gamma_i / ag);
        const double zeta = (beta - alpha) / (2.0 * ag);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        rotate(gi, gj, m, c, s, pr, pi);
        rotate(v + i * n, v + j * n, n, c, s, pr, pi);
        ws_.stale[i] = ws_.stale[j] = 1;
      }
    }
    if (converged) break;
  }

  // Column norms are the singular values; order them descending.
  for (std::size_t j = 0; j < n; ++j) norms[j] = std::sqrt(norm2(j));
  ws_.order.resize(n);
  std::iota(ws_.order.begin(), ws_.order.end(), 0);
  std::sort(ws_.order.begin(), ws_.order.end(), [norms](int a, int b) {
    return norms[static_cast<std::size_t>(a)] > norms[static_cast<std::size_t>(b)];
  });
}

void MpsSimulator::apply_2q_adjacent(const std::array<std::array<cplx, 4>, 4>& u,
                                     int low, bool first_is_low) {
  Site& a = sites_[static_cast<std::size_t>(low)];
  Site& b = sites_[static_cast<std::size_t>(low) + 1];
  QDB_REQUIRE(a.chi_r == b.chi_l, "mps bond mismatch");
  const auto cl = static_cast<std::size_t>(a.chi_l);
  const auto cm = static_cast<std::size_t>(a.chi_r);
  const auto cr = static_cast<std::size_t>(b.chi_r);

  // theta(l, pa, pb, r) = sum_m a(l, pa, m) * b(m, pb, r)
  ws_.theta.assign(cl * 4 * cr, cplx{});
  cplx* theta = ws_.theta.data();
  for (std::size_t l = 0; l < cl; ++l)
    for (std::size_t pa = 0; pa < 2; ++pa)
      for (std::size_t m = 0; m < cm; ++m) {
        const cplx av = a.data[(l * 2 + pa) * cm + m];
        if (is_zero(av)) continue;
        const double xr = av.real(), xi = av.imag();
        for (std::size_t pb = 0; pb < 2; ++pb) {
          const cplx* brow = b.data.data() + (m * 2 + pb) * cr;
          cplx* trow = theta + ((l * 2 + pa) * 2 + pb) * cr;
          for (std::size_t r = 0; r < cr; ++r) {
            const double yr = brow[r].real(), yi = brow[r].imag();
            trow[r] = cplx{trow[r].real() + (xr * yr - xi * yi),
                           trow[r].imag() + (xr * yi + xi * yr)};
          }
        }
      }

  // Apply the gate on the two physical indices.  The gate matrix is indexed
  // by |q1 q0> where q0 is the first operand: row = 2*bit(q1) + bit(q0).
  // The result, reshaped to (cl*2) x (2*cr), goes straight into the SVD's
  // column-major input: entry (l*2 + pa, pb*cr + r).
  const std::size_t m_rows = cl * 2;
  const std::size_t n_cols = 2 * cr;
  ws_.g.resize(m_rows * n_cols);
  cplx* g = ws_.g.data();
  for (std::size_t l = 0; l < cl; ++l)
    for (std::size_t r = 0; r < cr; ++r)
      for (std::size_t pa = 0; pa < 2; ++pa)
        for (std::size_t pb = 0; pb < 2; ++pb) {
          const std::size_t row = first_is_low ? pb * 2 + pa : pa * 2 + pb;
          double acc_r = 0.0, acc_i = 0.0;
          for (std::size_t qa = 0; qa < 2; ++qa)
            for (std::size_t qb = 0; qb < 2; ++qb) {
              const std::size_t col = first_is_low ? qb * 2 + qa : qa * 2 + qb;
              const double ur = u[row][col].real(), ui = u[row][col].imag();
              const cplx t = theta[((l * 2 + qa) * 2 + qb) * cr + r];
              acc_r += ur * t.real() - ui * t.imag();
              acc_i += ur * t.imag() + ui * t.real();
            }
          g[(pb * cr + r) * m_rows + l * 2 + pa] = cplx{acc_r, acc_i};
        }

  jacobi_svd(static_cast<int>(m_rows), static_cast<int>(n_cols));
  const double* norms = ws_.norms.data();
  const int* order = ws_.order.data();
  auto sv = [&](std::size_t i) { return norms[static_cast<std::size_t>(order[i])]; };
  const std::size_t k = std::min(m_rows, n_cols);

  // Truncate: drop singular values below tol * s_max and cap at max_bond.
  int keep = 0;
  const double smax = sv(0);
  for (std::size_t i = 0; i < k; ++i) {
    if (sv(i) > trunc_tol_ * smax && keep < max_bond_) ++keep;
  }
  keep = std::max(keep, 1);
  double kept_w = 0.0, all_w = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    all_w += sv(i) * sv(i);
    if (i < static_cast<std::size_t>(keep)) kept_w += sv(i) * sv(i);
  }
  truncated_weight_ += all_w - kept_w;
  // Truncation accounting (ISSUE 3 invariant catalog): the kept rank must
  // respect the bond cap, and discarded weight is a sum of squares — it can
  // only ever grow, and can dip below zero only by rounding.
  QDB_ASSERT(keep >= 1 && keep <= max_bond_,
             "SVD kept rank outside [1, max_bond]: keep=" << keep
                 << " max_bond=" << max_bond_);
  QDB_ASSERT(std::isfinite(truncated_weight_) && truncated_weight_ >= -1e-12,
             "truncated weight not a finite non-negative sum: "
                 << truncated_weight_);
  // Renormalise the kept weight so the state stays a unit vector.
  const double rescale = kept_w > 0.0 ? std::sqrt(all_w / kept_w) : 1.0;

  // a <- U (columns scaled to unit norm), b <- s * rescale * V^dag.
  const auto kept = static_cast<std::size_t>(keep);
  const cplx* v = ws_.v.data();
  a.chi_r = keep;
  a.data.resize(cl * 2 * kept);
  for (std::size_t kk = 0; kk < kept; ++kk) {
    const auto j = static_cast<std::size_t>(order[kk]);
    const double s = norms[j];
    for (std::size_t row = 0; row < m_rows; ++row) {
      const cplx z = g[j * m_rows + row];
      a.data[row * kept + kk] = s > 0.0 ? cplx{z.real() / s, z.imag() / s} : cplx{};
    }
  }
  b.chi_l = keep;
  b.data.resize(kept * 2 * cr);
  for (std::size_t kk = 0; kk < kept; ++kk) {
    const auto j = static_cast<std::size_t>(order[kk]);
    const double scale = norms[j] * rescale;
    for (std::size_t col = 0; col < n_cols; ++col) {
      const cplx z = v[j * n_cols + col];
      b.data[kk * n_cols + col] = cplx{z.real() * scale, -z.imag() * scale};
    }
  }
}

void MpsSimulator::swap_adjacent(int low) {
  apply_2q_adjacent(gate_matrix_2q(GateKind::SWAP), low, true);
}

void MpsSimulator::apply(const Gate& g) {
  QDB_REQUIRE(g.q0 < num_qubits_ && g.q1 < num_qubits_, "gate qubit out of range");
  if (!is_two_qubit(g.kind)) {
    apply_1q(gate_matrix_1q(g.kind, g.angle), g.q0);
    return;
  }
  // Route the first operand next to the second with exact adjacent swaps,
  // then undo them in reverse order.
  const int start = g.q0;
  int a = g.q0;
  const int b = g.q1;
  while (std::abs(a - b) > 1) {
    swap_adjacent(a < b ? a : a - 1);
    a += (a < b) ? 1 : -1;
  }
  apply_2q_adjacent(gate_matrix_2q(g.kind), std::min(a, b), /*first_is_low=*/a < b);
  if (start < a) {
    for (int step = a - 1; step >= start; --step) swap_adjacent(step);
  } else {
    for (int step = a; step < start; ++step) swap_adjacent(step);
  }
}

void MpsSimulator::apply(const Circuit& c) {
  QDB_REQUIRE(c.num_qubits() <= num_qubits_, "circuit wider than mps");
  fault_site("engine.mps.apply");  // deterministic fault injection (ISSUE 2)
  for (const Gate& g : c.gates()) apply(g);
  // Chain structural audit (ISSUE 3): adjacent site tensors must agree on
  // their shared bond dimension, every bond must respect the cap, and the
  // boundary bonds are trivial.  (Deliberately *not* a global-norm check:
  // truncation renormalises locally, so the global norm is not an invariant
  // here — see the class comment in mps.h.)
  if constexpr (check::audit_enabled()) {
    QDB_AUDIT(sites_.front().chi_l == 1 && sites_.back().chi_r == 1,
              "MPS boundary bonds not trivial: chi_l0="
                  << sites_.front().chi_l
                  << " chi_rN=" << sites_.back().chi_r);
    for (std::size_t q = 0; q < sites_.size(); ++q) {
      const Site& s = sites_[q];
      QDB_AUDIT(s.chi_l >= 1 && s.chi_r >= 1 && s.chi_l <= max_bond_ &&
                    s.chi_r <= max_bond_,
                "MPS bond dimension out of range at site "
                    << q << ": chi_l=" << s.chi_l << " chi_r=" << s.chi_r
                    << " max_bond=" << max_bond_);
      if (q + 1 < sites_.size()) {
        QDB_AUDIT(s.chi_r == sites_[q + 1].chi_l,
                  "MPS bond mismatch between sites " << q << " and " << q + 1
                      << ": chi_r=" << s.chi_r
                      << " next chi_l=" << sites_[q + 1].chi_l);
      }
    }
  }
}

cplx MpsSimulator::amplitude(std::uint64_t x) const {
  std::vector<cplx> vec{1.0};
  for (int q = 0; q < num_qubits_; ++q) {
    const Site& s = sites_[static_cast<std::size_t>(q)];
    const int p = static_cast<int>((x >> q) & 1);
    std::vector<cplx> next(static_cast<std::size_t>(s.chi_r), cplx{});
    for (int l = 0; l < s.chi_l; ++l) {
      if (vec[static_cast<std::size_t>(l)] == cplx{}) continue;
      for (int r = 0; r < s.chi_r; ++r)
        next[static_cast<std::size_t>(r)] += vec[static_cast<std::size_t>(l)] *
            s.data[(static_cast<std::size_t>(l) * 2 + static_cast<std::size_t>(p)) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(r)];
    }
    vec = std::move(next);
  }
  return vec[0];
}

void MpsSimulator::right_environments() const {
  const auto n = static_cast<std::size_t>(num_qubits_);
  // Environment n is the scalar 1 at offset 0; environment q follows it.
  ws_.env_at.resize(n + 1);
  ws_.env_at[n] = 0;
  std::size_t size = 1;
  for (std::size_t q = n; q-- > 0;) {
    ws_.env_at[q] = size;
    const auto chi = static_cast<std::size_t>(sites_[q].chi_l);
    size += chi * chi;
  }
  ws_.env.assign(size, cplx{});
  ws_.env[0] = cplx{1.0, 0.0};
  for (std::size_t q = n; q-- > 0;) {
    const Site& s = sites_[q];
    const auto chi_l = static_cast<std::size_t>(s.chi_l);
    const auto chi_r = static_cast<std::size_t>(s.chi_r);
    const cplx* right = ws_.env.data() + ws_.env_at[q + 1];
    cplx* e = ws_.env.data() + ws_.env_at[q];
    // e(l, l') = sum_p sum_{r, r'} A(l,p,r) right(r,r') conj(A(l',p,r'))
    for (std::size_t p = 0; p < 2; ++p) {
      // tmp(l, r') = sum_r A(l,p,r) right(r, r')
      ws_.env_tmp.assign(chi_l * chi_r, cplx{});
      cplx* tmp = ws_.env_tmp.data();
      for (std::size_t l = 0; l < chi_l; ++l)
        for (std::size_t r = 0; r < chi_r; ++r) {
          const cplx av = s.data[(l * 2 + p) * chi_r + r];
          if (is_zero(av)) continue;
          const double xr = av.real(), xi = av.imag();
          cplx* trow = tmp + l * chi_r;
          const cplx* rrow = right + r * chi_r;
          for (std::size_t rp = 0; rp < chi_r; ++rp) {
            const double yr = rrow[rp].real(), yi = rrow[rp].imag();
            trow[rp] = cplx{trow[rp].real() + (xr * yr - xi * yi),
                            trow[rp].imag() + (xr * yi + xi * yr)};
          }
        }
      for (std::size_t l = 0; l < chi_l; ++l)
        for (std::size_t lp = 0; lp < chi_l; ++lp) {
          const cplx* trow = tmp + l * chi_r;
          const cplx* arow = s.data.data() + (lp * 2 + p) * chi_r;
          double acc_r = 0.0, acc_i = 0.0;
          for (std::size_t rp = 0; rp < chi_r; ++rp) {
            const double xr = trow[rp].real(), xi = trow[rp].imag();
            const double yr = arow[rp].real(), yi = -arow[rp].imag();
            acc_r += xr * yr - xi * yi;
            acc_i += xr * yi + xi * yr;
          }
          e[l * chi_l + lp] = cplx{e[l * chi_l + lp].real() + acc_r,
                                   e[l * chi_l + lp].imag() + acc_i};
        }
    }
  }
}

double MpsSimulator::norm2() const {
  right_environments();
  return ws_.env[ws_.env_at[0]].real();
}

void MpsSimulator::normalize() {
  const double n2 = norm2();
  if (n2 <= 0.0) return;
  const double scale = 1.0 / std::sqrt(n2);
  for (cplx& v : sites_[0].data) v *= scale;
}

std::vector<std::uint64_t> MpsSimulator::sample(std::size_t shots, Rng& rng) const {
  static obs::Counter& steps_computed = obs::counter("quantum.mps.sample_steps.computed");
  static obs::Counter& steps_reused = obs::counter("quantum.mps.sample_steps.reused");
  // The prefix tree's share of kSampleMemoBytes: a third for the node
  // table, the rest for conditional vectors.
  constexpr std::size_t kNodes = kSampleMemoBytes / 3 / sizeof(SampleNode);
  constexpr std::size_t kPool =
      (kSampleMemoBytes - kNodes * sizeof(SampleNode)) / sizeof(cplx);

  right_environments();
  std::vector<SampleNode>& nodes = ws_.nodes;
  std::vector<cplx>& pool = ws_.pool;
  nodes.reserve(kNodes);  // capacity is never exceeded, so pointers stay valid
  pool.reserve(kPool);
  nodes.assign(1, SampleNode{});         // root: the empty prefix ...
  pool.assign(1, cplx{1.0, 0.0});        // ... whose row vector is (1)
  std::size_t max_chi = 1;
  for (const Site& s : sites_) max_chi = std::max(max_chi, static_cast<std::size_t>(s.chi_r));
  ws_.scratch.resize(4 * max_chi);  // two (cand0, cand1) pairs, used in turn

  std::uint64_t computed = 0, reused = 0;
  std::vector<std::uint64_t> out(shots);
  for (std::size_t shot = 0; shot < shots; ++shot) {
    std::uint32_t node = 0;
    bool in_tree = true;  // vec is the stored vector of `node`
    const cplx* vec = pool.data();
    std::size_t pair = 0;
    std::uint64_t x = 0;
    for (int q = 0; q < num_qubits_; ++q) {
      const Site& s = sites_[static_cast<std::size_t>(q)];
      const auto chi_r = static_cast<std::size_t>(s.chi_r);
      const cplx* right = ws_.env.data() + ws_.env_at[static_cast<std::size_t>(q) + 1];
      double prob[2];
      const cplx* cand[2];
      if (in_tree && nodes[node].child[0] != 0) {
        ++reused;
        const SampleNode& nd = nodes[node];
        prob[0] = nd.prob[0];
        prob[1] = nd.prob[1];
        cand[0] = pool.data() + nodes[nd.child[0]].vec;
        cand[1] = pool.data() + nodes[nd.child[1]].vec;
      } else {
        ++computed;
        // Store the expansion while the tree has room; once it is full (or
        // this shot has left it), expand in scratch.
        const std::size_t at = pool.size();
        in_tree = in_tree && nodes.size() + 2 <= kNodes && at + 2 * chi_r <= kPool;
        cplx* dst;
        if (in_tree) {
          pool.resize(at + 2 * chi_r);
          dst = pool.data() + at;
        } else {
          dst = ws_.scratch.data() + pair * 2 * max_chi;
          pair ^= 1;
        }
        expand_prefix(s.data.data(), static_cast<std::size_t>(s.chi_l), chi_r, vec, right,
                      dst, prob);
        if (in_tree) {
          SampleNode& nd = nodes[node];
          nd.prob[0] = prob[0];
          nd.prob[1] = prob[1];
          nd.child[0] = static_cast<std::uint32_t>(nodes.size());
          nd.child[1] = static_cast<std::uint32_t>(nodes.size() + 1);
          SampleNode child;
          child.vec = static_cast<std::uint32_t>(at);
          nodes.push_back(child);
          child.vec = static_cast<std::uint32_t>(at + chi_r);
          nodes.push_back(child);
        }
        cand[0] = dst;
        cand[1] = dst + chi_r;
      }
      const double total = prob[0] + prob[1];
      const int bit = (total <= 0.0) ? 0 : (rng.uniform() * total < prob[0] ? 0 : 1);
      if (bit) x |= std::uint64_t{1} << q;
      vec = cand[bit];
      if (in_tree) node = nodes[node].child[bit];
    }
    out[shot] = x;
  }
  steps_computed.add(computed);
  steps_reused.add(reused);
  return out;
}

double MpsSimulator::expectation_diagonal_sampled(
    const std::function<double(std::uint64_t)>& f, std::size_t shots, Rng& rng) const {
  QDB_REQUIRE(shots > 0, "expectation needs at least one shot");
  const auto xs = sample(shots, rng);
  double acc = 0.0;
  for (std::uint64_t x : xs) acc += f(x);
  return acc / static_cast<double>(shots);
}

}  // namespace qdb
