// Matrix-product-state (MPS) simulator.
//
// The EfficientSU2 ansatz the paper runs (RY/RZ layers + linear CX
// entanglement, paper §4.3.2) generates little entanglement per layer, so an
// MPS with a modest bond dimension simulates the full 22-qubit L-group
// circuits in milliseconds where a dense statevector would need 4M
// amplitudes.  This mirrors Qiskit Aer's "matrix_product_state" method.
//
// Sites are qubits in index order; two-qubit gates on non-adjacent qubits are
// routed with exact adjacent SWAP applications.  Truncation keeps at most
// `max_bond` singular values per bond and drops values below
// `trunc_tol * s_max`; the accumulated discarded weight is tracked.
//
// The simulator owns reusable scratch buffers (DESIGN.md §17), so its const
// members (norm2, sample) must not run concurrently on one object either.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "quantum/circuit.h"

namespace qdb {

class MpsSimulator {
 public:
  explicit MpsSimulator(int num_qubits, int max_bond = 64, double trunc_tol = 1e-12);

  int num_qubits() const { return num_qubits_; }

  /// Reset to |0...0>.
  void reset();

  void apply(const Gate& g);
  void apply(const Circuit& c);

  /// Largest bond dimension currently in the state.
  int max_bond_reached() const;

  /// Local estimate of the squared-norm weight discarded by truncation so
  /// far.  (Exact only when truncating in canonical form; use norm2() for
  /// the true global norm.)
  double truncation_weight() const { return truncated_weight_; }

  /// Rescale the state to unit norm (useful after aggressive truncation,
  /// where local renormalisation cannot preserve the global norm exactly).
  void normalize();

  /// Amplitude <x|psi> of one basis state (qubit 0 = low bit of x).
  cplx amplitude(std::uint64_t x) const;

  /// Squared norm of the state (1.0 up to truncation).
  double norm2() const;

  /// Draw `shots` measurement outcomes by sequential conditional sampling.
  /// Shots are drawn one after another with one rng.uniform() per qubit;
  /// prefixes shared between shots are expanded once (see kSampleMemoBytes).
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng) const;

  /// Monte-Carlo estimate of <psi| f |psi> for a diagonal operator using
  /// `shots` samples (how hardware estimates the folding Hamiltonian).
  double expectation_diagonal_sampled(const std::function<double(std::uint64_t)>& f,
                                      std::size_t shots, Rng& rng) const;

  /// Memory bound of the sampler's prefix tree, node table included.  It is
  /// reserved whole on the first sample() and never grows; once full, the
  /// remaining expansions of a call are computed in fixed scratch and not
  /// stored.
  static constexpr std::size_t kSampleMemoBytes = 192 * 1024;

 private:
  struct Site {
    // Row-major tensor: value(l, p, r) = data[(l * 2 + p) * chi_r + r].
    std::vector<cplx> data;
    int chi_l = 1;
    int chi_r = 1;
  };

  /// One measured prefix in the sampler's prefix tree: the offset of its
  /// conditional row vector in the vector pool and, once expanded, both
  /// outcome probabilities of the next qubit and the two children (0 = not
  /// expanded; the root is node 0 and never a child).
  struct SampleNode {
    double prob[2] = {0.0, 0.0};
    std::uint32_t child[2] = {0, 0};
    std::uint32_t vec = 0;
  };

  /// Buffers reused across gates and sample() calls, so that neither a
  /// two-site update nor a shot allocates once they have reached size.
  struct Workspace {
    std::vector<cplx> theta;  // two-site tensor theta(l, pa, pb, r)
    std::vector<cplx> g;      // Jacobi columns, column-major m x n
    std::vector<cplx> v;      // Jacobi right vectors, column-major n x n
    std::vector<double> norms;          // column norms (squared while sweeping)
    std::vector<unsigned char> stale;   // column changed since its norm was summed
    std::vector<int> order;
    std::vector<cplx> env;          // right environments, flattened
    std::vector<std::size_t> env_at;  // offset of environment q in env
    std::vector<cplx> env_tmp;
    std::vector<SampleNode> nodes;  // prefix tree
    std::vector<cplx> pool;         // conditional vectors of the tree
    std::vector<cplx> scratch;      // expansions past a full tree
  };

  void apply_1q(const std::array<std::array<cplx, 2>, 2>& u, int q);
  /// Two-qubit gate on adjacent sites (low, low+1); first_is_low tells
  /// whether the gate's first operand (its q0) is the low site.
  void apply_2q_adjacent(const std::array<std::array<cplx, 4>, 4>& u, int low,
                         bool first_is_low);
  void swap_adjacent(int low);
  /// One-sided Jacobi SVD of the m x n column-major matrix in ws_.g,
  /// accumulating the right vectors in ws_.v; leaves the column norms in
  /// ws_.norms and their descending order in ws_.order.
  void jacobi_svd(int m, int n);

  /// Right environments for sampling: environment q (at ws_.env_at[q]) is
  /// the chi_q x chi_q contraction of sites q..n-1 with physical indices
  /// summed.
  void right_environments() const;

  int num_qubits_;
  int max_bond_;
  double trunc_tol_;
  double truncated_weight_ = 0.0;
  std::vector<Site> sites_;
  mutable Workspace ws_;
};

}  // namespace qdb
