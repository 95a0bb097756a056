// AutoDock Vina scoring function (Trott & Olson 2010), used for all docking
// evaluations in the paper (§4.2, §6.1.2).
//
// Intermolecular score between receptor and ligand heavy atoms within an
// 8 A cutoff, as a function of the surface distance
// d_surf = d - R_i - R_j (van der Waals radii by element):
//
//   gauss1      -0.035579 * exp(-(d_surf / 0.5)^2)
//   gauss2      -0.005156 * exp(-((d_surf - 3) / 2)^2)
//   repulsion    0.840245 * d_surf^2            (d_surf < 0)
//   hydrophobic -0.035069 * slope(0.5, 1.5)     (both atoms hydrophobic)
//   h-bond      -0.587439 * slope(-0.7, 0)      (donor-acceptor pair)
//
// Binding affinity (kcal/mol) of a pose divides the intermolecular energy
// by 1 + w_rot * N_rot with w_rot = 0.05846, penalising flexible ligands.
// Hydrogens are ignored (united-atom model); only heavy atoms score.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dock/ligand.h"
#include "structure/molecule.h"

namespace qdb {

/// Typed receptor atom ready for scoring.
struct ReceptorAtom {
  Vec3 pos;
  char element = 'C';
  bool hydrophobic = false;
  bool donor = false;
  bool acceptor = false;
};

/// Van der Waals radius by element (Vina's values, Angstroms).
double vdw_radius(char element);

/// Type the receptor's heavy atoms for scoring: side-chain carbons of
/// hydrophobic residues are hydrophobic, backbone N donates, O accepts,
/// side-chain terminal N/O follow their residue chemistry.
std::vector<ReceptorAtom> type_receptor(const Structure& receptor);

/// Vina term weights (exposed for the scoring ablation bench).
struct VinaWeights {
  double gauss1 = -0.035579;
  double gauss2 = -0.005156;
  double repulsion = 0.840245;
  double hydrophobic = -0.035069;
  double hbond = -0.587439;
  double rot_penalty = 0.05846;
};

/// Linear slope that is 1 below `good`, 0 above `bad`: the clamp of the
/// ramp quotient, which is exactly 1 or 0 outside (good, bad).
inline double vina_slope(double x, double good, double bad) {
  return std::min(std::max((bad - x) / (bad - good), 0.0), 1.0);
}

/// The Vina pair term at surface distance `ds` (d - R_i - R_j), added to
/// `acc` one sub-term at a time in the header's order.  This is the only
/// implementation of the pair expression: the docking score, the screening
/// grid and the imprint relaxation all call it, each with its own loop order
/// and cutoff test.  A term that does not apply adds +0.0, which leaves any
/// sum started at +0.0 bit-unchanged (DESIGN.md §16).
inline void add_pair_term(double& acc, double ds, bool hydrophobic_pair, bool hbond_pair,
                          const VinaWeights& w) {
  acc += w.gauss1 * std::exp(-(ds / 0.5) * (ds / 0.5));
  const double g2 = (ds - 3.0) / 2.0;
  acc += w.gauss2 * std::exp(-g2 * g2);
  acc += ds < 0.0 ? w.repulsion * ds * ds : 0.0;
  acc += hydrophobic_pair ? w.hydrophobic * vina_slope(ds, 0.5, 1.5) : 0.0;
  acc += hbond_pair ? w.hbond * vina_slope(ds, -0.7, 0.0) : 0.0;
}

/// Uniform-cell list over receptor atoms for neighbour lookup within the
/// scoring cutoff.  Cells are one cutoff wide and stored densely (CSR: cell
/// offsets plus atom slots); a point's candidates are the 27 cells around
/// its own.  Slots hold each atom's coordinates, radius and type flags,
/// ordered by (x, y, z) cell and then by receptor index, so a walk over the
/// cells in (x, y, z) order visits atoms in one fixed order — the order every
/// Vina sum in the tree accumulates in (DESIGN.md §16).
class ReceptorGrid {
 public:
  explicit ReceptorGrid(std::vector<ReceptorAtom> atoms, double cutoff = 8.0);

  /// Visit the receptor indices of the atoms in the 27 cells around `p`
  /// (a superset of those within the cutoff), in walk order.  A point whose
  /// cell block misses the grid, or with a non-finite coordinate, visits
  /// nothing.
  template <typename Fn>
  void for_neighbors(const Vec3& p, Fn&& fn) const {
    for_slot_runs(p, [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) fn(slot_index_[s]);
    });
  }

  /// Visit the Vina pair term of ligand atom `la` at `p` with every
  /// receptor atom within the cutoff, in walk order — the per-atom term
  /// routine intermolecular_energy and PoseScorer both sum.
  template <typename Fn>
  void for_pair_terms(const Vec3& p, const LigandAtom& la, const VinaWeights& w,
                      Fn&& fn) const {
    const double cutoff2 = cutoff_ * cutoff_;
    const double lr = vdw_radius(la.element);
    const std::uint8_t hydrophobic = la.hydrophobic ? kHydrophobic : 0;
    const std::uint8_t hbond =
        static_cast<std::uint8_t>((la.donor ? kAcceptor : 0) | (la.acceptor ? kDonor : 0));
    // Per block of slots: first compact the ones within the cutoff without
    // a branch (the test is data-dependent and mispredicts), then score them
    // in slot order.  Entries below m were all written in this block.
    for_slot_runs(p, [&](std::size_t begin, std::size_t end) {
      constexpr std::size_t kBlock = 64;
      std::size_t hit[kBlock];
      double hit_d2[kBlock];
      for (std::size_t b = begin; b < end; b += kBlock) {
        const std::size_t n = std::min(kBlock, end - b);
        std::size_t m = 0;
        for (std::size_t s = b; s < b + n; ++s) {
          const double d2 = p.distance2(Vec3{slot_x_[s], slot_y_[s], slot_z_[s]});
          hit[m] = s;
          hit_d2[m] = d2;
          m += !(d2 > cutoff2);
        }
        for (std::size_t i = 0; i < m; ++i) {
          const std::size_t s = hit[i];
          double e = 0.0;
          add_pair_term(e, std::sqrt(hit_d2[i]) - lr - slot_radius_[s],
                        (slot_flags_[s] & hydrophobic) != 0, (slot_flags_[s] & hbond) != 0, w);
          fn(e);
        }
      }
    });
  }

 private:
  static constexpr std::uint8_t kHydrophobic = 1;
  static constexpr std::uint8_t kDonor = 2;
  static constexpr std::uint8_t kAcceptor = 4;

  /// Call fn(begin, end) for each contiguous slot run of the 27-cell block
  /// around `p`: one run per (x, y) column, covering its z cells.
  template <typename Fn>
  void for_slot_runs(const Vec3& p, Fn&& fn) const {
    const double fx = std::floor((p.x - origin_.x) / cell_);
    const double fy = std::floor((p.y - origin_.y) / cell_);
    const double fz = std::floor((p.z - origin_.z) / cell_);
    // Range-check in floating point before converting: a far or NaN
    // coordinate has no cell within one step of the grid.
    if (!(fx >= -1.0 && fx <= nx_ && fy >= -1.0 && fy <= ny_ && fz >= -1.0 && fz <= nz_)) return;
    const int cx = static_cast<int>(fx);
    const int cy = static_cast<int>(fy);
    const int cz = static_cast<int>(fz);
    const int z0 = cz > 0 ? cz - 1 : 0;
    const int z1 = cz + 1 < nz_ ? cz + 1 : nz_ - 1;
    for (int x = cx - 1; x <= cx + 1; ++x) {
      if (x < 0 || x >= nx_) continue;
      for (int y = cy - 1; y <= cy + 1; ++y) {
        if (y < 0 || y >= ny_) continue;
        const auto column = static_cast<std::size_t>((x * ny_ + y) * nz_);
        fn(cell_start_[column + static_cast<std::size_t>(z0)],
           cell_start_[column + static_cast<std::size_t>(z1) + 1]);
      }
    }
  }

  double cutoff_;
  double cell_;
  Vec3 origin_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<std::size_t> cell_start_;  // nx*ny*nz + 1 slot offsets
  std::vector<int> slot_index_;          // receptor index of each slot
  std::vector<double> slot_x_, slot_y_, slot_z_, slot_radius_;
  std::vector<std::uint8_t> slot_flags_;
};

/// Intermolecular energy of ligand coordinates against the receptor grid:
/// the pair terms of every heavy ligand atom, summed in (ligand atom, walk)
/// order.
double intermolecular_energy(const ReceptorGrid& grid, const Ligand& ligand,
                             const std::vector<Vec3>& coords,
                             const VinaWeights& w = VinaWeights{});

/// Affinity (kcal/mol): intermolecular energy scaled by the torsion penalty.
double affinity_from_energy(double inter_energy, int num_torsions,
                            const VinaWeights& w = VinaWeights{});

/// Incremental pose scoring for a docking search.  The scorer keeps a
/// reference pose: each heavy ligand atom's world coordinates and its list
/// of pair terms in walk order.  Scoring a candidate recomputes the terms of
/// the atoms whose coordinates differ bitwise from the reference and reuses
/// the others' lists, then sums every term serially in intermolecular_energy's
/// order — the same addends in the same order, so score(pose) is bit-identical
/// to affinity_from_energy(intermolecular_energy(...)).  Which pose is the
/// reference affects speed only.  One scorer per thread.
class PoseScorer {
 public:
  PoseScorer(const ReceptorGrid& grid, const Ligand& ligand, const VinaWeights& w);

  /// Affinity (kcal/mol) of `pose`.
  double score(const Pose& pose);

  /// Make the last scored pose the reference.  Repeated commits without a
  /// score in between are no-ops.
  void commit();

  /// Heavy-atom term lists recomputed / reused so far.
  std::uint64_t atoms_computed() const { return atoms_computed_; }
  std::uint64_t atoms_reused() const { return atoms_reused_; }

 private:
  const ReceptorGrid& grid_;
  const Ligand& ligand_;
  VinaWeights weights_;
  std::vector<std::size_t> heavy_;  // ligand indices of the heavy atoms

  // Per heavy atom: the reference, and the last scored pose where its
  // coordinates differ from the reference (moved_).
  std::vector<Vec3> ref_pos_, last_pos_;
  std::vector<std::vector<double>> ref_terms_, last_terms_;
  std::vector<char> moved_;
  bool has_reference_ = false;
  bool uncommitted_ = false;

  std::uint64_t atoms_computed_ = 0;
  std::uint64_t atoms_reused_ = 0;
};

}  // namespace qdb
