#include "dock/vina_score.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/error.h"

namespace qdb {

double vdw_radius(char element) {
  switch (element) {
    case 'C': return 1.9;
    case 'N': return 1.8;
    case 'O': return 1.7;
    case 'S': return 2.0;
    case 'H': return 1.0;
    default: return 1.9;
  }
}

std::vector<ReceptorAtom> type_receptor(const Structure& receptor) {
  std::vector<ReceptorAtom> out;
  for (const Residue& r : receptor.residues) {
    const bool hydrophobic_residue = aa_class(r.type) == ResidueClass::Hydrophobic;
    for (const Atom& a : r.atoms) {
      if (a.is_hydrogen()) continue;  // united-atom model
      ReceptorAtom t;
      t.pos = a.pos;
      t.element = a.element;
      if (a.element == 'C') {
        // Backbone carbons are bonded to polar atoms; side-chain carbons of
        // hydrophobic residues drive the hydrophobic term.
        t.hydrophobic = !a.is_backbone() && hydrophobic_residue;
      } else if (a.element == 'N') {
        t.donor = true;  // backbone amide and positive side-chain nitrogens
        t.acceptor = !a.is_backbone() && aa_charge(r.type) <= 0;
      } else if (a.element == 'O') {
        t.acceptor = true;
        t.donor = (r.type == AminoAcid::Ser || r.type == AminoAcid::Thr ||
                   r.type == AminoAcid::Tyr);  // hydroxyls donate too
      } else if (a.element == 'S') {
        t.acceptor = true;
        t.hydrophobic = true;  // thioether sulfurs behave hydrophobically
      }
      out.push_back(t);
    }
  }
  return out;
}

ReceptorGrid::ReceptorGrid(std::vector<ReceptorAtom> atoms, double cutoff)
    : cutoff_(cutoff), cell_(cutoff) {
  QDB_REQUIRE(!atoms.empty(), "receptor grid needs atoms");
  QDB_REQUIRE(cutoff > 0.0, "cutoff must be positive");
  origin_ = atoms[0].pos;
  Vec3 hi = atoms[0].pos;
  for (const ReceptorAtom& a : atoms) {
    QDB_REQUIRE(std::isfinite(a.pos.x) && std::isfinite(a.pos.y) && std::isfinite(a.pos.z),
                "receptor atom coordinates must be finite");
    origin_.x = std::min(origin_.x, a.pos.x); hi.x = std::max(hi.x, a.pos.x);
    origin_.y = std::min(origin_.y, a.pos.y); hi.y = std::max(hi.y, a.pos.y);
    origin_.z = std::min(origin_.z, a.pos.z); hi.z = std::max(hi.z, a.pos.z);
  }
  const auto cells_to = [&](double extent) {
    const double n = std::floor(extent / cell_) + 1.0;
    QDB_REQUIRE(n <= 4096.0, "receptor extent too large for the cell list");
    return static_cast<int>(n);
  };
  nx_ = cells_to(hi.x - origin_.x);
  ny_ = cells_to(hi.y - origin_.y);
  nz_ = cells_to(hi.z - origin_.z);
  const std::size_t num_cells = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) *
                                static_cast<std::size_t>(nz_);
  QDB_REQUIRE(num_cells <= (std::size_t{1} << 22), "receptor extent too large for the cell list");

  // Counting sort by flat cell: a stable pass keeps receptor index order
  // within each cell.
  std::vector<std::size_t> cell_of(atoms.size());
  cell_start_.assign(num_cells + 1, 0);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const Vec3 rel = atoms[i].pos - origin_;
    const auto cx = static_cast<std::size_t>(std::floor(rel.x / cell_));
    const auto cy = static_cast<std::size_t>(std::floor(rel.y / cell_));
    const auto cz = static_cast<std::size_t>(std::floor(rel.z / cell_));
    cell_of[i] = (cx * static_cast<std::size_t>(ny_) + cy) * static_cast<std::size_t>(nz_) + cz;
    QDB_ASSERT(cell_of[i] < num_cells, "receptor atom outside its own cell list");
    ++cell_start_[cell_of[i] + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) cell_start_[c + 1] += cell_start_[c];

  std::vector<std::size_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  slot_index_.resize(atoms.size());
  slot_x_.resize(atoms.size());
  slot_y_.resize(atoms.size());
  slot_z_.resize(atoms.size());
  slot_radius_.resize(atoms.size());
  slot_flags_.resize(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const ReceptorAtom& a = atoms[i];
    const std::size_t s = fill[cell_of[i]]++;
    slot_index_[s] = static_cast<int>(i);
    slot_x_[s] = a.pos.x;
    slot_y_[s] = a.pos.y;
    slot_z_[s] = a.pos.z;
    slot_radius_[s] = vdw_radius(a.element);
    slot_flags_[s] = static_cast<std::uint8_t>((a.hydrophobic ? kHydrophobic : 0) |
                                               (a.donor ? kDonor : 0) |
                                               (a.acceptor ? kAcceptor : 0));
  }
}

double intermolecular_energy(const ReceptorGrid& grid, const Ligand& ligand,
                             const std::vector<Vec3>& coords, const VinaWeights& w) {
  QDB_REQUIRE(coords.size() == static_cast<std::size_t>(ligand.num_atoms()),
              "coords/ligand mismatch");
  double total = 0.0;
  for (std::size_t li = 0; li < coords.size(); ++li) {
    const LigandAtom& la = ligand.atoms()[li];
    if (la.element == 'H') continue;
    grid.for_pair_terms(coords[li], la, w, [&](double e) { total += e; });
  }
  return total;
}

double affinity_from_energy(double inter_energy, int num_torsions, const VinaWeights& w) {
  return inter_energy / (1.0 + w.rot_penalty * static_cast<double>(num_torsions));
}

namespace {

bool same_bits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

}  // namespace

PoseScorer::PoseScorer(const ReceptorGrid& grid, const Ligand& ligand, const VinaWeights& w)
    : grid_(grid), ligand_(ligand), weights_(w) {
  for (std::size_t i = 0; i < ligand.atoms().size(); ++i) {
    if (ligand.atoms()[i].element != 'H') heavy_.push_back(i);
  }
  ref_pos_.resize(heavy_.size());
  last_pos_.resize(heavy_.size());
  ref_terms_.resize(heavy_.size());
  last_terms_.resize(heavy_.size());
  moved_.assign(heavy_.size(), 0);
}

double PoseScorer::score(const Pose& pose) {
  const std::vector<Vec3> coords = ligand_.conformation(pose);
  double total = 0.0;
  for (std::size_t k = 0; k < heavy_.size(); ++k) {
    const Vec3& p = coords[heavy_[k]];
    moved_[k] = !has_reference_ || !same_bits(p, ref_pos_[k]);
    if (!moved_[k]) {
      for (double e : ref_terms_[k]) total += e;
      ++atoms_reused_;
      continue;
    }
    std::vector<double>& terms = last_terms_[k];
    terms.clear();
    grid_.for_pair_terms(p, ligand_.atoms()[heavy_[k]], weights_, [&](double e) {
      terms.push_back(e);
      total += e;
    });
    last_pos_[k] = p;
    ++atoms_computed_;
  }
  uncommitted_ = true;
  return affinity_from_energy(total, ligand_.num_torsions(), weights_);
}

void PoseScorer::commit() {
  if (!uncommitted_) return;  // the reference already is the last scored pose
  for (std::size_t k = 0; k < heavy_.size(); ++k) {
    if (!moved_[k]) continue;
    ref_pos_[k] = last_pos_[k];
    std::swap(ref_terms_[k], last_terms_[k]);
  }
  has_reference_ = true;
  uncommitted_ = false;
}

}  // namespace qdb
