// Tests for src/dock: ligand pose math, the generator, the Vina scoring
// terms, the receptor grid, pose-RMSD metrics, and full docking runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "dock/dock.h"
#include "dock/ligand_gen.h"
#include "dock/vina_score.h"
#include "lattice/lattice.h"
#include "lattice/solver.h"
#include "obs/metrics.h"
#include "structure/protonate.h"
#include "structure/reconstruct.h"

namespace qdb {
namespace {

constexpr double kPi = 3.14159265358979323846;

Ligand two_atom_probe(char e1 = 'C', char e2 = 'C') {
  std::vector<LigandAtom> atoms(2);
  atoms[0].name = "A1"; atoms[0].element = e1; atoms[0].local_pos = {0, 0, 0};
  atoms[1].name = "A2"; atoms[1].element = e2; atoms[1].local_pos = {1.5, 0, 0};
  return Ligand(std::move(atoms), {}, "probe");
}

Structure test_receptor(const std::string& seq = "LLDTGADDTV") {
  const auto aa = parse_sequence(seq);
  FoldingHamiltonian h(aa, HamiltonianWeights::standard(static_cast<int>(aa.size())));
  const SolveResult ground = ExactSolver().solve(h);
  std::vector<Vec3> trace;
  for (const IVec3& p : walk_positions(ground.turns)) trace.push_back(lattice_to_cartesian(p));
  Structure s = reconstruct_backbone(trace, aa, "test");
  add_polar_hydrogens(s);
  assign_partial_charges(s);
  s.center_on_origin();
  return s;
}

TEST(Ligand, NeutralPoseKeepsLocalGeometry) {
  const Ligand probe = two_atom_probe();
  const auto coords = probe.conformation(probe.neutral_pose());
  ASSERT_EQ(coords.size(), 2u);
  EXPECT_NEAR(coords[0].distance(coords[1]), 1.5, 1e-12);
}

TEST(Ligand, RigidTransformMovesAllAtoms) {
  const Ligand probe = two_atom_probe();
  Pose p = probe.neutral_pose();
  p.translation = {10, 0, 0};
  p.orientation = Quat::from_axis_angle({0, 0, 1}, kPi / 2);
  const auto coords = probe.conformation(p);
  // Distances are preserved by rigid motion.
  EXPECT_NEAR(coords[0].distance(coords[1]), 1.5, 1e-12);
  // The centroid moved to the translation.
  const Vec3 centroid = (coords[0] + coords[1]) * 0.5;
  EXPECT_NEAR(centroid.distance({10, 0, 0}), 0.0, 1e-9);
}

TEST(Ligand, TorsionRotatesOnlyMovedAtoms) {
  std::vector<LigandAtom> atoms(4);
  // Copy-assign from a named string, not a literal: `name = "C"` inlined in
  // this loop trips GCC 12's -Wrestrict false positive (PR105651) at -O2.
  const std::string carbon = "C";
  for (int i = 0; i < 4; ++i) {
    atoms[static_cast<std::size_t>(i)].name = carbon;
    atoms[static_cast<std::size_t>(i)].element = 'C';
    atoms[static_cast<std::size_t>(i)].local_pos = {1.5 * i, 0, 0};
  }
  // Kink the tail so rotation about the x-axis bond actually moves it.
  atoms[3].local_pos = {3.0, 1.5, 0};
  TorsionBond t;
  t.axis_a = 1;
  t.axis_b = 2;
  t.moved = {3};
  const Ligand lig({atoms.begin(), atoms.end()}, {t}, "tors");

  Pose p = lig.neutral_pose();
  const auto before = lig.conformation(p);
  p.torsions[0] = kPi;
  const auto after = lig.conformation(p);
  EXPECT_NEAR(before[0].distance(after[0]), 0.0, 1e-9);
  EXPECT_NEAR(before[1].distance(after[1]), 0.0, 1e-9);
  EXPECT_NEAR(before[2].distance(after[2]), 0.0, 1e-9);
  EXPECT_GT(before[3].distance(after[3]), 1.0);
  // Bond lengths across the torsion are preserved.
  EXPECT_NEAR(after[2].distance(after[3]), before[2].distance(before[3]), 1e-9);
}

TEST(Ligand, ValidatesTopology) {
  std::vector<LigandAtom> atoms(2);
  atoms[0].local_pos = {0, 0, 0};
  atoms[1].local_pos = {1, 0, 0};
  TorsionBond bad;
  bad.axis_a = 0;
  bad.axis_b = 0;
  bad.moved = {1};
  EXPECT_THROW(Ligand({atoms.begin(), atoms.end()}, {bad}, "x"), PreconditionError);
  EXPECT_THROW(Ligand({}, {}, "x"), PreconditionError);
}

TEST(LigandGen, DeterministicPerId) {
  const Ligand a = generate_ligand("4jpy");
  const Ligand b = generate_ligand("4jpy");
  ASSERT_EQ(a.num_atoms(), b.num_atoms());
  for (int i = 0; i < a.num_atoms(); ++i) {
    EXPECT_NEAR(a.atoms()[static_cast<std::size_t>(i)].local_pos.distance(
                    b.atoms()[static_cast<std::size_t>(i)].local_pos), 0.0, 1e-12);
  }
  const Ligand c = generate_ligand("3d7z");
  EXPECT_TRUE(c.num_atoms() != a.num_atoms() ||
              c.atoms()[6].local_pos.distance(a.atoms()[6].local_pos) > 1e-9);
}

TEST(LigandGen, DrugLikeComposition) {
  for (const char* id : {"4jpy", "2qbs", "3ckz", "5nkb", "1ppi"}) {
    const Ligand lig = generate_ligand(id);
    EXPECT_GE(lig.num_atoms(), 8) << id;
    EXPECT_LE(lig.num_atoms(), 30) << id;
    EXPECT_GE(lig.num_torsions(), 1) << id;
    int donors = 0, acceptors = 0, hydrophobes = 0;
    for (const LigandAtom& a : lig.atoms()) {
      donors += a.donor;
      acceptors += a.acceptor;
      hydrophobes += a.hydrophobic;
    }
    EXPECT_GE(hydrophobes, 6) << id;       // the aromatic core at least
    EXPECT_GE(donors + acceptors, 1) << id;
  }
}

TEST(LigandGen, BondLengthsAreChemical) {
  const Ligand lig = generate_ligand("2bok");
  // Ring bonds 1.39, chain bonds 1.5.
  for (int i = 0; i < 6; ++i) {
    const Vec3& a = lig.atoms()[static_cast<std::size_t>(i)].local_pos;
    const Vec3& b = lig.atoms()[static_cast<std::size_t>((i + 1) % 6)].local_pos;
    EXPECT_NEAR(a.distance(b), 1.39, 1e-6);
  }
}

TEST(VinaScore, RadiiAndWeights) {
  EXPECT_DOUBLE_EQ(vdw_radius('C'), 1.9);
  EXPECT_DOUBLE_EQ(vdw_radius('O'), 1.7);
  const VinaWeights w;
  EXPECT_LT(w.gauss1, 0.0);
  EXPECT_GT(w.repulsion, 0.0);
  EXPECT_LT(w.hbond, 0.0);
}

TEST(VinaScore, ContactIsFavourableOverlapIsNot) {
  const Structure rec = test_receptor();
  const ReceptorGrid grid(type_receptor(rec), 8.0);
  const Ligand probe = two_atom_probe();

  // Place the probe at increasing distances from the receptor surface along
  // +x from the centre; find the minimum-energy distance.
  double best_e = 1e9, best_d = 0.0;
  double overlap_e = 0.0;
  for (double d = 0.0; d < 14.0; d += 0.25) {
    Pose p = probe.neutral_pose();
    p.translation = {d, 0, 0};
    const double e = intermolecular_energy(grid, probe, probe.conformation(p));
    if (d == 0.0) overlap_e = e;
    if (e < best_e) {
      best_e = e;
      best_d = d;
    }
  }
  EXPECT_LT(best_e, 0.0);       // somewhere the probe binds favourably
  EXPECT_GT(overlap_e, best_e); // the receptor centre clashes
  EXPECT_GT(best_d, 0.0);
}

TEST(VinaScore, HbondNeedsComplementaryRoles) {
  // A donor probe near a backbone O (acceptor) scores better than a carbon
  // probe at the same spot.
  const Structure rec = test_receptor();
  const ReceptorGrid grid(type_receptor(rec), 8.0);
  // Find a backbone O atom and park the probe at H-bond distance from it.
  Vec3 o_pos;
  for (const Residue& r : rec.residues) {
    if (const Atom* o = r.find("O")) {
      o_pos = o->pos;
      break;
    }
  }
  auto energy_at = [&](const Ligand& probe) {
    Pose p = probe.neutral_pose();
    p.translation = o_pos + Vec3{0.0, 0.0, 2.9};
    return intermolecular_energy(grid, probe, probe.conformation(p));
  };
  Ligand donor = two_atom_probe('N', 'C');
  {
    // Mark the nitrogen as a donor.
    std::vector<LigandAtom> atoms = donor.atoms();
    atoms[0].donor = true;
    donor = Ligand(std::move(atoms), {}, "donor-probe");
  }
  const Ligand carbon = two_atom_probe('C', 'C');
  EXPECT_LT(energy_at(donor), energy_at(carbon));
}

TEST(VinaScore, AffinityTorsionPenalty) {
  EXPECT_DOUBLE_EQ(affinity_from_energy(-8.0, 0), -8.0);
  EXPECT_GT(affinity_from_energy(-8.0, 6), -8.0);  // flexible ligand scores worse
  EXPECT_NEAR(affinity_from_energy(-8.0, 6), -8.0 / (1.0 + 0.05846 * 6), 1e-12);
}

TEST(VinaScore, GridMatchesBruteForceNeighbourhood) {
  const Structure rec = test_receptor("PWWERYQP");
  const auto typed = type_receptor(rec);
  const ReceptorGrid grid(typed, 8.0);
  const Vec3 probe{2.0, -1.0, 3.0};
  std::set<int> from_grid;
  grid.for_neighbors(probe, [&](int i) { from_grid.insert(i); });
  // Every atom within the cutoff must be visited by the grid.
  for (std::size_t i = 0; i < typed.size(); ++i) {
    if (typed[i].pos.distance(probe) <= 8.0) {
      EXPECT_TRUE(from_grid.count(static_cast<int>(i))) << i;
    }
  }
}

TEST(VinaScore, ReceptorTypingFollowsChemistry) {
  const Structure rec = test_receptor("LKDCS");  // Leu, Lys, Asp, Cys, Ser
  const auto typed = type_receptor(rec);
  bool saw_hydrophobic_c = false, saw_donor_n = false, saw_acceptor_o = false;
  for (const ReceptorAtom& a : typed) {
    EXPECT_NE(a.element, 'H');  // united-atom: hydrogens dropped
    saw_hydrophobic_c |= (a.element == 'C' && a.hydrophobic);
    saw_donor_n |= (a.element == 'N' && a.donor);
    saw_acceptor_o |= (a.element == 'O' && a.acceptor);
  }
  EXPECT_TRUE(saw_hydrophobic_c);
  EXPECT_TRUE(saw_donor_n);
  EXPECT_TRUE(saw_acceptor_o);
}

TEST(PoseRmsd, BoundsOrderAndZero) {
  std::vector<Vec3> a{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}};
  EXPECT_DOUBLE_EQ(pose_rmsd_ub(a, a), 0.0);
  EXPECT_DOUBLE_EQ(pose_rmsd_lb(a, a), 0.0);
  // Swapping two identical-role atoms: lb forgives, ub does not.
  std::vector<Vec3> swapped{{1, 0, 0}, {0, 0, 0}, {2, 0, 0}};
  EXPECT_GT(pose_rmsd_ub(a, swapped), 0.5);
  EXPECT_DOUBLE_EQ(pose_rmsd_lb(a, swapped), 0.0);
  EXPECT_LE(pose_rmsd_lb(a, swapped), pose_rmsd_ub(a, swapped));
  EXPECT_THROW(pose_rmsd_ub(a, {{0, 0, 0}}), PreconditionError);
}

TEST(Dock, FindsFavourablePoses) {
  const Structure rec = test_receptor();
  const Ligand lig = generate_ligand("2bok");
  DockingParams params;
  params.num_runs = 6;
  params.mc_steps = 600;
  params.seed = 11;
  const DockingResult r = dock(rec, lig, params);
  ASSERT_FALSE(r.poses.empty());
  EXPECT_LT(r.best_affinity, -1.0);  // something binds
  EXPECT_LE(r.best_affinity, r.mean_affinity + 1e-12);
  EXPECT_EQ(r.run_best.size(), 6u);
  // Poses are sorted best-first.
  for (std::size_t i = 1; i < r.poses.size(); ++i) {
    EXPECT_LE(r.poses[i - 1].affinity, r.poses[i].affinity);
  }
  EXPECT_LE(r.rmsd_lb_mean, r.rmsd_ub_mean + 1e-12);
}

TEST(Dock, DeterministicPerSeed) {
  const Structure rec = test_receptor("VKDRS");
  const Ligand lig = generate_ligand("3ckz");
  DockingParams params;
  params.num_runs = 3;
  params.mc_steps = 300;
  params.seed = 5;
  const DockingResult a = dock(rec, lig, params);
  const DockingResult b = dock(rec, lig, params);
  EXPECT_DOUBLE_EQ(a.best_affinity, b.best_affinity);
  EXPECT_EQ(a.poses.size(), b.poses.size());
}

TEST(Dock, MoreRunsNeverWorsenBest) {
  const Structure rec = test_receptor("VKDRS");
  const Ligand lig = generate_ligand("3ckz");
  DockingParams few;
  few.num_runs = 2;
  few.mc_steps = 300;
  few.seed = 9;
  DockingParams many = few;
  many.num_runs = 8;
  const DockingResult a = dock(rec, lig, few);
  const DockingResult b = dock(rec, lig, many);
  EXPECT_LE(b.best_affinity, a.best_affinity + 1e-12);
}

TEST(Imprint, DeterministicAndPreservesTopology) {
  const Structure rec = test_receptor();
  const Ligand generic = generate_ligand("2bok");
  const Ligand a = imprint_ligand(generic, rec);
  const Ligand b = imprint_ligand(generic, rec);
  ASSERT_EQ(a.num_atoms(), generic.num_atoms());
  EXPECT_EQ(a.num_torsions(), generic.num_torsions());
  for (int i = 0; i < a.num_atoms(); ++i) {
    EXPECT_NEAR(a.atoms()[static_cast<std::size_t>(i)].local_pos.distance(
                    b.atoms()[static_cast<std::size_t>(i)].local_pos), 0.0, 1e-12);
  }
}

TEST(Imprint, CreatesFewDirectionalHbondsPlusHydrophobicBody) {
  const Structure rec = test_receptor();
  const Ligand lig = imprint_ligand(generate_ligand("1zsf"), rec);
  int polar = 0, hydrophobic = 0;
  for (const LigandAtom& a : lig.atoms()) {
    polar += (a.donor || a.acceptor);
    hydrophobic += a.hydrophobic;
  }
  // Drug-like: a handful of H-bonding atoms, the rest hydrophobic.
  EXPECT_GE(polar, 1);
  EXPECT_LE(polar, 3 + lig.num_atoms() / 8);
  EXPECT_GT(hydrophobic, lig.num_atoms() / 2);
}

TEST(Imprint, SiteCenterLiesNearTheReceptor) {
  const Structure rec = test_receptor();
  const ImprintResult imp = imprint_ligand_with_site(generate_ligand("3vf7"), rec);
  // The binding site sits within the fragment's neighbourhood.
  double min_d = 1e9;
  for (const Vec3& p : rec.heavy_positions()) min_d = std::min(min_d, p.distance(imp.site_center));
  EXPECT_LT(min_d, 8.0);
}

TEST(Imprint, MoldedLigandBindsReferenceBetterThanGeneric) {
  // The whole point of imprinting: the molded ligand's best pose on the
  // reference is deeper than the generic ligand's.
  const Structure rec = test_receptor("MIITEYMENGAL");
  const Ligand generic = generate_ligand("5nkc");
  const Ligand molded = imprint_ligand(generic, rec);
  DockingParams params;
  params.num_runs = 6;
  params.mc_steps = 600;
  params.seed = 3;
  const DockingResult rg = dock(rec, generic, params);
  const DockingResult rm = dock(rec, molded, params);
  EXPECT_LT(rm.best_affinity, rg.best_affinity);
}

TEST(Dock, SiteBoxConfinesTheSearch) {
  const Structure rec = test_receptor();
  const Ligand lig = generate_ligand("2bok");
  DockingParams params;
  params.num_runs = 3;
  params.mc_steps = 200;
  params.seed = 9;
  params.box_center = Vec3{3.0, 0.0, 0.0};
  params.box_size = 6.0;
  const DockingResult r = dock(rec, lig, params);
  for (const ScoredPose& sp : r.poses) {
    EXPECT_LT(std::abs(sp.pose.translation.x - 3.0), 3.0 + 1e-9);
    EXPECT_LT(std::abs(sp.pose.translation.y), 3.0 + 1e-9);
    EXPECT_LT(std::abs(sp.pose.translation.z), 3.0 + 1e-9);
  }
}

TEST(Dock, CompactReceptorBindsBetterThanExtended) {
  // The docking-side premise of the paper: a well-folded pocket (the exact
  // ground state) accommodates the ligand better than an artificially
  // extended conformation of the same sequence.
  const std::string seq = "MIITEYMENGAL";  // 5nkc, hydrophobic-rich
  const auto aa = parse_sequence(seq);
  FoldingHamiltonian h(aa, HamiltonianWeights::standard(static_cast<int>(aa.size())));
  const SolveResult ground = ExactSolver().solve(h);

  auto build = [&](const std::vector<int>& turns) {
    std::vector<Vec3> trace;
    for (const IVec3& p : walk_positions(turns)) trace.push_back(lattice_to_cartesian(p));
    Structure s = reconstruct_backbone(trace, aa, "cmp");
    add_polar_hydrogens(s);
    assign_partial_charges(s);
    s.center_on_origin();
    return s;
  };
  const Structure folded = build(ground.turns);
  std::vector<int> zigzag(aa.size() - 1);
  for (std::size_t i = 0; i < zigzag.size(); ++i) zigzag[i] = (i % 2 == 0) ? 0 : 1;
  const Structure extended = build(zigzag);

  const Ligand lig = generate_ligand("5nkc");
  DockingParams params;
  params.num_runs = 8;
  params.mc_steps = 800;
  params.seed = 21;
  const DockingResult rf = dock(folded, lig, params);
  const DockingResult re = dock(extended, lig, params);
  EXPECT_LT(rf.best_affinity, re.best_affinity);
}


// --- bit-exact goldens ---------------------------------------------------------
//
// Docking is deterministic per seed down to the last bit, and the scoring
// kernel is an optimisation target: these goldens pin the IEEE-754 bit
// patterns of a fixed docking and a fixed imprint.  Any change that moves a
// single addend or reorders a sum shows up here.

std::string hex_u64(std::uint64_t b) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(b));
  return buf;
}

std::string hex_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return hex_u64(b);
}

TEST(DockGolden, FixedReceptorLigandSeedIsBitStable) {
  const Structure rec = test_receptor();
  const Ligand lig = generate_ligand("2bok");
  DockingParams params;
  params.num_runs = 4;
  params.mc_steps = 300;
  params.top_poses = 5;
  params.seed = 11;
  const DockingResult r = dock(rec, lig, params);
  EXPECT_EQ(hex_bits(r.best_affinity), "c005121772a8fbd1");
  EXPECT_EQ(hex_bits(r.mean_affinity), "c0016be4be5ffc70");
  EXPECT_EQ(hex_bits(r.rmsd_lb_mean), "400ebd8c7593d91f");
  EXPECT_EQ(hex_bits(r.rmsd_ub_mean), "400ef9a782bae2a0");
  std::vector<std::string> top;
  for (const ScoredPose& sp : r.poses) top.push_back(hex_bits(sp.affinity));
  const std::vector<std::string> expected_top = {"c005121772a8fbd1", "c0023d31d2252034",
                                                "c001d0c11ecfcb31", "c001b601e0f1a1b5",
                                                "c0015a2d30ddcff9"};
  EXPECT_EQ(top, expected_top);
}

TEST(DockGolden, ImprintedLigandIsBitStable) {
  const Structure rec = test_receptor();
  const Ligand lig = imprint_ligand(generate_ligand("2bok"), rec);
  std::string bytes;
  for (const LigandAtom& a : lig.atoms()) {
    bytes += a.element;
    bytes += hex_bits(a.local_pos.x) + hex_bits(a.local_pos.y) + hex_bits(a.local_pos.z);
  }
  EXPECT_EQ(hex_u64(fnv1a(bytes)), "d134a145e307ec3f");
}


// --- incremental scoring -------------------------------------------------------

TEST(PoseScorer, EveryScoreIsBitEqualToTheOneShotScore) {
  // A seeded walk over the candidate kinds the docking search proposes —
  // translation-only, rotation-only, single-torsion and restart — with
  // commit, no-commit and double-commit steps.  The double commit matters:
  // a scorer that swaps term lists on every commit would hand back the
  // stale ones on the second.
  const Structure rec = test_receptor();
  const ReceptorGrid grid(type_receptor(rec), 8.0);
  const Ligand lig = generate_ligand("2bok");
  ASSERT_GT(lig.num_torsions(), 0);
  const VinaWeights w;
  auto one_shot = [&](const Pose& p) {
    return affinity_from_energy(intermolecular_energy(grid, lig, lig.conformation(p), w),
                                lig.num_torsions(), w);
  };
  Rng rng(2024);
  auto restart = [&] {
    Pose p = lig.neutral_pose();
    p.translation = Vec3{rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)};
    p.orientation = Quat::random(rng.uniform(), rng.uniform(), rng.uniform());
    for (double& t : p.torsions) t = rng.uniform(-kPi, kPi);
    return p;
  };
  std::size_t heavy = 0;
  for (const LigandAtom& a : lig.atoms()) heavy += (a.element != 'H');

  PoseScorer scorer(grid, lig, w);
  Pose reference = restart();
  EXPECT_EQ(hex_bits(scorer.score(reference)), hex_bits(one_shot(reference)));
  scorer.commit();
  int commits = 0, double_commits = 0, torsion_moves = 0;
  for (int step = 0; step < 400; ++step) {
    Pose cand = reference;
    const std::uint64_t kind = rng.below(4);
    std::size_t moved_bound = heavy;
    if (kind == 0) {
      cand.translation += Vec3{rng.normal(0.0, 0.5), rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)};
    } else if (kind == 1) {
      const Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
      cand.orientation =
          (Quat::from_axis_angle(axis, rng.normal(0.0, 0.3)) * cand.orientation).normalized();
    } else if (kind == 2) {
      const std::size_t t = rng.below(cand.torsions.size());
      cand.torsions[t] += rng.normal(0.0, 0.6);
      moved_bound = lig.torsions()[t].moved.size();
      ++torsion_moves;
    } else {
      cand = restart();
    }
    const std::uint64_t computed_before = scorer.atoms_computed();
    ASSERT_EQ(hex_bits(scorer.score(cand)), hex_bits(one_shot(cand))) << "step " << step;
    // Only atoms that moved against the reference are recomputed.
    EXPECT_LE(scorer.atoms_computed() - computed_before, moved_bound) << "step " << step;

    const std::uint64_t action = rng.below(3);
    if (action >= 1) {
      scorer.commit();
      reference = cand;
      ++commits;
    }
    if (action == 2) {
      scorer.commit();
      ++double_commits;
    }
    if (step % 25 == 0) {
      // The reference itself rescoring reuses every heavy atom.
      const std::uint64_t before = scorer.atoms_computed();
      ASSERT_EQ(hex_bits(scorer.score(reference)), hex_bits(one_shot(reference)));
      EXPECT_EQ(scorer.atoms_computed(), before);
    }
  }
  EXPECT_GT(commits, 50);
  EXPECT_GT(double_commits, 20);
  EXPECT_GT(torsion_moves, 50);
  EXPECT_GT(scorer.atoms_reused(), 0u);
}

TEST(PoseScorer, CountersReachTheRegistryScrape) {
  auto& registry = obs::MetricRegistry::global();
  const std::uint64_t computed_before = obs::counter("dock.atom_terms.computed").value();
  const std::uint64_t reused_before = obs::counter("dock.atom_terms.reused").value();
  DockingParams params;
  params.num_runs = 2;
  params.mc_steps = 100;
  params.seed = 4;
  dock(test_receptor("VKDRS"), generate_ligand("3ckz"), params);
  EXPECT_GT(obs::counter("dock.atom_terms.computed").value(), computed_before);
  EXPECT_GT(obs::counter("dock.atom_terms.reused").value(), reused_before);
  const Json counters = registry.to_json().at("counters");
  EXPECT_TRUE(counters.contains("dock.atom_terms.computed"));
  EXPECT_TRUE(counters.contains("dock.atom_terms.reused"));
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("# TYPE qdb_dock_atom_terms_computed counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE qdb_dock_atom_terms_reused counter"), std::string::npos);
}

// --- receptor cell list robustness ------------------------------------------

TEST(ReceptorGridRobustness, FarAndNonFiniteProbesVisitNothing) {
  const Structure rec = test_receptor("PWWERYQP");
  const auto typed = type_receptor(rec);
  const ReceptorGrid grid(typed, 8.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Vec3 anchor = typed.front().pos;
  const std::vector<Vec3> probes = {
      {1e6, 0, 0},
      {0, -1e6, 0},
      {0, 0, 1e300},
      // One full turn of a 21-bit cell key away from a real atom: a masked
      // hash key would alias this onto the atom's cell.
      anchor + Vec3{8.0 * static_cast<double>(1 << 21), 0, 0},
      {nan, 0, 0},
      {0, nan, 0},
      {0, 0, nan},
      {inf, 0, 0},
      {0, -inf, 0},
  };
  const Ligand atom = two_atom_probe();
  for (const Vec3& p : probes) {
    int visited = 0;
    grid.for_neighbors(p, [&](int) { ++visited; });
    EXPECT_EQ(visited, 0) << p.x << " " << p.y << " " << p.z;
    // Both atoms of the probe sit on the same far point.
    EXPECT_EQ(intermolecular_energy(grid, atom, {p, p}), 0.0) << p.x << " " << p.y << " " << p.z;
  }
  // A receptor atom with a non-finite coordinate is rejected up front.
  std::vector<ReceptorAtom> bad = typed;
  bad[1].pos.y = nan;
  EXPECT_THROW(ReceptorGrid(bad, 8.0), PreconditionError);
}
}  // namespace
}  // namespace qdb
