#include "checks.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/error.h"
#include "dock/vina_score.h"
#include "screen/library.h"
#include "store/store.h"

namespace pipebench {

std::string bits_hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

double from_bits_hex(const std::string& hex) {
  if (hex.size() != 16 || hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw qdb::Error("not a 16-digit lowercase hex bit pattern: '" + hex + "'");
  }
  const std::uint64_t bits = std::strtoull(hex.c_str(), nullptr, 16);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::string differs(const std::string& where, const std::string& field, const std::string& got,
                    const std::string& want) {
  return where + ": " + field + " is " + got + ", expected " + want;
}

}  // namespace

// --- vqe-batch ---------------------------------------------------------------

JobExpect job_expect_of(const qdb::BatchJobRecord& job) {
  JobExpect e;
  e.status = qdb::job_status_name(job.status);
  e.lowest_energy = job.lowest_energy;
  e.evaluations = job.evaluations;
  e.shots = job.shots;
  e.engine = job.engine_used;
  return e;
}

qdb::Json job_expectations_json(const JobExpectations& jobs) {
  qdb::Json doc = qdb::Json::object();
  for (const auto& [id, e] : jobs) {
    qdb::Json j = qdb::Json::object();
    j.set("status", e.status);
    j.set("lowest_energy_bits", bits_hex(e.lowest_energy));
    j.set("evaluations", e.evaluations);
    j.set("shots", static_cast<std::int64_t>(e.shots));
    j.set("engine", e.engine);
    doc.set(id, j);
  }
  return doc;
}

JobExpectations job_expectations_from_json(const qdb::Json& doc) {
  JobExpectations jobs;
  for (const auto& [id, j] : doc.as_object()) {
    JobExpect e;
    e.status = j.at("status").as_string();
    e.lowest_energy = from_bits_hex(j.at("lowest_energy_bits").as_string());
    e.evaluations = static_cast<int>(j.at("evaluations").as_int());
    e.shots = static_cast<std::uint64_t>(j.at("shots").as_int());
    e.engine = j.at("engine").as_string();
    jobs[id] = e;
  }
  return jobs;
}

std::string check_batch(const qdb::BatchReport& report, const JobExpectations& expected) {
  if (report.jobs.size() != expected.size()) {
    return differs("batch", "job count", std::to_string(report.jobs.size()),
                   std::to_string(expected.size()));
  }
  std::set<std::string> seen;
  for (const qdb::BatchJobRecord& job : report.jobs) {
    const auto it = expected.find(job.pdb_id);
    if (it == expected.end()) return "batch: unexpected job " + job.pdb_id;
    if (!seen.insert(job.pdb_id).second) return "batch: duplicate job " + job.pdb_id;
    const JobExpect got = job_expect_of(job);
    const JobExpect& want = it->second;
    const std::string where = "batch job " + job.pdb_id;
    if (got.status != want.status) return differs(where, "status", got.status, want.status);
    if (double_bits(got.lowest_energy) != double_bits(want.lowest_energy)) {
      return differs(where, "lowest_energy", bits_hex(got.lowest_energy),
                     bits_hex(want.lowest_energy));
    }
    if (got.evaluations != want.evaluations) {
      return differs(where, "evaluations", std::to_string(got.evaluations),
                     std::to_string(want.evaluations));
    }
    if (got.shots != want.shots) {
      return differs(where, "shots", std::to_string(got.shots), std::to_string(want.shots));
    }
    if (got.engine != want.engine) return differs(where, "engine", got.engine, want.engine);
  }
  return "";
}

// --- fold-dock ---------------------------------------------------------------

qdb::Json evaluation_json(const qdb::Evaluation& ev) {
  qdb::Json j = qdb::Json::object();
  j.set("pdb_id", ev.pdb_id);
  j.set("rmsd_bits", bits_hex(ev.rmsd));
  j.set("affinity_bits", bits_hex(ev.affinity));
  j.set("mean_affinity_bits", bits_hex(ev.mean_affinity));
  j.set("pose_rmsd_lb_bits", bits_hex(ev.pose_rmsd_lb));
  j.set("pose_rmsd_ub_bits", bits_hex(ev.pose_rmsd_ub));
  return j;
}

qdb::Evaluation evaluation_from_json(const qdb::Json& doc) {
  qdb::Evaluation ev;
  ev.pdb_id = doc.at("pdb_id").as_string();
  ev.group = qdb::entry_by_id(ev.pdb_id).group();
  ev.method = qdb::Method::QDock;
  ev.rmsd = from_bits_hex(doc.at("rmsd_bits").as_string());
  ev.affinity = from_bits_hex(doc.at("affinity_bits").as_string());
  ev.mean_affinity = from_bits_hex(doc.at("mean_affinity_bits").as_string());
  ev.pose_rmsd_lb = from_bits_hex(doc.at("pose_rmsd_lb_bits").as_string());
  ev.pose_rmsd_ub = from_bits_hex(doc.at("pose_rmsd_ub_bits").as_string());
  return ev;
}

std::string check_evaluation(const qdb::Evaluation& got, const qdb::Evaluation& want) {
  const std::string where = "evaluation " + want.pdb_id;
  if (got.pdb_id != want.pdb_id) return differs(where, "pdb_id", got.pdb_id, want.pdb_id);
  if (got.method != want.method) {
    return differs(where, "method", qdb::method_name(got.method), qdb::method_name(want.method));
  }
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"rmsd", {got.rmsd, want.rmsd}},
      {"affinity", {got.affinity, want.affinity}},
      {"mean_affinity", {got.mean_affinity, want.mean_affinity}},
      {"pose_rmsd_lb", {got.pose_rmsd_lb, want.pose_rmsd_lb}},
      {"pose_rmsd_ub", {got.pose_rmsd_ub, want.pose_rmsd_ub}},
  };
  for (const auto& [name, values] : fields) {
    if (double_bits(values.first) != double_bits(values.second)) {
      return differs(where, name, bits_hex(values.first), bits_hex(values.second));
    }
  }
  return "";
}

// --- screen-funnel -----------------------------------------------------------

std::string report_hash(const std::string& report_bytes) {
  return qdb::store::content_hash(report_bytes).hex();
}

std::string check_report_bytes(const std::string& report_bytes,
                               const std::string& expected_hash) {
  const std::string got = report_hash(report_bytes);
  if (got != expected_hash) return differs("screen report", "content hash", got, expected_hash);
  return "";
}

std::string check_report_hits(const qdb::screen::ScreenReport& report,
                              const qdb::screen::PreparedReceptor& prepared,
                              const qdb::screen::ScreenOptions& options) {
  namespace screen = qdb::screen;
  const std::uint64_t size = options.library.size;
  if (report.preempted) return "screen report: preempted";
  if (report.ligands_screened != size) {
    return differs("screen report", "ligands_screened", std::to_string(report.ligands_screened),
                   std::to_string(size));
  }
  const double keep = std::ceil(options.stage1_keep * static_cast<double>(size));
  const auto survivors =
      static_cast<std::uint64_t>(std::min<double>(static_cast<double>(size), std::max(1.0, keep)));
  if (report.stage1_survivors != survivors) {
    return differs("screen report", "stage1_survivors", std::to_string(report.stage1_survivors),
                   std::to_string(survivors));
  }
  const std::size_t hits =
      static_cast<std::size_t>(std::min(survivors, static_cast<std::uint64_t>(options.top_k)));
  if (report.hits.size() != hits) {
    return differs("screen report", "hit count", std::to_string(report.hits.size()),
                   std::to_string(hits));
  }
  for (std::size_t i = 0; i < report.hits.size(); ++i) {
    const screen::ScreenHit& h = report.hits[i];
    const std::string where = "screen hit " + std::to_string(i + 1);
    if (h.index >= size) return where + ": index outside the library";
    const std::string id = screen::library_ligand_id(options.library, h.index);
    if (h.id != id) return differs(where, "id", h.id, id);
    const qdb::Ligand ligand = screen::library_ligand(options.library, h.index);
    if (h.num_atoms != ligand.num_atoms() || h.num_torsions != ligand.num_torsions()) {
      return where + ": atom or torsion count differs from the library ligand";
    }
    const double energy = qdb::intermolecular_energy(prepared.rescoring, ligand,
                                                     ligand.conformation(h.pose), options.weights);
    const double affinity =
        qdb::affinity_from_energy(energy, ligand.num_torsions(), options.weights);
    if (double_bits(affinity) != double_bits(h.affinity)) {
      return differs(where, "affinity", bits_hex(h.affinity), bits_hex(affinity));
    }
    if (i > 0) {
      const screen::ScreenHit& prev = report.hits[i - 1];
      const bool ordered =
          prev.affinity < h.affinity || (prev.affinity == h.affinity && prev.id < h.id);
      if (!ordered) return where + ": ranked out of (affinity, id) order";
    }
  }
  return "";
}

// --- serve-mixed -------------------------------------------------------------

std::string check_response(const ExpectedResponse& want,
                           const qdb::serve::HttpClientResponse& got) {
  if (got.status != want.status) {
    return differs("response", "status", std::to_string(got.status), std::to_string(want.status));
  }
  if (!want.body_hash.empty()) {
    if (got.body.size() != want.body_size) {
      return differs("response", "body size", std::to_string(got.body.size()),
                     std::to_string(want.body_size));
    }
    const std::string hash = qdb::store::content_hash(got.body).hex();
    if (hash != want.body_hash) return differs("response", "body hash", hash, want.body_hash);
  }
  if (!want.etag.empty()) {
    const std::string* etag = got.header("etag");
    if (etag == nullptr) return "response: ETag header missing";
    if (*etag != want.etag) return differs("response", "ETag", *etag, want.etag);
  }
  if (want.status == 304 && !got.body.empty()) return "response: 304 carries a body";
  if (want.json_body || !want.ingest_hash.empty()) {
    qdb::Json doc;
    try {
      doc = qdb::Json::parse(got.body);
    } catch (const qdb::Error& ex) {
      return std::string("response: body is not JSON: ") + ex.what();
    }
    if (!doc.is_object()) return "response: body is not a JSON object";
    if (!want.ingest_hash.empty()) {
      if (!doc.contains("hash") || !doc.at("hash").is_string()) return "response: no blob hash";
      const std::string& hash = doc.at("hash").as_string();
      if (hash != want.ingest_hash) return differs("response", "blob hash", hash, want.ingest_hash);
    }
  }
  return "";
}

}  // namespace pipebench
