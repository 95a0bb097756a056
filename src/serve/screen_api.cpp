#include "serve/screen_api.h"

#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "structure/pdb.h"

namespace qdb::serve {

namespace {

/// 400-throwing strict readers: every message names the offending key.
struct BadRequest {
  std::string message;
};

std::int64_t int_param(const Json& doc, const char* key, std::int64_t lo,
                       std::int64_t hi, std::int64_t fallback) {
  if (!doc.contains(key)) return fallback;
  const Json& v = doc.at(key);
  if (v.type() != Json::Type::Int) {
    throw BadRequest{std::string(key) + " must be an integer"};
  }
  const std::int64_t i = v.as_int();
  if (i < lo || i > hi) {
    throw BadRequest{std::string(key) + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]"};
  }
  return i;
}

double fraction_param(const Json& doc, const char* key, double fallback) {
  if (!doc.contains(key)) return fallback;
  const Json& v = doc.at(key);
  if (!v.is_number()) throw BadRequest{std::string(key) + " must be a number"};
  const double f = v.as_double();
  if (!(f > 0.0 && f <= 1.0)) {
    throw BadRequest{std::string(key) + " must be in (0, 1]"};
  }
  return f;
}

bool bool_param(const Json& doc, const char* key, bool fallback) {
  if (!doc.contains(key)) return fallback;
  const Json& v = doc.at(key);
  if (v.type() != Json::Type::Bool) {
    throw BadRequest{std::string(key) + " must be a boolean"};
  }
  return v.as_bool();
}

constexpr const char* kAllowedKeys[] = {
    "pdb_id",          "library_seed",  "library_size", "top_k",
    "stage1_keep",     "poses_per_ligand", "poses_rescored", "ingest",
};

}  // namespace

ScreenService::ScreenService(const store::Store& store, ScreenServiceOptions options)
    : store_(store), options_(options) {}

std::shared_ptr<const screen::PreparedReceptor> ScreenService::prepared_for(
    const std::string& pdb_id, const screen::ScreenOptions& options,
    std::string* grid_hash) {
  static obs::Counter& grids_built = obs::counter("screen.api.grids_built");
  static obs::Counter& cache_hits = obs::counter("screen.api.grid_cache_hits");

  // Cache key: receptor + everything that shapes the grid bytes.
  const std::string key =
      pdb_id + format("|%.17g|%.17g", options.grid_spacing, options.grid_padding);
  {
    const MutexLock lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      cache_hits.add();
      *grid_hash = it->second.grid_hash;
      return it->second.prepared;
    }
  }

  // Build outside the lock: grids take real time and requests for other
  // receptors must not queue behind the build.  A racing duplicate build is
  // harmless: both produce identical bytes, and each put_blob writer fills
  // its own temp file before renaming it in (write_file_atomic), so the
  // blob is complete whichever rename lands last.
  const store::EntryRecord* entry = store_.find(pdb_id);
  if (entry == nullptr) throw IoError("no entry '" + pdb_id + "' in the store");
  const std::shared_ptr<const std::string> pdb =
      store_.read_artifact(*entry, store::Artifact::Structure);
  const Structure receptor = parse_pdb(*pdb);
  auto prepared = std::make_shared<const screen::PreparedReceptor>(
      screen::prepare_receptor(receptor, options));
  const std::string hash = store_.put_blob(prepared->grid.serialize());
  grids_built.add();

  const MutexLock lock(mu_);
  auto [it, inserted] = cache_.emplace(key, CacheEntry{prepared, hash});
  if (!inserted) {
    // Lost the race: keep the first writer, drop ours (identical anyway).
    prepared = it->second.prepared;
  }
  *grid_hash = it->second.grid_hash;
  return prepared;
}

HttpResponse ScreenService::handle(const std::string& body) {
  static obs::Counter& requests = obs::counter("screen.api.requests");
  static obs::Counter& rejected = obs::counter("screen.api.rejected");
  static obs::Counter& ingests = obs::counter("screen.api.report_ingests");
  QDB_SPAN("screen.api.request");
  requests.add();

  try {
    const Json doc = Json::parse(body);
    if (!doc.is_object()) throw BadRequest{"body must be a JSON object"};
    for (const auto& [key, value] : doc.as_object()) {
      bool known = false;
      for (const char* allowed : kAllowedKeys) known = known || key == allowed;
      if (!known) throw BadRequest{"unknown parameter '" + key + "'"};
    }
    if (!doc.contains("pdb_id")) throw BadRequest{"pdb_id is required"};
    if (!doc.at("pdb_id").is_string()) throw BadRequest{"pdb_id must be a string"};
    const std::string pdb_id = doc.at("pdb_id").as_string();

    screen::ScreenOptions opt;
    opt.library.seed = static_cast<std::uint64_t>(int_param(
        doc, "library_seed", 0, std::int64_t{1} << 62, 1));
    opt.library.size = static_cast<std::uint64_t>(int_param(
        doc, "library_size", 1, static_cast<std::int64_t>(options_.max_library_size),
        256));
    opt.top_k = static_cast<int>(int_param(doc, "top_k", 1, options_.max_top_k, 16));
    opt.stage1_keep = fraction_param(doc, "stage1_keep", 0.125);
    opt.poses_per_ligand = static_cast<int>(
        int_param(doc, "poses_per_ligand", 1, options_.max_poses_per_ligand, 24));
    opt.poses_rescored = static_cast<int>(
        int_param(doc, "poses_rescored", 1, options_.max_poses_rescored, 4));
    const bool ingest = bool_param(doc, "ingest", false);
    opt.threads = options_.threads;

    std::string grid_hash;
    std::shared_ptr<const screen::PreparedReceptor> prepared;
    try {
      prepared = prepared_for(pdb_id, opt, &grid_hash);
    } catch (const IoError& ex) {
      rejected.add();
      return error_response(404, ex.what());
    }

    const screen::ScreenReport report = run_screen(*prepared, pdb_id, opt);
    const std::string report_bytes = screen::serialize_report(report);

    // The response IS the canonical report (parse of its exact bytes), plus
    // the serving metadata — so what a client sees and what the store dedups
    // are provably the same document.
    Json resp = Json::parse(report_bytes);
    resp.set("grid_hash", grid_hash);
    if (ingest) {
      resp.set("report_hash", store_.put_blob(report_bytes));
      ingests.add();
    }
    return json_response(200, resp);
  } catch (const BadRequest& bad) {
    rejected.add();
    return error_response(400, bad.message);
  } catch (const ParseError& ex) {
    rejected.add();
    return error_response(400, std::string("bad request body: ") + ex.what());
  } catch (const Error& ex) {
    rejected.add();
    return error_response(400, ex.what());
  }
}

void attach_screen_api(DatasetServer& server, ScreenService& service) {
  server.add_route("POST", "/screen", {},
                   [&service](const RouteRequest& r) { return service.handle(r.body); });
}

}  // namespace qdb::serve
