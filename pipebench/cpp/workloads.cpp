#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "checks.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "data/batch.h"
#include "data/reference.h"
#include "dock/dock.h"
#include "harness.h"
#include "lattice/lattice.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "quantum/tuner.h"
#include "screen/funnel.h"
#include "serve/client.h"
#include "serve/screen_api.h"
#include "serve/server.h"
#include "serve/trace_api.h"
#include "store/store.h"
#include "structure/molecule.h"

namespace pipebench {

namespace fs = std::filesystem;
using qdb::DatasetEntry;
using qdb::Json;

namespace {

// Above this many logical qubits VqeOptions::Engine::Auto runs MPS
// (src/vqe/vqe.cpp), so only smaller registers ever ask the tuner for a plan.
constexpr int kMaxDenseQubits = 14;

// The receptor screen-funnel docks against: the largest fragment
// (L group, 22 logical qubits), the one `qdb_cli screen` examples use.
constexpr const char* kScreenReceptor = "4jpy";
constexpr std::uint64_t kFunnelLibrary = 100000;

// `qdb_cli serve` starts four workers by default.
constexpr int kServeWorkers = 4;

void remove_path(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

int logical_qubits(const DatasetEntry& e) { return qdb::encoding_qubits(e.length()); }

/// Resolve every fused-engine plan the entries can ask for, from an empty
/// cache, so the tuner's timed choice happens here and never inside a timed
/// operation (quantum.tuner_tuned counts any that slip through).
void plan_tuner(const std::vector<const DatasetEntry*>& entries) {
  remove_path(qdb::Tuner::cache_path());
  qdb::Tuner::global().clear_memory();
  std::set<int> qubits;
  for (const DatasetEntry* e : entries) {
    if (logical_qubits(*e) <= kMaxDenseQubits) qubits.insert(logical_qubits(*e));
  }
  for (int n : qubits) {
    qdb::Tuner::global().plan_for(n, qdb::Precision::f32);
    qdb::Tuner::global().plan_for(n, qdb::Precision::f64);
  }
}

std::vector<const DatasetEntry*> all_entries() {
  std::vector<const DatasetEntry*> out;
  for (const DatasetEntry& e : qdb::qdockbank_entries()) out.push_back(&e);
  return out;
}

std::optional<Json> load_reference(const RunConfig& cfg, const std::string& name) {
  const std::string path = cfg.reference_dir + "/" + name;
  if (!fs::exists(path)) return std::nullopt;
  return Json::parse(qdb::read_file(path));
}

void save_reference(const RunConfig& cfg, const std::string& name, const Json& doc) {
  qdb::write_file_atomic(cfg.reference_dir + "/" + name, doc.dump() + "\n");
  std::printf("wrote %s/%s\n", cfg.reference_dir.c_str(), name.c_str());
}

/// Outcome of one operation: the timed part's wall time, the units it
/// completed, and "" or the first check that failed.
struct OpOutcome {
  double wall_s = 0.0;
  double work = 0.0;
  std::string error;
};

/// Run `op` back to back until `seconds` have passed (at least once).  An
/// exception is a failed operation, timed up to the throw.
Window op_loop(double seconds, const std::function<OpOutcome(Window&)>& op) {
  Window w;
  const double end = now_s() + seconds;
  do {
    OpOutcome o;
    const double t0 = now_s();
    try {
      o = op(w);
    } catch (const std::exception& ex) {
      o.wall_s = now_s() - t0;
      o.error = std::string("exception: ") + ex.what();
    }
    ++w.attempted;
    w.latencies_s.push_back(o.wall_s);
    w.timed_s += o.wall_s;
    w.rates.push_back(o.error.empty() && o.wall_s > 0.0 ? o.work / o.wall_s : 0.0);
    if (o.error.empty()) {
      w.work += o.work;
    } else {
      ++w.failed;
      if (w.failures.size() < 8) w.failures.push_back(o.error);
    }
  } while (now_s() < end);
  return w;
}

// --- vqe-batch ----------------------------------------------------------------

/// The `qdb_cli batch` defaults, with job parallelism at `threads`.
qdb::BatchOptions batch_options(int threads) {
  qdb::BatchOptions opt;
  opt.run_vqe = true;
  opt.vqe.max_evaluations = 12;
  opt.vqe.shots_per_eval = 128;
  opt.vqe.final_shots = 1000;
  opt.threads = threads;
  return opt;
}

/// One operation: run_batch over all 55 entries, submitted in an order the
/// seed and the operation index permute, with a checkpoint file.
class VqeBatch final : public Workload {
 public:
  explicit VqeBatch(RunConfig cfg) : cfg_(std::move(cfg)), entries_(all_entries()) {
    opt_ = batch_options(cfg_.threads);
    opt_.checkpoint_path = cfg_.scratch_dir + "/batch.ckpt.json";
  }

  const char* work_unit() const override { return "entries"; }

  void setup() override { plan_tuner(entries_); }

  void prepare_checks() override {
    if (const auto doc = load_reference(cfg_, "vqe_batch.json")) {
      expected_ = job_expectations_from_json(doc->at("jobs"));
      return;
    }
    remove_path(opt_.checkpoint_path);
    const qdb::BatchReport report = qdb::run_batch(entries_, opt_);
    for (const qdb::BatchJobRecord& job : report.jobs) expected_[job.pdb_id] = job_expect_of(job);
  }

  Window measure(double seconds, bool /*traced*/) override {
    return op_loop(seconds, [&](Window&) {
      const std::vector<const DatasetEntry*> order = batch_submission_order(cfg_.seed, next_op_++);
      remove_path(opt_.checkpoint_path);  // run_batch would resume from it
      OpOutcome o;
      const double t0 = now_s();
      const qdb::BatchReport report = qdb::run_batch(order, opt_);
      o.wall_s = now_s() - t0;
      o.error = check_batch(report, expected_);
      o.work = static_cast<double>(report.jobs.size());
      return o;
    });
  }

  std::vector<const char*> blocking_spans() const override { return {"batch.run"}; }

  static void record(const RunConfig& cfg) {
    qdb::BatchOptions opt = batch_options(cfg.threads);
    const double t0 = now_s();
    const qdb::BatchReport report = qdb::run_batch(all_entries(), opt);
    std::printf("run_batch over %zu entries: %.2f s\n", report.jobs.size(), now_s() - t0);
    JobExpectations jobs;
    for (const qdb::BatchJobRecord& job : report.jobs) jobs[job.pdb_id] = job_expect_of(job);
    Json doc = Json::object();
    doc.set("jobs", job_expectations_json(jobs));
    save_reference(cfg, "vqe_batch.json", doc);
  }

 private:
  RunConfig cfg_;
  std::vector<const DatasetEntry*> entries_;
  qdb::BatchOptions opt_;
  JobExpectations expected_;
  std::uint64_t next_op_ = 0;
};

// --- fold-dock ----------------------------------------------------------------

/// The four engine classes one fold-dock operation covers, one entry each:
/// S dense, M dense (12-14 qubits), M MPS and L MPS.  Each pool holds
/// entries of its class whose `evaluate` cost is within about 5% of each
/// other (median of three runs on a 4-core host), so the seed changes which
/// fragments run but not how much work an operation is; 4jpy leads the L
/// pool so seed 1 (the default) picks it.
const std::vector<std::vector<const char*>>& fold_dock_pools() {
  static const std::vector<std::vector<const char*>> pools = {
      {"6p86", "4q87", "3dx3", "6czf"},                          // ~0.72 s
      {"1e2l", "6ezq", "3b26", "2vwo", "2avo", "5kqx", "3d83"},  // ~0.92 s
      {"2bfq", "4f5y", "2xxx"},                                  // ~0.98 s
      {"4jpy", "4aoi", "5nkb"},                                  // ~1.42 s
  };
  return pools;
}

}  // namespace

/// Entry (seed - 1) * (2c + 1) mod n of pool c: seed 1 takes every pool's
/// first entry, and consecutive seeds walk each pool at its own odd stride,
/// which is coprime to every pool size, so each entry is reached.
std::vector<const DatasetEntry*> fold_dock_subset(std::uint64_t seed) {
  std::vector<const DatasetEntry*> subset;
  std::uint64_t stride = 1;
  for (const std::vector<const char*>& pool : fold_dock_pools()) {
    const std::uint64_t n = pool.size();
    const std::uint64_t k = (seed % n + n - 1) % n * stride % n;
    subset.push_back(&qdb::entry_by_id(pool[static_cast<std::size_t>(k)]));
    stride += 2;
  }
  return subset;
}

std::vector<const DatasetEntry*> batch_submission_order(std::uint64_t seed, std::uint64_t op) {
  std::vector<const DatasetEntry*> order = all_entries();
  qdb::Rng rng(qdb::seed_combine(qdb::seed_combine(seed, qdb::fnv1a("vqe-batch")), op));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
  }
  return order;
}

namespace {

/// One operation: a fresh Pipeline evaluating a subset, so every operation
/// pays for the reference build and the ligand imprint as `qdb_cli evaluate`
/// does.  Operation k of a window takes the subset of seed + k, so a run
/// averages over several subsets and the seed moves its cost less.  The
/// traced run makes the same calls one layer at a time.
class FoldDock final : public Workload {
 public:
  explicit FoldDock(RunConfig cfg) : cfg_(std::move(cfg)) {
    std::string names;
    for (const DatasetEntry* e : fold_dock_subset(cfg_.seed)) {
      names += std::string(names.empty() ? "" : ",") + e->pdb_id;
    }
    std::printf("fold-dock first subset: %s\n", names.c_str());
  }

  const char* work_unit() const override { return "entries"; }

  // Every pool, not just this seed's subset, so set-up is the same work
  // for every seed.
  void setup() override { plan_tuner(pool_entries()); }

  void prepare_checks() override {
    if (const auto doc = load_reference(cfg_, "fold_dock.json")) {
      for (const Json& j : doc->at("evaluations").as_array()) {
        const qdb::Evaluation ev = evaluation_from_json(j);
        expected_[ev.pdb_id] = ev;
      }
    }
    for (const DatasetEntry* e : pool_entries()) {
      if (expected_.count(e->pdb_id) != 0) continue;
      std::printf("fold-dock: deriving the expected evaluation of %s\n", e->pdb_id);
      expected_[e->pdb_id] = qdb::Pipeline(qdb::PipelineOptions::bench_profile())
                                 .evaluate(*e, qdb::Method::QDock);
    }
  }

  Window measure(double seconds, bool traced) override {
    std::uint64_t op = 0;
    return op_loop(seconds, [&](Window&) {
      const std::vector<const DatasetEntry*> subset = fold_dock_subset(cfg_.seed + op++);
      OpOutcome o;
      const double t0 = now_s();
      const qdb::Pipeline pipeline(qdb::PipelineOptions::bench_profile());
      const std::vector<qdb::Evaluation> evals =
          traced ? evaluate_by_layer(pipeline, subset)
                 : pipeline.evaluate_entries(subset, qdb::Method::QDock);
      o.wall_s = now_s() - t0;
      if (evals.size() != subset.size()) {
        o.error = "fold-dock: " + std::to_string(evals.size()) + " evaluations for " +
                  std::to_string(subset.size()) + " entries";
      }
      for (std::size_t i = 0; i < evals.size() && o.error.empty(); ++i) {
        o.error = check_evaluation(evals[i], expected_.at(subset[i]->pdb_id));
      }
      o.work = static_cast<double>(evals.size());
      return o;
    });
  }

  std::vector<const char*> blocking_spans() const override {
    return {"pipeline.reference", "pipeline.imprint", "pipeline.predict", "pipeline.dock",
            "pipeline.rmsd"};
  }

  static void record(const RunConfig& cfg) {
    Json evals = Json::array();
    for (const DatasetEntry* e : pool_entries()) {
      const double t0 = now_s();
      const qdb::Evaluation ev = qdb::Pipeline(qdb::PipelineOptions::bench_profile())
                                     .evaluate(*e, qdb::Method::QDock);
      std::printf("%s  %2d qubits  %.3f s\n", e->pdb_id, logical_qubits(*e), now_s() - t0);
      evals.push_back(evaluation_json(ev));
    }
    Json doc = Json::object();
    doc.set("evaluations", evals);
    save_reference(cfg, "fold_dock.json", doc);
  }

 private:
  static std::vector<const DatasetEntry*> pool_entries() {
    std::vector<const DatasetEntry*> out;
    for (const std::vector<const char*>& pool : fold_dock_pools()) {
      for (const char* id : pool) out.push_back(&qdb::entry_by_id(id));
    }
    return out;
  }

  /// The calls `evaluate` makes, each under its own benchmark span; the
  /// result must be bit-equal to `evaluate`'s.
  static std::vector<qdb::Evaluation> evaluate_by_layer(
      const qdb::Pipeline& pipeline, const std::vector<const DatasetEntry*>& subset) {
    std::vector<qdb::Evaluation> out;
    for (const DatasetEntry* e : subset) {
      const qdb::Structure* reference = nullptr;
      {
        qdb::obs::Span span("pipeline.reference");
        reference = &pipeline.reference(*e);
      }
      {
        qdb::obs::Span span("pipeline.imprint");
        pipeline.ligand_and_site(*e);
      }
      std::optional<qdb::Prediction> prediction;
      {
        qdb::obs::Span span("pipeline.predict");
        prediction = pipeline.predict(*e, qdb::Method::QDock);
      }
      std::optional<qdb::DockingResult> docking;
      {
        qdb::obs::Span span("pipeline.dock");
        docking = pipeline.dock_prediction(*e, *prediction);
      }
      qdb::Evaluation ev;
      {
        qdb::obs::Span span("pipeline.rmsd");
        ev.rmsd = qdb::ca_rmsd(prediction->structure, *reference);
      }
      ev.pdb_id = e->pdb_id;
      ev.group = e->group();
      ev.method = qdb::Method::QDock;
      ev.affinity = docking->best_affinity;
      ev.mean_affinity = docking->mean_affinity;
      ev.pose_rmsd_lb = docking->rmsd_lb_mean;
      ev.pose_rmsd_ub = docking->rmsd_ub_mean;
      out.push_back(std::move(ev));
    }
    return out;
  }

  RunConfig cfg_;
  std::map<std::string, qdb::Evaluation> expected_;
};

// --- screen-funnel ------------------------------------------------------------

qdb::screen::ScreenOptions screen_options(std::uint64_t library_seed, std::uint64_t size,
                                          int threads) {
  qdb::screen::ScreenOptions opt;
  opt.library.seed = library_seed;
  opt.library.size = size;
  opt.threads = threads;
  return opt;
}

/// Reference hashes recorded per library seed in `file`, or "".
std::string recorded_report_hash(const RunConfig& cfg, const std::string& file,
                                 std::uint64_t library_seed) {
  const auto doc = load_reference(cfg, file);
  if (!doc) return "";
  const Json& hashes = doc->at("hashes");
  const std::string key = std::to_string(library_seed);
  return hashes.contains(key) ? hashes.at(key).as_string() : "";
}

/// One operation: run_screen over a 10^5-ligand library (library seed = run
/// seed) with no checkpoint, against the 4jpy receptor prepared in setup.
class ScreenFunnel final : public Workload {
 public:
  explicit ScreenFunnel(RunConfig cfg)
      : cfg_(std::move(cfg)), opt_(screen_options(cfg_.seed, kFunnelLibrary, cfg_.threads)) {}

  const char* work_unit() const override { return "ligands"; }

  void setup() override {
    prepared_.reset();
    const qdb::Structure receptor = qdb::reference_structure(qdb::entry_by_id(kScreenReceptor));
    const double t0 = now_s();
    prepared_ = std::make_unique<qdb::screen::PreparedReceptor>(
        qdb::screen::prepare_receptor(receptor, opt_));
    prepare_ms_.push_back((now_s() - t0) * 1e3);
  }

  void prepare_checks() override {
    hash_ = recorded_report_hash(cfg_, "screen_funnel.json", opt_.library.seed);
    if (hash_.empty()) {
      // No recorded reference for this seed: derive one at another thread
      // count — the ranked bytes must not depend on it.
      qdb::screen::ScreenOptions derive = opt_;
      derive.threads = cfg_.threads + 1;
      hash_ = report_hash(qdb::screen::serialize_report(
          qdb::screen::run_screen(*prepared_, kScreenReceptor, derive)));
    }
  }

  Window measure(double seconds, bool /*traced*/) override {
    return op_loop(seconds, [&](Window& w) {
      OpOutcome o;
      const double t0 = now_s();
      const qdb::screen::ScreenReport report =
          qdb::screen::run_screen(*prepared_, kScreenReceptor, opt_);
      o.wall_s = now_s() - t0;
      w.layer["screen.keep_rate"] = report.keep_rate();
      w.layer["screen.prepare_ms"] = median(prepare_ms_);
      // The report must hash to the reference, and every hit must re-score.
      o.error = check_report_bytes(qdb::screen::serialize_report(report), hash_);
      if (o.error.empty()) o.error = check_report_hits(report, *prepared_, opt_);
      o.work = static_cast<double>(report.ligands_screened);
      return o;
    });
  }

  std::vector<const char*> blocking_spans() const override {
    return {"screen.stage1", "screen.stage2"};
  }

 private:
  RunConfig cfg_;
  qdb::screen::ScreenOptions opt_;
  std::unique_ptr<qdb::screen::PreparedReceptor> prepared_;
  std::vector<double> prepare_ms_;
  std::string hash_;  ///< reference content hash of the ranked report
};

void record_screen(const RunConfig& cfg, const std::string& file, std::uint64_t size,
                   std::uint64_t first_seed, std::uint64_t last_seed) {
  const qdb::Structure receptor = qdb::reference_structure(qdb::entry_by_id(kScreenReceptor));
  const qdb::screen::PreparedReceptor prepared =
      qdb::screen::prepare_receptor(receptor, screen_options(1, size, cfg.threads));
  Json hashes = Json::object();
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const qdb::screen::ScreenOptions opt = screen_options(seed, size, cfg.threads);
    const qdb::screen::ScreenReport report =
        qdb::screen::run_screen(prepared, kScreenReceptor, opt);
    const std::string error = check_report_hits(report, prepared, opt);
    if (!error.empty()) throw qdb::Error("recording seed " + std::to_string(seed) + ": " + error);
    hashes.set(std::to_string(seed), report_hash(qdb::screen::serialize_report(report)));
  }
  Json doc = Json::object();
  doc.set("receptor", kScreenReceptor);
  doc.set("library_size", static_cast<std::int64_t>(size));
  doc.set("hashes", hashes);
  save_reference(cfg, file, doc);
}

// --- serve-mixed --------------------------------------------------------------

/// The smallest budgets that still run every stage, for the served store.
qdb::PipelineOptions minimal_options() {
  qdb::PipelineOptions opt = qdb::PipelineOptions::bench_profile();
  opt.vqe.max_evaluations = 1;  // VqeDriver raises it to its own floor
  opt.vqe.shots_per_eval = 32;
  opt.vqe.final_shots = 64;
  opt.vqe.noise_trajectories = 1;
  opt.docking.num_runs = 1;
  opt.docking.mc_steps = 20;
  opt.docking.refine_steps = 10;
  return opt;
}

/// A Chrome-trace body for POST /trace; `tag` makes it unique.
std::string trace_body(std::uint64_t tag) {
  Json event = Json::object();
  event.set("name", "client.op");
  event.set("ph", "X");
  event.set("ts", static_cast<std::int64_t>(tag % 1000003));
  event.set("dur", static_cast<std::int64_t>(1 + tag % 997));
  event.set("pid", 1);
  event.set("tid", 1);
  Json args = Json::object();
  args.set("tag", std::to_string(tag));
  event.set("args", args);
  Json doc = Json::object();
  doc.set("traceEvents", Json(qdb::JsonArray{event}));
  return doc.dump(-1);
}

class HttpConnection final : public Connection {
 public:
  explicit HttpConnection(std::uint16_t port) : client_("127.0.0.1", port) {}
  qdb::serve::HttpClientResponse send(const RequestSpec& r) override {
    return r.method == "POST" ? client_.post(r.target, r.body, r.headers)
                              : client_.get(r.target, r.headers);
  }
  void close() override { client_.close(); }

 private:
  qdb::serve::HttpClient client_;
};

/// Clients of the closed loop.  The process runs on one core, so one
/// client keeps it busy: a second would only queue behind the first.
/// Never more than the workers in any case, because a keep-alive connection
/// pins a worker and more clients would measure client timeouts.
constexpr int kServeClients = 1;

/// A closed loop of kServeClients clients against an in-process
/// DatasetServer wired as `qdb_cli serve` wires it.
class ServeMixed final : public Workload {
 public:
  /// Confines the process to one core before any server or client thread
  /// starts.  Client and server then hand each request over by a context
  /// switch; across cores each hand-off waits for the hypervisor to wake an
  /// idle virtual CPU, which on a shared host moved the request rate by half
  /// between runs.
  explicit ServeMixed(RunConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.inputs_dir.empty()) throw qdb::Error("serve-mixed needs --inputs");
    std::printf("serve-mixed: pinned to core %d\n", pin_to_one_core());
  }
  ~ServeMixed() override { teardown(); }

  const char* work_unit() const override { return "requests"; }

  /// The served store: the 55-entry dataset tree written by
  /// Pipeline::build_dataset with the minimal budgets, ingested by
  /// Store::ingest_dataset.  It takes about a minute on one thread and
  /// depends on nothing but the binary, so it is built once into inputs_dir;
  /// every run serves a copy of it, since the trace ingests write blobs.
  void build_inputs() override {
    const std::string built = cfg_.inputs_dir + "/store";
    if (!fs::exists(built)) {
      // Built aside and renamed into place, so an interrupted build is never
      // taken for a finished one.
      const std::string dataset = cfg_.scratch_dir + "/dataset.partial";
      const std::string partial = cfg_.scratch_dir + "/store.partial";
      qdb::Pipeline(minimal_options()).build_dataset(dataset);
      qdb::store::Store(partial, 0).ingest_dataset(dataset);
      remove_path(dataset);
      fs::create_directories(cfg_.inputs_dir);
      fs::rename(partial, built);
    }
    fs::copy(built, store_dir(), fs::copy_options::recursive);
  }

  /// What a serving process does before its first request: open the store
  /// and start the server.
  void setup() override {
    teardown();
    // Half the artifact working set fits the blob cache, so the mix runs
    // both the cache-hit path and the disk-read path.
    const std::size_t blobs = qdb::store::Store(store_dir(), 0).stats().blobs;
    store_ = std::make_unique<qdb::store::Store>(store_dir(), std::max<std::size_t>(1, blobs / 2));
    qdb::serve::ServeOptions opt;
    opt.threads = kServeWorkers;
    server_ = std::make_unique<qdb::serve::DatasetServer>(*store_, opt);
    screen_service_ = std::make_unique<qdb::serve::ScreenService>(*store_);
    qdb::serve::attach_screen_api(*server_, *screen_service_);
    qdb::serve::attach_trace_api(*server_, *store_);
    server_->start();
  }

  void prepare_checks() override;

  Window measure(double seconds, bool traced) override;

  std::vector<const char*> blocking_spans() const override { return {}; }

 private:
  std::string store_dir() const { return cfg_.scratch_dir + "/store"; }

  void teardown() {
    if (server_) server_->stop();
    server_.reset();
    screen_service_.reset();
    store_.reset();
  }

  RequestSpec expected_get(RequestClass cls, const std::string& target) const;
  RequestSpec next_request(qdb::Rng& rng, int client, std::uint64_t seq) const;

  RunConfig cfg_;
  std::unique_ptr<qdb::store::Store> store_;
  std::unique_ptr<qdb::serve::DatasetServer> server_;
  std::unique_ptr<qdb::serve::ScreenService> screen_service_;

  std::vector<RequestSpec> artifacts_;    // 200 with the blob bytes
  std::vector<RequestSpec> conditional_;  // If-None-Match: 304
  std::vector<RequestSpec> summaries_;
  std::vector<RequestSpec> lists_;
  std::vector<RequestSpec> repeated_ingests_;
  std::uint64_t window_ = 0;
};

RequestSpec ServeMixed::expected_get(RequestClass cls, const std::string& target) const {
  RequestSpec r;
  r.cls = cls;
  r.target = target;
  qdb::serve::HttpRequest request;
  if (!qdb::serve::parse_request_head("GET " + target + " HTTP/1.1\r\nhost: pipebench", &request)) {
    throw qdb::Error("serve-mixed: bad catalogue target " + target);
  }
  const qdb::serve::HttpResponse response = server_->handle(request);
  if (response.status != 200) {
    throw qdb::Error("serve-mixed: catalogue target " + target + " fails");
  }
  r.expect.status = 200;
  r.expect.body_hash = qdb::store::content_hash(response.body).hex();
  r.expect.body_size = response.body.size();
  return r;
}

void ServeMixed::prepare_checks() {
  artifacts_.clear();
  conditional_.clear();
  summaries_.clear();
  lists_.clear();
  repeated_ingests_.clear();
  for (const qdb::store::EntryRecord& e : store_->entries()) {
    for (int a = 0; a < qdb::store::kArtifactCount; ++a) {
      const auto artifact = static_cast<qdb::store::Artifact>(a);
      const qdb::store::ArtifactRef& ref = e.artifact(artifact);
      // The check compares against the store's own bytes, not just the index.
      if (qdb::store::content_hash(*store_->read_artifact(e, artifact)).hex() != ref.hash) {
        throw qdb::Error("serve-mixed: blob of " + e.pdb_id + " does not match its hash");
      }
      RequestSpec r;
      r.cls = RequestClass::Artifact;
      r.target = "/entries/" + e.pdb_id + "/" + qdb::store::artifact_filename(artifact);
      r.expect.status = 200;
      r.expect.body_hash = ref.hash;
      r.expect.body_size = ref.size;
      r.expect.etag = "\"" + ref.hash + "\"";
      artifacts_.push_back(r);
      r.headers = {{"If-None-Match", r.expect.etag}};
      r.expect.status = 304;
      r.expect.body_hash.clear();
      conditional_.push_back(r);
    }
    summaries_.push_back(expected_get(RequestClass::Summary, "/entries/" + e.pdb_id));
  }
  for (const char* target :
       {"/entries", "/entries?group=S", "/entries?group=M", "/entries?group=L",
        "/entries?min_qubits=12&max_qubits=16", "/entries?min_length=8&max_length=10",
        "/entries?group=M&qubits=14", "/entries?max_length=7"}) {
    lists_.push_back(expected_get(RequestClass::List, target));
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    RequestSpec r;
    r.cls = RequestClass::Ingest;
    r.method = "POST";
    r.target = "/trace";
    r.body = trace_body(qdb::seed_combine(cfg_.seed, i));
    r.expect.status = 200;
    r.expect.ingest_hash = qdb::store::content_hash(r.body).hex();
    // Repeated bodies are traces the store already holds, so every POST
    // of one takes the dedup path.
    store_->put_blob(r.body);
    repeated_ingests_.push_back(r);
  }
}

// Request mix, per ten thousand.  No request log of the dataset service
// exists to derive it from, so every share is an assumption that follows
// the traffic the serving layer is built for: reads dominate (artifact
// downloads, a third of them revalidations answered 304, entry summaries
// and filtered listings in equal parts), with occasional /metrics scrapes
// and a small share of POST /trace ingests, mostly re-posts of bodies the
// store holds (dedup) and a few new ones (fsync'd blob writes).  New bodies
// are kept to 1 in 1000 requests: each costs two fsyncs, and at a larger
// share the disk's fsync latency, not the server, set the request rate.
RequestSpec ServeMixed::next_request(qdb::Rng& rng, int client, std::uint64_t seq) const {
  const auto pick = [&](const std::vector<RequestSpec>& from) -> const RequestSpec& {
    return from[static_cast<std::size_t>(rng.below(from.size()))];
  };
  const std::uint64_t roll = rng.below(10000);
  if (roll < 3800) return pick(artifacts_);
  if (roll < 5500) return pick(conditional_);
  if (roll < 7500) return pick(summaries_);
  if (roll < 9500) return pick(lists_);
  if (roll < 9700) {
    RequestSpec r;
    r.cls = RequestClass::Metrics;
    r.target = "/metrics";
    r.expect.json_body = true;
    return r;
  }
  if (roll < 9990) return pick(repeated_ingests_);
  RequestSpec r = repeated_ingests_.front();
  r.body = trace_body(qdb::seed_combine(
      qdb::seed_combine(qdb::seed_combine(cfg_.seed, window_), static_cast<std::uint64_t>(client)),
      seq + 1000003));
  r.expect.ingest_hash = qdb::store::content_hash(r.body).hex();
  return r;
}

Window ServeMixed::measure(double seconds, bool /*traced*/) {
  LoadOptions lo;
  lo.clients = kServeClients;
  lo.seconds = seconds;
  lo.seed = qdb::seed_combine(cfg_.seed, window_);
  const std::uint16_t port = server_->port();
  const LoadResult r = run_closed_loop(
      lo, [port](int) { return std::make_unique<HttpConnection>(port); },
      [this](qdb::Rng& rng, int client, std::uint64_t seq) {
        return next_request(rng, client, seq);
      });
  ++window_;

  Window w;
  w.latencies_s.reserve(r.samples.size());
  for (const LatencySample& sample : r.samples) w.latencies_s.push_back(sample.seconds);
  for (std::uint64_t n : r.succeeded_per_slice) w.rates.push_back(static_cast<double>(n));
  if (w.rates.empty()) w.rates.push_back(static_cast<double>(r.succeeded) / r.wall_s);
  w.timed_s = r.wall_s;
  w.work = static_cast<double>(r.succeeded);
  w.attempted = r.sent;
  w.failed = r.failed;
  w.failures = r.failures;
  const auto class_ms = [&](RequestClass c, double p) {
    const std::vector<double> latencies = class_latencies(r, c);
    return latencies.empty() ? 0.0 : percentile(latencies, p).value * 1e3;
  };
  w.layer["serve.artifact_p50_ms"] = class_ms(RequestClass::Artifact, 50);
  w.layer["serve.artifact_p99_ms"] = class_ms(RequestClass::Artifact, 99);
  w.layer["serve.summary_p50_ms"] = class_ms(RequestClass::Summary, 50);
  w.layer["serve.list_p50_ms"] = class_ms(RequestClass::List, 50);
  w.layer["serve.list_p99_ms"] = class_ms(RequestClass::List, 99);
  w.layer["serve.latency_p99_ms"] =
      w.latencies_s.empty() ? 0.0 : percentile(w.latencies_s, 99).value * 1e3;
  w.layer["serve.ingest_p50_ms"] = class_ms(RequestClass::Ingest, 50);
  const ClassStats& art = r.per_class[static_cast<std::size_t>(RequestClass::Artifact)];
  w.layer["serve.not_modified_share"] =
      art.succeeded
          ? static_cast<double>(art.not_modified) / static_cast<double>(art.succeeded)
          : 0.0;
  w.layer["serve.mean_latency_ms"] =
      r.sent ? r.latency_sum_s / static_cast<double>(r.sent) * 1e3 : 0.0;
  // Client time outside any request: request generation and reply checks.
  w.layer["obs.unattributed_ms"] =
      r.sent ? (r.client_loop_s - r.latency_sum_s) / static_cast<double>(r.sent) * 1e3 : 0.0;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"vqe-batch", "fold-dock", "screen-funnel",
                                                 "serve-mixed"};
  return names;
}

std::unique_ptr<Workload> make_workload(const RunConfig& config) {
  const std::string& name = config.workload;
  if (name == "vqe-batch") return std::make_unique<VqeBatch>(config);
  if (name == "fold-dock") return std::make_unique<FoldDock>(config);
  if (name == "screen-funnel") return std::make_unique<ScreenFunnel>(config);
  if (name == "serve-mixed") return std::make_unique<ServeMixed>(config);
  throw qdb::Error("unknown workload '" + name + "'");
}

void record_references(const RunConfig& config, const std::string& workload) {
  if (workload == "vqe-batch") return VqeBatch::record(config);
  if (workload == "fold-dock") return FoldDock::record(config);
  if (workload == "screen-funnel") {
    return record_screen(config, "screen_funnel.json", kFunnelLibrary, 0, 63);
  }
  throw qdb::Error("no recorded references for workload '" + workload + "'");
}

}  // namespace pipebench
