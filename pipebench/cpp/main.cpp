// pipebench: one benchmark for the whole pipeline.
//
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> --reference-dir <dir> [--results <dir>]
//             [--inputs <dir>] [--source <id>]
//   pipebench --record <workload> --reference-dir <dir>
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// spends half the time untraced and half under an obs::TraceSession, and
// prints the per-layer metrics (plus the tracing overhead between the two
// halves).  The last stdout line is the JSON result; run.py builds the
// binary, pins the environment and relays it.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

using pipebench::Metric;
using pipebench::Window;

struct Args {
  std::string workload;
  std::string record;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string reference_dir;
  std::string results;
  std::string inputs;
  std::string source = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw qdb::Error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--record") a.record = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--scratch") a.scratch = value;
    else if (flag == "--reference-dir") a.reference_dir = value;
    else if (flag == "--results") a.results = value;
    else if (flag == "--inputs") a.inputs = value;
    else if (flag == "--source") a.source = value;
    else throw qdb::Error("unknown flag " + flag);
  }
  if (a.reference_dir.empty()) throw qdb::Error("--reference-dir is required");
  if (a.record.empty()) {
    if (a.workload.empty() || a.scratch.empty()) {
      throw qdb::Error("--workload and --scratch are required");
    }
    if (!(a.seconds > 0.0)) throw qdb::Error("--seconds must be positive");
  }
  return a;
}

/// Every registry counter, by name.
std::map<std::string, double> counters() {
  std::map<std::string, double> out;
  for (const auto& [name, value] : qdb::obs::MetricRegistry::global().snapshot().counters) {
    out[name] = static_cast<double>(value);
  }
  return out;
}

struct SpanTotals {
  double count = 0.0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double max_ms = 0.0;
};

std::map<std::string, SpanTotals> span_totals(const qdb::obs::TraceSession& session) {
  std::map<std::string, SpanTotals> out;
  for (const qdb::obs::SpanSummary& s : session.summary()) {
    SpanTotals& t = out[s.name];
    t.count = static_cast<double>(s.count);
    t.total_ms = static_cast<double>(s.total_us) / 1e3;
    t.self_ms = static_cast<double>(s.self_us) / 1e3;
  }
  for (const qdb::obs::TraceEvent& e : session.events()) {
    SpanTotals& t = out[e.name];
    t.max_ms = std::max(t.max_ms, static_cast<double>(e.dur_us) / 1e3);
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double throughput(const Window& w) {
  return w.rates.empty() ? 0.0 : pipebench::median(w.rates);
}

/// The per-layer metrics of a traced window, per operation unless the name
/// says otherwise, in the order BENCHMARK.json lists them.
std::vector<Metric> layer_metrics(const pipebench::Workload& workload, const Window& untraced,
                                  const Window& traced, const qdb::obs::TraceSession& session,
                                  const std::map<std::string, double>& before_all,
                                  const std::map<std::string, double>& before,
                                  const std::map<std::string, double>& after, int threads) {
  const std::map<std::string, SpanTotals> spans = span_totals(session);
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const auto delta = [&](const char* name, const std::map<std::string, double>& from) {
    const auto a = after.find(name);
    const auto b = from.find(name);
    return (a == after.end() ? 0.0 : a->second) - (b == from.end() ? 0.0 : b->second);
  };
  const auto counter = [&](const char* name) { return delta(name, before); };
  const auto layer = [&](const char* name) {
    const auto it = traced.layer.find(name);
    return it == traced.layer.end() ? 0.0 : it->second;
  };
  const double ops = static_cast<double>(traced.attempted);
  const auto per_op = [&](double v) { return v / ops; };

  const double makespan = span("batch.run").total_ms;
  const double busy = span("batch.job").total_ms;
  const double energies = counter("hamiltonian.energies");
  const double cache_hits = counter("vqe.energy_cache.hits");
  const double stage2_s = span("screen.stage2").total_ms / 1e3;
  const double blob_hits = counter("store.cache.hits");
  const double blob_misses = counter("store.cache.misses");
  const SpanTotals request = span("serve.request");
  const double handler_ms = ratio(request.total_ms, request.count);

  double attributed_ms = 0.0;
  for (const char* name : workload.blocking_spans()) attributed_ms += span(name).total_ms;
  const auto unattributed = traced.layer.find("obs.unattributed_ms");

  return {
      {"quantum.apply_f32_ms", per_op(span("kernel.apply.f32").total_ms), "ms"},
      {"quantum.apply_f64_ms", per_op(span("kernel.apply.f64").total_ms), "ms"},
      {"quantum.apply_calls",
       per_op(span("kernel.apply.f32").count + span("kernel.apply.f64").count), "count"},
      {"quantum.fusion_ratio",
       ratio(counter("kernel.fused.gates_in"), counter("kernel.fused.ops")), "ratio"},
      {"quantum.tuner_tuned", delta("kernel.tuner.tuned", before_all), "count"},
      {"vqe.stage1_eval_ms", per_op(span("vqe.stage1.eval").total_ms), "ms"},
      {"vqe.stage1_eval_self_ms", per_op(span("vqe.stage1.eval").self_ms), "ms"},
      {"vqe.stage2_ms", per_op(span("vqe.stage2").total_ms), "ms"},
      {"vqe.refine_ms", per_op(span("vqe.refine").total_ms), "ms"},
      {"vqe.evals", per_op(counter("vqe.stage1.evals")), "count"},
      {"vqe.shots", per_op(counter("vqe.shots")), "count"},
      {"vqe.energy_cache_hit_ratio", ratio(cache_hits, cache_hits + energies), "ratio"},
      {"lattice.energies", per_op(energies), "count"},
      {"lattice.energy_batches", per_op(counter("hamiltonian.energy_batches")), "count"},
      {"batch.makespan_ms", per_op(makespan), "ms"},
      {"batch.job_busy_ms", per_op(busy), "ms"},
      {"batch.parallel_efficiency", ratio(busy, makespan * threads), "ratio"},
      {"batch.slowest_job_ms", span("batch.job").max_ms, "ms"},
      {"batch.checkpoint_ms", per_op(span("batch.checkpoint").total_ms), "ms"},
      {"batch.checkpoint_writes", per_op(span("batch.checkpoint").count), "count"},
      {"batch.jobs_failed", per_op(counter("batch.jobs_failed")), "count"},
      {"batch.jobs_retried", per_op(counter("batch.jobs_retried")), "count"},
      {"pipeline.reference_ms", per_op(span("pipeline.reference").total_ms), "ms"},
      {"pipeline.imprint_ms", per_op(span("pipeline.imprint").total_ms), "ms"},
      {"pipeline.predict_ms", per_op(span("pipeline.predict").total_ms), "ms"},
      {"pipeline.dock_ms", per_op(span("pipeline.dock").total_ms), "ms"},
      {"pipeline.rmsd_ms", per_op(span("pipeline.rmsd").total_ms), "ms"},
      {"dock.run_ms", per_op(span("dock.run").total_ms), "ms"},
      {"dock.search_ms", per_op(span("dock.search").total_ms), "ms"},
      {"dock.search_count", per_op(span("dock.search").count), "count"},
      {"dock.parallel_efficiency",
       ratio(span("dock.search").total_ms, span("dock.run").total_ms * threads), "ratio"},
      {"screen.prepare_ms", layer("screen.prepare_ms"), "ms"},
      {"screen.stage1_us_per_ligand",
       ratio(span("screen.stage1").total_ms * 1e3, counter("screen.ligands")), "us"},
      {"screen.stage2_ms", per_op(span("screen.stage2").total_ms), "ms"},
      {"screen.rescores_per_s", ratio(counter("screen.stage2.rescored"), stage2_s), "1/s"},
      {"screen.keep_rate", layer("screen.keep_rate"), "ratio"},
      {"serve.artifact_p50_ms", layer("serve.artifact_p50_ms"), "ms"},
      {"serve.artifact_p99_ms", layer("serve.artifact_p99_ms"), "ms"},
      {"serve.summary_p50_ms", layer("serve.summary_p50_ms"), "ms"},
      {"serve.list_p50_ms", layer("serve.list_p50_ms"), "ms"},
      {"serve.list_p99_ms", layer("serve.list_p99_ms"), "ms"},
      {"serve.latency_p99_ms", layer("serve.latency_p99_ms"), "ms"},
      {"serve.ingest_p50_ms", layer("serve.ingest_p50_ms"), "ms"},
      {"serve.handler_ms", handler_ms, "ms"},
      {"serve.wait_ms",
       request.count > 0 ? layer("serve.mean_latency_ms") - handler_ms : 0.0, "ms"},
      {"serve.not_modified_share", layer("serve.not_modified_share"), "ratio"},
      {"serve.bytes_sent", per_op(counter("serve.bytes_sent")), "bytes"},
      {"serve.client_retries", per_op(counter("serve.client.retry")), "count"},
      {"store.cache_hit_ratio", ratio(blob_hits, blob_hits + blob_misses), "ratio"},
      {"store.cache_misses", per_op(blob_misses), "count"},
      {"store.blobs_written", per_op(counter("store.blobs_written")), "count"},
      {"store.blobs_deduplicated", per_op(counter("store.blobs_deduplicated")), "count"},
      {"obs.spans_per_op", per_op(static_cast<double>(session.events().size())), "count"},
      {"obs.trace_overhead_pct",
       100.0 * ratio(throughput(untraced) - throughput(traced), throughput(untraced)), "%"},
      {"obs.unattributed_ms",
       unattributed != traced.layer.end() ? unattributed->second
                                          : per_op(traced.timed_s * 1e3 - attributed_ms),
       "ms"},
  };
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_failures(const Window& w) {
  for (const std::string& f : w.failures) std::printf("FAILED: %s\n", f.c_str());
}

/// Library parallelism of every workload.  One thread: on a shared host a
/// run at nproc threads waits for whichever core a neighbour holds, so its
/// figures follow the host's load rather than the program.
constexpr int kThreads = 1;

/// Pin the library state that moves timings: the tuner's plan cache lives
/// in this run's scratch directory, and no profile, log, fault or crash-dump
/// switch leaks in from the caller's environment.  OMP_NUM_THREADS must be
/// set by the caller (libgomp reads it before main) and equal kThreads.
void pin_environment(const Args& args) {
  const std::string tuner = args.scratch + "/tuner.json";
  setenv("QDB_TUNER_CACHE", tuner.c_str(), 1);
  for (const char* name : {"QDB_FULL", "QDB_LOG", "QDB_FAULT_SEED", "QDB_FLIGHT_DUMP"}) {
    unsetenv(name);
  }
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (omp == nullptr || std::to_string(kThreads) != omp) {
    throw qdb::Error("OMP_NUM_THREADS must be set to " + std::to_string(kThreads));
  }
}

/// Workload::build_inputs() in a child process, so that this process's peak
/// RSS is the same whether this run had to build the inputs or found them.
/// Called before any thread starts.
void build_inputs_in_child(pipebench::Workload& workload) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw qdb::Error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // a killed run leaves no builder behind
    int code = 0;
    try {
      workload.build_inputs();
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "pipebench: building inputs: %s\n", ex.what());
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw qdb::Error("building the workload's inputs failed");
  }
}

int run(const Args& args) {
  pipebench::Fingerprint fp = pipebench::host_fingerprint(args.source);
  if (!pipebench::optimised_build(fp.build_type)) {
    std::fprintf(stderr, "pipebench: WARNING: build type '%s' is not an optimised build; "
                 "timings are not comparable\n", fp.build_type.c_str());
  }
  pin_environment(args);
  pipebench::RunConfig cfg;
  cfg.workload = args.workload;
  cfg.seed = args.seed;
  cfg.threads = kThreads;
  cfg.scratch_dir = args.scratch;
  cfg.reference_dir = args.reference_dir;
  cfg.inputs_dir = args.inputs;

  std::printf("pipebench %s seed=%llu seconds=%g trace=%d threads=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              cfg.threads);
  std::unique_ptr<pipebench::Workload> workload = pipebench::make_workload(cfg);

  const double t_inputs = pipebench::now_s();
  build_inputs_in_child(*workload);
  std::printf("inputs: ready in %.3f s (untimed)\n", pipebench::now_s() - t_inputs);

  // At least five passes, and more (up to fifteen) while they add up to
  // under two seconds, so a cheap set-up still has a steady median.
  constexpr std::size_t kMinSetups = 5;
  constexpr std::size_t kMaxSetups = 15;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetups || (setup_total < 2.0 && setup_s.size() < kMaxSetups)) {
    const double t0 = pipebench::now_s();
    workload->setup();
    setup_s.push_back(pipebench::now_s() - t0);
    setup_total += setup_s.back();
  }
  const double setup_median = pipebench::median(setup_s);
  std::printf("setup: median %.4f s over %zu passes\n", setup_median, setup_s.size());

  const double t_checks = pipebench::now_s();
  workload->prepare_checks();
  std::printf("checks: expected outputs ready in %.3f s (untimed)\n",
              pipebench::now_s() - t_checks);

  std::vector<Metric> metrics;
  Window result;
  qdb::Json trace_doc;
  if (!args.trace) {
    result = workload->measure(args.seconds, false);
    const pipebench::Percentile p50 = pipebench::percentile(result.latencies_s, 50);
    const pipebench::Percentile p99 = pipebench::percentile(result.latencies_s, 99);
    metrics = {
        {"throughput", throughput(result), "items/s"},
        {"latency_p50_ms", p50.value * 1e3, "ms"},
        {"setup_s", setup_median, "s"},
        {"peak_rss_mb", pipebench::peak_rss_mb(), "MB"},
    };
    print_metrics("end-to-end:", metrics);
    std::printf("  throughput counts %s/s; latency_p50_ms is over %zu samples of %llu "
                "operations\n",
                workload->work_unit(), p50.samples,
                static_cast<unsigned long long>(result.attempted));
    // A tail needs at least ten samples beyond it; only serving has them.
    // It is printed, not part of the result: BENCHMARK.json bounds a metric
    // on every workload alike.
    if (p99.beyond >= 10) {
      std::printf("  %-30s %16.6g ms (rank %zu of %zu samples, %zu beyond)\n", "latency_p99_ms",
                  p99.value * 1e3, p99.rank, p99.samples, p99.beyond);
    }
  } else {
    const auto before_all = counters();
    const Window untraced = workload->measure(args.seconds / 2, false);
    const auto before = counters();
    qdb::obs::TraceSession session;
    session.start();
    result = workload->measure(args.seconds / 2, true);
    session.stop();
    const auto after = counters();
    metrics = layer_metrics(*workload, untraced, result, session, before_all, before, after,
                            cfg.threads);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.failures.insert(result.failures.end(), untraced.failures.begin(),
                           untraced.failures.end());
    print_metrics("per-layer (per operation):", metrics);
    // Every event for chrome://tracing while the file stays small; the span
    // summary and the registry always.
    constexpr std::size_t kMaxExportedEvents = 100000;
    trace_doc = session.events().size() <= kMaxExportedEvents ? session.to_chrome_json()
                                                               : qdb::Json::object();
    trace_doc.set("summary", session.summary_json());
    trace_doc.set("registry", qdb::obs::MetricRegistry::global().to_json());
  }
  print_failures(result);
  std::printf("error_rate: %.6g (%llu of %llu operations failed or were wrong)\n",
              ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  fp.load_end = pipebench::load_average_1m();
  const qdb::Json fp_json = pipebench::fingerprint_json(fp);
  std::printf("fingerprint: %s\n", fp_json.dump(-1).c_str());

  if (!args.results.empty()) {
    const std::string stem =
        args.results + "/" + args.workload + (args.trace ? ".trace1" : ".trace0");
    qdb::Json doc = qdb::Json::object();
    doc.set("workload", args.workload);
    doc.set("seed", static_cast<std::int64_t>(args.seed));
    doc.set("fingerprint", fp_json);
    qdb::Json m = qdb::Json::object();
    for (const Metric& metric : metrics) m.set(metric.name, metric.value);
    doc.set("metrics", m);
    qdb::write_file_atomic(stem + ".json", doc.dump() + "\n");
    if (args.trace) qdb::write_file_atomic(stem + ".chrome.json", trace_doc.dump(-1));
  }

  std::printf("%s\n", pipebench::result_line(result.failed == 0, result.attempted, result.failed,
                                             metrics)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.record.empty()) {
      pipebench::RunConfig cfg;
      cfg.workload = args.record;
      cfg.threads = kThreads;
      cfg.reference_dir = args.reference_dir;
      pipebench::record_references(cfg, args.record);
      return 0;
    }
    return run(args);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "pipebench: %s\n", ex.what());
    return 1;
  }
}
