// The five pipebench workloads.  Each drives the libraries' public API only
// and checks every output it times; README.md records why each exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/registry.h"

namespace pipebench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int threads = 1;             ///< library parallelism
  std::string scratch_dir;     ///< fresh, empty, owned by this run
  std::string reference_dir;   ///< recorded expected outputs
  /// Seed-independent inputs too costly to rebuild per run, kept between
  /// runs of one binary (the runner names the directory by its digest).
  std::string inputs_dir;
};

/// One measured window of a workload.
struct Window {
  /// One per operation; for serving, a uniform sample of the requests.
  std::vector<double> latencies_s;
  /// Units completed per second, one sample per operation (per one-second
  /// slice, for serving); a failed operation's sample is 0.  Throughput is
  /// their median, so one stalled operation does not move it.
  std::vector<double> rates;
  double timed_s = 0.0;             ///< timed wall time behind `work`
  double work = 0.0;                ///< units completed by operations that passed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Layer metrics only the workload can measure (benchmark-side timings,
  /// report properties, client-side request classes) and the client-side
  /// mean latency serve.wait_ms is derived from, keyed by name.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What one unit of `work` is: entries, ligands or requests.
  virtual const char* work_unit() const = 0;
  /// Untimed, in a child process: make the inputs setup() reads in
  /// RunConfig::inputs_dir unless an earlier run made them.
  virtual void build_inputs() {}
  /// Build everything the first timed operation needs.  Called several
  /// times per run to measure set-up; each call replaces the previous state.
  virtual void setup() = 0;
  /// Untimed: load the recorded expected outputs, or derive the ones this
  /// seed has none for.
  virtual void prepare_checks() = 0;
  /// Run operations for about `seconds`; `traced` when a TraceSession records.
  virtual Window measure(double seconds, bool traced) = 0;
  /// Spans that tile one operation on its own thread; operation wall time
  /// outside them is reported as obs.unattributed_ms.
  virtual std::vector<const char*> blocking_spans() const = 0;
};

/// vqe-batch inputs: operation `op`'s submission order of all 55 entries.
std::vector<const qdb::DatasetEntry*> batch_submission_order(std::uint64_t seed, std::uint64_t op);
/// fold-dock inputs: one entry per engine class (S dense, M dense 12-14
/// qubits, M MPS, L MPS); seed 1 includes 4jpy.
std::vector<const qdb::DatasetEntry*> fold_dock_subset(std::uint64_t seed);

const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const RunConfig& config);

/// Regenerate the recorded expected outputs of `workload` into
/// config.reference_dir (see README.md); prints per-entry timings.
void record_references(const RunConfig& config, const std::string& workload);

}  // namespace pipebench
