// Measurement primitives shared by every pipebench workload: clocks,
// nearest-rank percentiles with their sample counts, process memory, the
// host fingerprint, and the one-line JSON result the benchmark prints last.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace pipebench {

/// Monotonic seconds (steady_clock).
double now_s();

/// A nearest-rank percentile: value = sorted[rank - 1] with
/// rank = ceil(p / 100 * samples).  `beyond` is the number of samples
/// strictly above that rank — a tail percentile is only meaningful when
/// beyond >= 10, which callers print next to the value.
struct Percentile {
  double value = 0.0;
  std::size_t rank = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Throws qdb::Error on an empty sample set or p outside (0, 100].
Percentile percentile(std::vector<double> samples, double p);

/// Median (nearest-rank p50) value; throws on an empty sample set.
double median(const std::vector<double>& samples);

/// Confine this process, and every thread it starts later, to the core it
/// is running on; returns the core.
int pin_to_one_core();

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

/// Host and build facts recorded next to every result.
struct Fingerprint {
  std::string source;       ///< git sha, or a digest of src/ when not a checkout
  std::string build_type;
  std::string compiler;
  std::string cpu_model;
  bool avx2 = false;
  int nproc = 0;
  double load_start = 0.0;  ///< 1-minute load average at start
  double load_end = 0.0;
  std::string omp_num_threads;
};

/// Everything but the load at the end; `source` is passed in by the runner.
Fingerprint host_fingerprint(const std::string& source);
double load_average_1m();
/// True for the optimised CMake build types (Release, RelWithDebInfo).
bool optimised_build(const std::string& build_type);
qdb::Json fingerprint_json(const Fingerprint& fp);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}.
/// Values print with 17 significant digits.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace pipebench
