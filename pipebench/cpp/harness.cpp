#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.h"

namespace pipebench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Percentile percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw qdb::Error("percentile of an empty sample set");
  if (!(p > 0.0 && p <= 100.0)) throw qdb::Error("percentile outside (0, 100]");
  std::sort(samples.begin(), samples.end());
  Percentile out;
  out.samples = samples.size();
  const double exact = p / 100.0 * static_cast<double>(samples.size());
  // The epsilon keeps p99 of 1000 samples at rank 990 despite 0.99 * 1000
  // rounding to 990.0000000000001.
  out.rank = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(exact - 1e-9)));
  out.value = samples[out.rank - 1];
  out.beyond = out.samples - out.rank;
  return out;
}

double median(const std::vector<double>& samples) { return percentile(samples, 50.0).value; }

int pin_to_one_core() {
  const int cpu = sched_getcpu();
  if (cpu < 0) throw qdb::Error("sched_getcpu failed");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) throw qdb::Error("sched_setaffinity failed");
  return cpu;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw qdb::Error("VmHWM missing from /proc/self/status");
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  in >> load;
  return load;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

bool optimised_build(const std::string& build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo";
}

Fingerprint host_fingerprint(const std::string& source) {
  Fingerprint fp;
  fp.source = source;
  fp.build_type = PIPEBENCH_BUILD_TYPE;
  fp.compiler = PIPEBENCH_COMPILER;
  fp.cpu_model = cpu_model();
  fp.avx2 = __builtin_cpu_supports("avx2") != 0;
  fp.nproc = static_cast<int>(std::thread::hardware_concurrency());
  fp.load_start = load_average_1m();
  const char* omp = std::getenv("OMP_NUM_THREADS");
  fp.omp_num_threads = omp != nullptr ? omp : "";
  return fp;
}

qdb::Json fingerprint_json(const Fingerprint& fp) {
  qdb::Json doc = qdb::Json::object();
  doc.set("source", fp.source);
  doc.set("build_type", fp.build_type);
  doc.set("compiler", fp.compiler);
  doc.set("cpu_model", fp.cpu_model);
  doc.set("avx2", fp.avx2);
  doc.set("nproc", fp.nproc);
  doc.set("omp_num_threads", fp.omp_num_threads);
  doc.set("load_start", fp.load_start);
  doc.set("load_end", fp.load_end);
  return doc;
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) throw qdb::Error("metric '" + m.name + "' is not finite");
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << buf << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace pipebench
