#include "loadgen.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "harness.h"

namespace pipebench {

namespace {

constexpr std::size_t kKeptFailures = 8;

void merge_into(LoadResult& total, const LoadResult& part) {
  total.sent += part.sent;
  total.succeeded += part.succeeded;
  total.failed += part.failed;
  total.client_loop_s += part.client_loop_s;
  total.latency_sum_s += part.latency_sum_s;
  total.samples.insert(total.samples.end(), part.samples.begin(), part.samples.end());
  total.succeeded_per_slice.resize(
      std::max(total.succeeded_per_slice.size(), part.succeeded_per_slice.size()));
  for (std::size_t i = 0; i < part.succeeded_per_slice.size(); ++i) {
    total.succeeded_per_slice[i] += part.succeeded_per_slice[i];
  }
  for (int c = 0; c < kRequestClasses; ++c) {
    ClassStats& dst = total.per_class[static_cast<std::size_t>(c)];
    const ClassStats& src = part.per_class[static_cast<std::size_t>(c)];
    dst.sent += src.sent;
    dst.succeeded += src.succeeded;
    dst.failed += src.failed;
    dst.not_modified += src.not_modified;
  }
  for (const std::string& f : part.failures) {
    if (total.failures.size() < kKeptFailures) total.failures.push_back(f);
  }
}

LoadResult run_client(int client, double window_start, const LoadOptions& options,
                      const ConnectionFactory& open_connection, const RequestSource& next_request) {
  LoadResult out;
  const double start = now_s();
  const double deadline = window_start + options.seconds;
  out.succeeded_per_slice.assign(static_cast<std::size_t>(options.seconds), 0);
  qdb::Rng rng(qdb::seed_combine(options.seed, static_cast<std::uint64_t>(client)));
  // A stream of its own, so sampling never changes the requests sent.
  qdb::Rng reservoir(qdb::seed_combine(qdb::seed_combine(options.seed, qdb::fnv1a("reservoir")),
                                       static_cast<std::uint64_t>(client)));
  out.samples.reserve(kSamplesPerClient);
  std::unique_ptr<Connection> conn = open_connection(client);
  std::uint64_t seq = 0;
  while (now_s() < deadline) {
    const std::int64_t length = rng.range(kMinSession, kMaxSession);
    for (std::int64_t i = 0; i < length && now_s() < deadline; ++i) {
      const RequestSpec request = next_request(rng, client, seq++);
      ClassStats& cls = out.per_class[static_cast<std::size_t>(request.cls)];
      ++out.sent;
      ++cls.sent;
      std::string error;
      const double t0 = now_s();
      double latency = 0.0;
      try {
        const qdb::serve::HttpClientResponse response = conn->send(request);
        latency = now_s() - t0;
        error = check_response(request.expect, response);
      } catch (const std::exception& ex) {
        latency = now_s() - t0;
        error = std::string("transport: ") + ex.what();
        conn->close();
      }
      out.latency_sum_s += latency;
      const LatencySample sample{static_cast<float>(latency), request.cls};
      if (out.sent <= kSamplesPerClient) {
        out.samples.push_back(sample);
      } else if (const std::uint64_t j = reservoir.below(out.sent); j < kSamplesPerClient) {
        out.samples[static_cast<std::size_t>(j)] = sample;
      }
      if (error.empty()) {
        ++out.succeeded;
        ++cls.succeeded;
        if (request.expect.status == 304) ++cls.not_modified;
        const auto slice = static_cast<std::size_t>(now_s() - window_start);
        if (slice < out.succeeded_per_slice.size()) ++out.succeeded_per_slice[slice];
      } else {
        ++out.failed;
        ++cls.failed;
        if (out.failures.size() < kKeptFailures) {
          out.failures.push_back(request.method + " " + request.target + ": " + error);
        }
      }
    }
    conn->close();
  }
  out.client_loop_s = now_s() - start;
  return out;
}

}  // namespace

std::vector<double> class_latencies(const LoadResult& result, RequestClass cls) {
  std::vector<double> out;
  for (const LatencySample& s : result.samples) {
    if (s.cls == cls) out.push_back(s.seconds);
  }
  return out;
}

LoadResult run_closed_loop(const LoadOptions& options, const ConnectionFactory& open_connection,
                           const RequestSource& next_request) {
  std::vector<LoadResult> parts(static_cast<std::size_t>(options.clients));
  std::vector<std::exception_ptr> errors(parts.size());
  const double start = now_s();
  {
    std::vector<std::thread> clients;
    clients.reserve(parts.size());
    for (int c = 0; c < options.clients; ++c) {
      clients.emplace_back([&, c] {
        try {
          parts[static_cast<std::size_t>(c)] =
              run_client(c, start, options, open_connection, next_request);
        } catch (...) {
          errors[static_cast<std::size_t>(c)] = std::current_exception();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  LoadResult total;
  total.samples.reserve(parts.size() * kSamplesPerClient);
  for (LoadResult& part : parts) {
    merge_into(total, part);
    part = LoadResult{};
  }
  total.wall_s = now_s() - start;
  return total;
}

}  // namespace pipebench
