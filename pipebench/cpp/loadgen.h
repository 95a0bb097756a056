// Closed-loop HTTP load generator for the serve-mixed workload.
//
// Each client runs on its own thread with its own connection and sends its
// next request only after the previous reply has been checked, so a slower
// server receives less load.  Clients run short sessions (a seeded number of
// requests on one keep-alive connection) and then close, so both connection
// set-up and keep-alive reuse are exercised.  The transport is injected, so
// the accounting (sent = succeeded + failed) is testable without a socket.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "serve/http.h"

namespace pipebench {

/// Request classes, reported separately by the traced run.
enum class RequestClass { Artifact = 0, Summary, List, Metrics, Ingest };
inline constexpr int kRequestClasses = 5;

struct RequestSpec {
  RequestClass cls = RequestClass::Artifact;
  std::string method = "GET";
  std::string target;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  ExpectedResponse expect;
};

/// One client's connection.  send() throws on transport errors.
class Connection {
 public:
  virtual ~Connection() = default;
  virtual qdb::serve::HttpClientResponse send(const RequestSpec& request) = 0;
  virtual void close() = 0;
};

using ConnectionFactory = std::function<std::unique_ptr<Connection>(int client)>;
/// Next request of a client; a pure function of the client's rng stream and
/// its request sequence number, so a seed fixes every request sent.
using RequestSource = std::function<RequestSpec(qdb::Rng& rng, int client, std::uint64_t seq)>;

struct LoadOptions {
  int clients = 1;
  double seconds = 1.0;
  std::uint64_t seed = 1;
};

/// Requests per connection before it closes, drawn uniformly per session:
/// short enough that connection set-up is about one request in fifty, long
/// enough to keep the TIME_WAIT sockets each close leaves for 60 s to a few
/// thousand per run.  Sessions of a few requests filled the loopback port
/// range within one run and slowed every later connect, the next run's too.
inline constexpr int kMinSession = 25;
inline constexpr int kMaxSession = 75;

struct ClassStats {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t not_modified = 0;  ///< checked 304 replies
};

struct LatencySample {
  float seconds = 0.0f;
  RequestClass cls = RequestClass::Artifact;
};

/// Latency samples kept per client: a uniform reservoir over every request
/// the client sent (failed ones too), so the process's memory does not grow
/// with throughput — peak_rss_mb would otherwise track the request count.
inline constexpr std::size_t kSamplesPerClient = 32768;

struct LoadResult {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::array<ClassStats, kRequestClasses> per_class;
  std::vector<LatencySample> samples;  ///< every client's reservoir
  double latency_sum_s = 0.0;          ///< over every sent request
  /// Requests that passed their check, per whole one-second slice of the
  /// window (a partial last slice is dropped).
  std::vector<std::uint64_t> succeeded_per_slice;
  double wall_s = 0.0;               ///< first request to last client joined
  double client_loop_s = 0.0;        ///< summed client thread time
  std::vector<std::string> failures; ///< first few failure descriptions
};

/// Sampled latencies (seconds) of one class.
std::vector<double> class_latencies(const LoadResult& result, RequestClass cls);

/// Run `options.clients` closed-loop clients for `options.seconds`.
LoadResult run_closed_loop(const LoadOptions& options, const ConnectionFactory& open_connection,
                           const RequestSource& next_request);

}  // namespace pipebench
