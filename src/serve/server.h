// The embedded QDockBank dataset query server (ISSUE 4).
//
// A dependency-free, blocking HTTP/1.1 server over a content-addressed
// store (src/store/).  One acceptor thread feeds accepted connections into
// a bounded queue drained by a plain std::thread worker pool — the
// common/parallel.h style of fan-out (explicit threads, no runtime), so the
// whole request path is visible to ThreadSanitizer.
//
// Routing is one table.  Each row is a method, an exact path pattern whose
// `{param}` segments match any one non-empty segment, and the query keys
// the row accepts.  The constructor registers the dataset endpoints:
//
//   GET /healthz                           liveness + entry count
//   GET /metrics?format=json|prometheus    request counters, power-of-two
//                                          latency histogram, blob-cache hit
//                                          rate, store stats, the registry
//   GET /entries                           entry summaries; filters: group,
//                                          length, min_length, max_length,
//                                          qubits, min_qubits, max_qubits,
//                                          min_rmsd, max_rmsd, min_affinity,
//                                          max_affinity
//   GET /entries/{pdb_id}                  one entry summary (404 when unknown)
//   GET /entries/{pdb_id}/{artifact}       structure.pdb, metadata.json or
//                                          docking.json bytes; ETag = content
//                                          hash, If-None-Match -> 304
//
// and the attach_* functions of the screen, trace and job APIs add theirs
// with add_route().  The table, not the handlers, answers every request
// whose shape is wrong: 404 when no pattern matches the path, 405 with an
// Allow header listing the methods of the patterns that do, 400 for a
// query key the row does not list, and, on a live connection before the
// body is read, 400 for a body that no POST row takes (a body sent to an
// unknown path is read, then answered 404).  Only POST rows take bodies, up
// to max_body_bytes.  Handlers validate values, never the request's shape.
//
// Responses are deterministic functions of the store (entries are served in
// index order, blobs verbatim), which is what lets the concurrent-load
// golden test demand byte-identical bodies across thread counts.
//
// Shutdown is cooperative and clean: stop() shuts the listener down, wakes
// the workers, and read-half-closes every in-flight connection — blocked
// reads wake immediately, but a response already being produced or written
// is always delivered in full (never cut mid-body; the ISSUE 7 regression
// test holds a lease exchange across stop() to prove it).  Requests read
// after stop() began get a 503 instead of dispatch.  stop() joins all
// threads, is idempotent, and also runs from the destructor.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/net_socket.h"
#include "store/store.h"

namespace qdb::serve {

struct ServeOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
  int threads = 4;         ///< worker pool size (>= 1)
  std::size_t max_header_bytes = 64 * 1024;  ///< request head cap (431 above)
  std::size_t max_body_bytes = 256 * 1024;   ///< request body cap (413 above)
  std::size_t max_queued_connections = 256;  ///< accept backpressure bound
  /// Seed for the trace roots synthesised for requests that arrive without
  /// a (valid) traceparent header — mixed with a per-request sequence
  /// number, so every un-traced request still roots its own reproducible
  /// trace (ISSUE 10).
  std::uint64_t trace_seed = 0x71db5e71db5e71dbULL;
};

/// What a route handler receives: the parsed request, its body bytes (empty
/// on GET rows) and the values of the row pattern's `{param}` segments, in
/// pattern order.
struct RouteRequest {
  const HttpRequest& http;
  const std::string& body;
  const std::vector<std::string>& params;
};

/// Produces the full response for a request the route table accepted.  Must
/// be thread-safe — the worker pool calls it concurrently.
using RouteHandler = std::function<HttpResponse(const RouteRequest& request)>;

class DatasetServer {
 public:
  /// The store must outlive the server and is treated as immutable while
  /// serving (ingest before start()).
  DatasetServer(const store::Store& store, ServeOptions options);
  ~DatasetServer();

  DatasetServer(const DatasetServer&) = delete;
  DatasetServer& operator=(const DatasetServer&) = delete;

  /// Bind, listen, and launch the acceptor + worker threads.  Throws
  /// qdb::IoError (e.g. port in use).
  void start() QDB_EXCLUDES(queue_mu_);

  /// Drain and join everything; idempotent.
  void stop() QDB_EXCLUDES(queue_mu_, active_mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (after start()).
  std::uint16_t port() const { return port_; }

  const ServerMetrics& metrics() const { return metrics_; }

  /// Add a route-table row: `method` ("GET" or "POST") on the exact path
  /// `pattern` (e.g. "/jobs/{pdb_id}/heartbeat"), accepting only the listed
  /// query keys.  Call before start().
  void add_route(std::string method, const std::string& pattern,
                 std::vector<std::string> query_keys, RouteHandler handler);

  /// Pure request → response routing; exposed so tests can drive the
  /// router without a socket in the loop.  Thread-safe.
  HttpResponse handle(const HttpRequest& request) const;

  /// Routing with the request body, for POST rows.
  HttpResponse handle(const HttpRequest& request, const std::string& body) const;

 private:
  struct Route {
    std::string method;
    std::vector<std::string> segments;  ///< pattern split on '/'
    std::vector<std::string> query_keys;
    RouteHandler handler;
  };

  /// The row for request.method on request.path, with its `{param}` values
  /// in *params.  nullptr when no row matches; *allow then lists the methods
  /// of the rows whose pattern matches the path (empty: none does).
  const Route* find_route(const HttpRequest& request, std::vector<std::string>* params,
                          std::string* allow) const;
  /// False when the path has rows but none takes a body for this method.
  bool accepts_body(const HttpRequest& request) const;
  void accept_loop() QDB_EXCLUDES(queue_mu_);
  void worker_loop() QDB_EXCLUDES(queue_mu_);
  void serve_connection(Socket conn) QDB_EXCLUDES(queue_mu_, active_mu_);

  HttpResponse handle_healthz() const;
  HttpResponse handle_entries(const HttpRequest& request) const;
  HttpResponse handle_entry(const std::string& pdb_id) const;
  HttpResponse handle_artifact(const HttpRequest& request, const std::string& pdb_id,
                               const std::string& filename) const;
  HttpResponse handle_metrics(const HttpRequest& request) const;

  const store::Store& store_;
  ServeOptions options_;
  ServerMetrics metrics_;
  std::vector<Route> routes_;

  Socket listener_;
  std::uint16_t port_ = 0;
  // Written by start()/stop() (one controlling thread), read by running()
  // from anywhere — atomic so a monitoring thread's poll is race-free.
  std::atomic<bool> running_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Connection handoff queue (acceptor -> workers).  queue_mu_ guards the
  // queue and the stopping_ flag; queue_cv_ signals both "queue no longer
  // full" (acceptor waits) and "queue non-empty or stopping" (workers wait).
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Socket> queue_ QDB_GUARDED_BY(queue_mu_);
  bool stopping_ QDB_GUARDED_BY(queue_mu_) = false;

  // In-flight connection fds, so stop() can unblock blocked reads.
  Mutex active_mu_;
  std::unordered_set<int> active_fds_ QDB_GUARDED_BY(active_mu_);

  // Per-request sequence: the branch salt for extracted trace contexts
  // (two requests carrying the same remote context must not derive
  // colliding child span ids) and the root-seed discriminator for
  // synthesised ones.
  std::atomic<std::uint64_t> trace_seq_{0};
};

}  // namespace qdb::serve
