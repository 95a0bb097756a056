#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::serve {

namespace {

/// Strict Content-Length parsing: digits only, whole value must consume.
bool parse_content_length(const std::string& s, std::size_t* out) {
  if (s.empty() || s.size() > 18) return false;
  std::size_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = v;
  return true;
}

/// Strict numeric query parsing: the whole value must consume.
std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return v;
}

std::optional<int> parse_int(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  if (v < -1000000000L || v > 1000000000L) return std::nullopt;
  return static_cast<int>(v);
}

/// The /entries filter set.  Malformed values are an error, and the route
/// table rejects unknown keys: a typo silently matching everything is worse
/// than a 400.
struct EntryFilter {
  static constexpr const char* kKeys[] = {
      "group",      "length",   "min_length", "max_length",   "qubits",      "min_qubits",
      "max_qubits", "min_rmsd", "max_rmsd",   "min_affinity", "max_affinity"};

  std::optional<char> group;
  std::optional<int> length, min_length, max_length;
  std::optional<int> qubits, min_qubits, max_qubits;
  std::optional<double> min_rmsd, max_rmsd;
  std::optional<double> min_affinity, max_affinity;

  /// Returns an error message, or empty on success.
  std::string parse(const HttpRequest& request) {
    for (const auto& [key, value] : request.query) {
      if (key == "group") {
        if (value != "S" && value != "M" && value != "L") {
          return "group must be S, M or L";
        }
        group = value[0];
      } else if (key == "length" || key == "min_length" || key == "max_length" ||
                 key == "qubits" || key == "min_qubits" || key == "max_qubits") {
        const std::optional<int> v = parse_int(value);
        if (!v) return "parameter '" + key + "' must be an integer";
        if (key == "length") length = v;
        else if (key == "min_length") min_length = v;
        else if (key == "max_length") max_length = v;
        else if (key == "qubits") qubits = v;
        else if (key == "min_qubits") min_qubits = v;
        else max_qubits = v;
      } else if (key == "min_rmsd" || key == "max_rmsd" || key == "min_affinity" ||
                 key == "max_affinity") {
        const std::optional<double> v = parse_double(value);
        if (!v) return "parameter '" + key + "' must be a number";
        if (key == "min_rmsd") min_rmsd = v;
        else if (key == "max_rmsd") max_rmsd = v;
        else if (key == "min_affinity") min_affinity = v;
        else max_affinity = v;
      }
    }
    return "";
  }

  bool matches(const store::EntryRecord& e) const {
    if (group && e.group != *group) return false;
    if (length && e.length != *length) return false;
    if (min_length && e.length < *min_length) return false;
    if (max_length && e.length > *max_length) return false;
    if (qubits && e.qubits != *qubits) return false;
    if (min_qubits && e.qubits < *min_qubits) return false;
    if (max_qubits && e.qubits > *max_qubits) return false;
    if (min_rmsd && e.ca_rmsd < *min_rmsd) return false;
    if (max_rmsd && e.ca_rmsd > *max_rmsd) return false;
    if (min_affinity && e.best_affinity < *min_affinity) return false;
    if (max_affinity && e.best_affinity > *max_affinity) return false;
    return true;
  }
};

Json entry_summary_json(const store::EntryRecord& e) {
  Json j = Json::object();
  j.set("pdb_id", e.pdb_id);
  j.set("group", std::string(1, e.group));
  j.set("sequence", e.sequence);
  j.set("length", e.length);
  j.set("qubits", e.qubits);
  j.set("best_affinity", e.best_affinity);
  j.set("ca_rmsd", e.ca_rmsd);
  Json artifacts = Json::object();
  for (int i = 0; i < store::kArtifactCount; ++i) {
    const auto a = static_cast<store::Artifact>(i);
    const store::ArtifactRef& ref = e.artifact(a);
    Json art = Json::object();
    art.set("hash", ref.hash);
    art.set("size", static_cast<std::int64_t>(ref.size));
    artifacts.set(store::artifact_filename(a), std::move(art));
  }
  j.set("artifacts", std::move(artifacts));
  return j;
}

const char* artifact_content_type(store::Artifact a) {
  switch (a) {
    case store::Artifact::Structure: return "chemical/x-pdb";
    case store::Artifact::Metadata: return "application/json";
    case store::Artifact::Docking: return "application/json";
  }
  return "application/octet-stream";
}

/// True when `path` has exactly the pattern's segments, a `{param}` segment
/// matching any one non-empty segment; the param values go to *params.
bool match_segments(const std::vector<std::string>& segments, std::string_view path,
                    std::vector<std::string>* params) {
  params->clear();
  for (const std::string& segment : segments) {
    if (!starts_with(path, "/")) return false;
    path.remove_prefix(1);
    const std::string_view part = path.substr(0, path.find('/'));
    path.remove_prefix(part.size());
    const bool is_param = starts_with(segment, "{");
    if (is_param ? part.empty() : part != segment) return false;
    if (is_param) params->emplace_back(part);
  }
  return path.empty();
}

/// Match an If-None-Match header value against an ETag ('"hash"'), accepting
/// the quoted form, the bare hash, and the '*' wildcard.
bool etag_matches(const std::string& if_none_match, const std::string& hash) {
  if (if_none_match == "*") return true;
  std::string_view v = if_none_match;
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
    v = v.substr(1, v.size() - 2);
  }
  return v == hash;
}

}  // namespace

DatasetServer::DatasetServer(const store::Store& store, ServeOptions options)
    : store_(store), options_(std::move(options)) {
  QDB_REQUIRE(options_.threads >= 1,
              "server needs at least 1 worker thread, got " << options_.threads);
  add_route("GET", "/healthz", {}, [this](const RouteRequest&) { return handle_healthz(); });
  add_route("GET", "/metrics", {"format"},
            [this](const RouteRequest& r) { return handle_metrics(r.http); });
  add_route("GET", "/entries", {std::begin(EntryFilter::kKeys), std::end(EntryFilter::kKeys)},
            [this](const RouteRequest& r) { return handle_entries(r.http); });
  add_route("GET", "/entries/{pdb_id}", {},
            [this](const RouteRequest& r) { return handle_entry(r.params[0]); });
  add_route("GET", "/entries/{pdb_id}/{artifact}", {}, [this](const RouteRequest& r) {
    return handle_artifact(r.http, r.params[0], r.params[1]);
  });
}

DatasetServer::~DatasetServer() { stop(); }

void DatasetServer::start() {
  QDB_REQUIRE(!running_, "server already started");
  listener_ = tcp_listen(options_.host, options_.port);
  port_ = local_port(listener_);
  {
    // A previous stop() leaves stopping_ true; reset it under its lock so
    // the write is ordered against any worker from that earlier generation
    // still draining (the restart race -Werror=thread-safety surfaced).
    const MutexLock lock(queue_mu_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<std::size_t>(options_.threads));
  for (int t = 0; t < options_.threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

void DatasetServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    const MutexLock lock(queue_mu_);
    stopping_ = true;
  }
  // Unblock the acceptor, then the workers, then any in-flight reads.
  // Shutdown only — not close — while the acceptor is live: accept() on a
  // shut-down listener returns EINVAL (the cooperative-stop signal in
  // tcp_accept), whereas close() would race on the fd value and let the
  // kernel recycle the fd number under a concurrent accept().  The close
  // happens after the join below.
  shutdown_socket(listener_);
  queue_cv_.notify_all();
  {
    // Read-half close only (ISSUE 7 shutdown-ordering fix): a full
    // SHUT_RDWR here could cut a response mid-body on a long-lived worker
    // connection whose lease exchange is being written right now.  SHUT_RD
    // wakes workers blocked between requests, while an in-flight write
    // completes; the 503-when-stopping check in serve_connection plus
    // keep_alive=false ensure the worker loop exits right after.
    const MutexLock lock(active_mu_);
    for (int fd : active_fds_) shutdown_fd_read(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    // Connections accepted but never claimed by a worker: close them.
    const MutexLock lock(queue_mu_);
    queue_.clear();
  }
  running_.store(false, std::memory_order_release);
}

void DatasetServer::accept_loop() {
  for (;;) {
    Socket conn = tcp_accept(listener_);
    if (!conn.valid()) return;  // listener shut down
    metrics_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    {
      const MutexLock lock(queue_mu_);
      queue_cv_.wait(queue_mu_, [this]() QDB_REQUIRES(queue_mu_) {
        return stopping_ || queue_.size() < options_.max_queued_connections;
      });
      if (stopping_) return;  // conn closes on scope exit
      queue_.push_back(std::move(conn));
    }
    queue_cv_.notify_one();
  }
}

void DatasetServer::worker_loop() {
  for (;;) {
    Socket conn;
    {
      const MutexLock lock(queue_mu_);
      queue_cv_.wait(queue_mu_,
                     [this]() QDB_REQUIRES(queue_mu_) { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      conn = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_cv_.notify_one();  // wake the acceptor if it hit the queue bound
    serve_connection(std::move(conn));
  }
}

void DatasetServer::serve_connection(Socket conn) {
  const int fd = conn.fd();
  {
    const MutexLock lock(active_mu_);
    active_fds_.insert(fd);
  }

  std::string buffer;
  char chunk[4096];
  bool keep_alive = true;
  while (keep_alive) {
    // Accumulate until a full head ("\r\n\r\n") is buffered.
    std::size_t head_end;
    for (;;) {
      head_end = buffer.find("\r\n\r\n");
      if (head_end != std::string::npos) break;
      if (buffer.size() > options_.max_header_bytes) {
        send_all(conn, serialize_response(
                           error_response(431, "request head too large"), false));
        keep_alive = false;
        break;
      }
      std::size_t n = 0;
      try {
        n = recv_some(conn, chunk, sizeof chunk);
      } catch (const IoError&) {
        n = 0;
      }
      if (n == 0) {  // EOF / shutdown
        keep_alive = false;
        break;
      }
      buffer.append(chunk, n);
    }
    if (!keep_alive) break;

    HttpRequest request;
    const bool parsed = parse_request_head(
        std::string_view(buffer).substr(0, head_end), &request);
    buffer.erase(0, head_end + 4);

    HttpResponse response;
    std::uint64_t micros = 0;
    bool dispatch = false;
    std::size_t body_len = 0;
    if (!parsed) {
      response = error_response(400, "malformed request");
      keep_alive = false;
    } else {
      const std::string* len = request.header("content-length");
      if (len != nullptr && !parse_content_length(*len, &body_len)) {
        response = error_response(400, "bad Content-Length '" + *len + "'");
        keep_alive = false;
      } else if (body_len > options_.max_body_bytes) {
        // Draining an oversized body would let a client hold the worker;
        // answer and drop the connection instead.
        response = error_response(413, "request body too large");
        keep_alive = false;
      } else if (body_len > 0 && !accepts_body(request)) {
        response = error_response(400, "request bodies are not accepted");
        keep_alive = false;
      } else {
        dispatch = true;
      }
    }

    std::string body;
    if (dispatch && body_len > 0) {
      // The pipelined buffer may already hold (part of) the body.
      bool aborted = false;
      while (buffer.size() < body_len && !aborted) {
        std::size_t n = 0;
        try {
          n = recv_some(conn, chunk, sizeof chunk);
        } catch (const IoError&) {
          n = 0;
        }
        if (n == 0) {
          aborted = true;  // peer died (or stop() half-closed us) mid-body
        } else {
          buffer.append(chunk, n);
        }
      }
      if (aborted) break;  // nothing sensible to answer; close quietly
      body = buffer.substr(0, body_len);
      buffer.erase(0, body_len);
    }

    if (dispatch) {
      bool stopping_now = false;
      {
        const MutexLock lock(queue_mu_);
        stopping_now = stopping_;
      }
      if (stopping_now) {
        // Shutdown ordering (ISSUE 7): requests read after stop() began are
        // refused — but refused *properly*, with a complete 503 body, never
        // a mid-stream close.
        response = error_response(503, "server is shutting down");
        keep_alive = false;
      } else {
        // Distributed-trace extraction (ISSUE 10): adopt the client's
        // context when a valid traceparent header arrived, otherwise
        // synthesise a per-request root so the request is traceable either
        // way.  The per-request sequence number salts both paths (branch
        // for adopted contexts, root seed for synthesised ones).
        const std::uint64_t seq =
            trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
        obs::TraceContext rctx;
        const std::string* tp = request.header(obs::kTraceparentHeader);
        if (tp != nullptr && !obs::parse_traceparent(*tp, &rctx)) {
          // The hostile-input log line: the value is attacker-controlled,
          // so it goes through the escaping kv() path, never raw.
          obs::log_debug("serve.request.bad_traceparent").kv("value", *tp);
        }
        if (!rctx.valid()) {
          rctx = obs::derive_root_context(seed_combine(options_.trace_seed, seq));
        }
        const auto t0 = std::chrono::steady_clock::now();
        {
          const obs::ScopedTraceContext trace_scope(rctx, seq);
          obs::Span request_span("serve.request");
          request_span.set_attr("method", request.method);
          request_span.set_attr("path", request.path);
          try {
            response = handle(request, body);
          } catch (const std::exception& e) {
            response = error_response(500, e.what());
          }
        }
        micros = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        if (request.wants_close()) keep_alive = false;
      }
    }

    {
      const MutexLock lock(queue_mu_);
      if (stopping_) keep_alive = false;
    }
    const std::string wire = serialize_response(response, keep_alive);
    try {
      send_all(conn, wire);
    } catch (const IoError&) {
      keep_alive = false;  // peer went away mid-response
    }
    // Recorded after the send so a /metrics body never counts itself.
    metrics_.record(response.status, micros, wire.size());
  }

  {
    const MutexLock lock(active_mu_);
    active_fds_.erase(fd);
  }
}

void DatasetServer::add_route(std::string method, const std::string& pattern,
                              std::vector<std::string> query_keys, RouteHandler handler) {
  QDB_REQUIRE(!running_, "add_route must be called before start()");
  QDB_REQUIRE(method == "GET" || method == "POST", "route method must be GET or POST, got '"
                                                       << method << "'");
  QDB_REQUIRE(starts_with(pattern, "/"), "route pattern must start with '/', got '"
                                             << pattern << "'");
  routes_.push_back(Route{std::move(method), split(std::string_view(pattern).substr(1), '/'),
                          std::move(query_keys), std::move(handler)});
}

const DatasetServer::Route* DatasetServer::find_route(const HttpRequest& request,
                                                      std::vector<std::string>* params,
                                                      std::string* allow) const {
  for (const Route& route : routes_) {
    if (!match_segments(route.segments, request.path, params)) continue;
    if (route.method == request.method) return &route;
    if (!allow->empty()) *allow += ", ";
    *allow += route.method;
  }
  return nullptr;
}

bool DatasetServer::accepts_body(const HttpRequest& request) const {
  std::vector<std::string> params;
  std::string allow;
  const Route* route = find_route(request, &params, &allow);
  return route != nullptr ? route->method == "POST" : allow.empty();
}

HttpResponse DatasetServer::handle(const HttpRequest& request) const {
  return handle(request, std::string());
}

HttpResponse DatasetServer::handle(const HttpRequest& request,
                                   const std::string& body) const {
  std::vector<std::string> params;
  std::string allow;
  const Route* route = find_route(request, &params, &allow);
  if (route == nullptr) {
    if (!allow.empty()) return method_not_allowed(allow);
    return error_response(404, "no such resource: " + request.path);
  }
  for (const auto& [key, value] : request.query) {
    if (std::find(route->query_keys.begin(), route->query_keys.end(), key) ==
        route->query_keys.end()) {
      return error_response(400, "unknown parameter '" + key + "'");
    }
  }
  return route->handler(RouteRequest{request, body, params});
}

HttpResponse DatasetServer::handle_healthz() const {
  Json health = Json::object();
  health.set("status", "ok");
  health.set("entries", static_cast<std::int64_t>(store_.entries().size()));
  return json_response(200, health);
}

HttpResponse DatasetServer::handle_entries(const HttpRequest& request) const {
  EntryFilter filter;
  const std::string err = filter.parse(request);
  if (!err.empty()) return error_response(400, err);

  Json entries = Json::array();
  std::int64_t count = 0;
  for (const store::EntryRecord& e : store_.entries()) {
    if (!filter.matches(e)) continue;
    entries.push_back(entry_summary_json(e));
    ++count;
  }
  Json body = Json::object();
  body.set("count", count);
  body.set("entries", std::move(entries));
  return json_response(200, body);
}

HttpResponse DatasetServer::handle_entry(const std::string& pdb_id) const {
  const store::EntryRecord* e = store_.find(pdb_id);
  if (e == nullptr) {
    return error_response(404, "unknown entry '" + pdb_id + "'");
  }
  return json_response(200, entry_summary_json(*e));
}

HttpResponse DatasetServer::handle_artifact(const HttpRequest& request,
                                            const std::string& pdb_id,
                                            const std::string& filename) const {
  const store::EntryRecord* e = store_.find(pdb_id);
  if (e == nullptr) {
    return error_response(404, "unknown entry '" + pdb_id + "'");
  }
  std::optional<store::Artifact> which;
  for (int i = 0; i < store::kArtifactCount; ++i) {
    const auto a = static_cast<store::Artifact>(i);
    if (filename == store::artifact_filename(a)) which = a;
  }
  if (!which) {
    return error_response(404, "unknown artifact '" + filename +
                                   "' (try structure.pdb, metadata.json, "
                                   "docking.json)");
  }
  const store::ArtifactRef& ref = e->artifact(*which);
  const std::string etag = "\"" + ref.hash + "\"";

  HttpResponse resp;
  resp.extra_headers.emplace_back("ETag", etag);
  const std::string* inm = request.header("if-none-match");
  if (inm != nullptr && etag_matches(*inm, ref.hash)) {
    resp.status = 304;
    return resp;
  }
  resp.content_type = artifact_content_type(*which);
  resp.body = *store_.read_artifact(*e, *which);
  return resp;
}

HttpResponse DatasetServer::handle_metrics(const HttpRequest& request) const {
  const std::string* fmt = request.query_param("format");
  if (fmt != nullptr && *fmt != "json" && *fmt != "prometheus") {
    return error_response(400, "unknown format '" + *fmt +
                                   "' (expected json or prometheus)");
  }
  if (fmt != nullptr && *fmt == "prometheus") {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::MetricRegistry::global().to_prometheus();
    return resp;
  }
  Json body = Json::object();
  body.set("requests", metrics_.to_json());

  const store::BlobCache& cache = store_.cache();
  Json cache_json = Json::object();
  cache_json.set("capacity", static_cast<std::int64_t>(cache.capacity()));
  cache_json.set("size", static_cast<std::int64_t>(cache.size()));
  cache_json.set("hits", static_cast<std::int64_t>(cache.hits()));
  cache_json.set("misses", static_cast<std::int64_t>(cache.misses()));
  cache_json.set("evictions", static_cast<std::int64_t>(cache.evictions()));
  cache_json.set("hit_rate", cache.hit_rate());
  body.set("blob_cache", std::move(cache_json));

  const store::StoreStats stats = store_.stats();
  Json store_json = Json::object();
  store_json.set("entries", static_cast<std::int64_t>(stats.entries));
  store_json.set("blobs", static_cast<std::int64_t>(stats.blobs));
  store_json.set("blob_bytes", static_cast<std::int64_t>(stats.blob_bytes));
  store_json.set("logical_bytes", static_cast<std::int64_t>(stats.logical_bytes));
  store_json.set("dedup_saved_bytes",
                 static_cast<std::int64_t>(stats.logical_bytes - stats.blob_bytes));
  body.set("store", std::move(store_json));

  // The process-wide registry (ISSUE 5): counters/gauges/histograms from
  // every layer, plus collector-sourced fault/contract counts.  Additive —
  // the historical sections above keep their exact shapes.
  body.set("registry", obs::MetricRegistry::global().to_json());
  return json_response(200, body);
}

}  // namespace qdb::serve
