#include "serve/trace_api.h"

#include <string>

#include "common/error.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::serve {

namespace {

HttpResponse handle_trace_ingest(const store::Store& store, const std::string& body) {
  static obs::Counter& ingests = obs::counter("serve.trace.ingests");
  static obs::Counter& rejected = obs::counter("serve.trace.rejected");
  QDB_SPAN("serve.trace.ingest");

  try {
    const Json doc = Json::parse(body);
    if (!doc.is_object()) {
      rejected.add();
      return error_response(400, "body must be a JSON object");
    }
    if (!doc.contains("traceEvents") || !doc.at("traceEvents").is_array()) {
      rejected.add();
      return error_response(400, "body must carry a traceEvents array");
    }
    // Store the exact bytes, not a re-serialisation: the hash a merge tool
    // fetches must match what the remote process wrote.
    const std::string hash = store.put_blob(body);
    ingests.add();
    Json resp = Json::object();
    resp.set("hash", hash);
    resp.set("events",
             static_cast<std::int64_t>(doc.at("traceEvents").as_array().size()));
    return json_response(200, resp);
  } catch (const ParseError& ex) {
    rejected.add();
    return error_response(400, std::string("bad request body: ") + ex.what());
  }
}

HttpResponse handle_flight(const HttpRequest& request) {
  std::size_t max_records = obs::kFlightCapacity;
  // The route admits only `n`; every occurrence must be valid.
  for (const auto& param : request.query) {
    const std::string& value = param.second;
    std::size_t n = 0;
    bool ok = !value.empty() && value.size() <= 6;
    for (const char c : value) {
      if (c < '0' || c > '9') {
        ok = false;
        break;
      }
      n = n * 10 + static_cast<std::size_t>(c - '0');
    }
    if (!ok || n < 1 || n > obs::kFlightCapacity) {
      return error_response(400, "n must be an integer in [1, " +
                                     std::to_string(obs::kFlightCapacity) + "]");
    }
    max_records = n;
  }
  return json_response(200, obs::flight_snapshot_json(max_records));
}

}  // namespace

void attach_trace_api(DatasetServer& server, const store::Store& store) {
  server.add_route("POST", "/trace", {}, [&store](const RouteRequest& r) {
    return handle_trace_ingest(store, r.body);
  });
  server.add_route("GET", "/debug/flight", {"n"},
                   [](const RouteRequest& r) { return handle_flight(r.http); });
}

}  // namespace qdb::serve
