#include "serve/metrics.h"

namespace qdb::serve {

void ServerMetrics::record(int status, std::uint64_t micros,
                           std::uint64_t response_bytes) {
  requests_total.fetch_add(1, std::memory_order_relaxed);
  // Each status class is mirrored into the process-wide registry, so server
  // traffic appears in /metrics?format=prometheus and trace dumps next to
  // every other layer.  A class's counter is resolved on its first request,
  // so the registry holds only the classes that occurred.
  if (status >= 500) {
    static obs::Counter& g_5xx = obs::counter("serve.responses_5xx");
    responses_5xx.fetch_add(1, std::memory_order_relaxed);
    g_5xx.add();
  } else if (status >= 400) {
    static obs::Counter& g_4xx = obs::counter("serve.responses_4xx");
    responses_4xx.fetch_add(1, std::memory_order_relaxed);
    g_4xx.add();
  } else if (status >= 300) {
    static obs::Counter& g_3xx = obs::counter("serve.responses_3xx");
    responses_3xx.fetch_add(1, std::memory_order_relaxed);
    g_3xx.add();
  } else {
    static obs::Counter& g_2xx = obs::counter("serve.responses_2xx");
    responses_2xx.fetch_add(1, std::memory_order_relaxed);
    g_2xx.add();
  }
  bytes_sent.fetch_add(response_bytes, std::memory_order_relaxed);
  latency.record(micros);

  static obs::Counter& g_requests = obs::counter("serve.requests");
  static obs::Counter& g_bytes = obs::counter("serve.bytes_sent");
  static obs::Histogram& g_latency = obs::histogram("serve.request_us");
  g_requests.add();
  g_bytes.add(response_bytes);
  g_latency.record(micros);
}

Json ServerMetrics::to_json() const {
  auto get = [](const std::atomic<std::uint64_t>& c) {
    return static_cast<std::int64_t>(c.load(std::memory_order_relaxed));
  };
  Json j = Json::object();
  j.set("requests_total", get(requests_total));
  Json by_class = Json::object();
  by_class.set("2xx", get(responses_2xx));
  by_class.set("3xx", get(responses_3xx));
  by_class.set("4xx", get(responses_4xx));
  by_class.set("5xx", get(responses_5xx));
  j.set("responses", std::move(by_class));
  j.set("connections_accepted", get(connections_accepted));
  j.set("bytes_sent", get(bytes_sent));
  j.set("latency", latency.to_json());
  return j;
}

}  // namespace qdb::serve
