#include "orchestrate/api.h"

#include <string>
#include <string_view>

#include "common/error.h"
#include "data/checkpoint.h"
#include "obs/trace.h"

namespace qdb::orchestrate {

namespace {

using serve::error_response;
using serve::json_response;

/// Wraps a job handler: a malformed body (bad JSON, a missing or mistyped
/// field) is the client's fault and answers 400.
serve::RouteHandler bad_body_is_400(serve::RouteHandler handler) {
  return [handler = std::move(handler)](const serve::RouteRequest& request) {
    try {
      return handler(request);
    } catch (const ParseError& ex) {
      return error_response(400, std::string("bad request body: ") + ex.what());
    } catch (const IoError& ex) {
      return error_response(400, std::string("bad request body: ") + ex.what());
    } catch (const Error& ex) {
      return error_response(400, ex.what());
    }
  };
}

const char* lease_state_name(LeaseGrant::State s) {
  switch (s) {
    case LeaseGrant::State::Granted: return "granted";
    case LeaseGrant::State::Wait: return "wait";
    case LeaseGrant::State::Drained: return "drained";
  }
  return "wait";
}

LeaseGrant::State lease_state_from_name(std::string_view name) {
  if (name == "granted") return LeaseGrant::State::Granted;
  if (name == "wait") return LeaseGrant::State::Wait;
  if (name == "drained") return LeaseGrant::State::Drained;
  throw ParseError("unknown lease state '" + std::string(name) + "'");
}

}  // namespace

Json lease_grant_json(const LeaseGrant& grant) {
  Json doc = Json::object();
  doc.set("state", lease_state_name(grant.state));
  doc.set("lease_ttl_ms", static_cast<std::int64_t>(grant.lease_ttl_ms));
  doc.set("options_fingerprint",
          static_cast<std::int64_t>(grant.options_fingerprint));
  switch (grant.state) {
    case LeaseGrant::State::Granted:
      doc.set("pdb_id", grant.pdb_id);
      doc.set("lease_token", static_cast<std::int64_t>(grant.lease_token));
      doc.set("attempt", grant.attempt);
      doc.set("deadline_ms", static_cast<std::int64_t>(grant.deadline_ms));
      // ISSUE 10: the lease span's context rides the grant so remote job
      // spans can parent to it.  Keyed by the canonical header name.
      if (!grant.traceparent.empty()) {
        doc.set(std::string(obs::kTraceparentHeader), grant.traceparent);
      }
      break;
    case LeaseGrant::State::Wait:
      doc.set("retry_after_ms", static_cast<std::int64_t>(grant.retry_after_ms));
      break;
    case LeaseGrant::State::Drained:
      break;
  }
  return doc;
}

LeaseGrant lease_grant_from_json(const Json& doc) {
  LeaseGrant grant;
  grant.state = lease_state_from_name(doc.at("state").as_string());
  grant.lease_ttl_ms = static_cast<std::uint64_t>(doc.at("lease_ttl_ms").as_int());
  grant.options_fingerprint =
      static_cast<std::uint64_t>(doc.at("options_fingerprint").as_int());
  switch (grant.state) {
    case LeaseGrant::State::Granted:
      grant.pdb_id = doc.at("pdb_id").as_string();
      grant.lease_token = static_cast<std::uint64_t>(doc.at("lease_token").as_int());
      grant.attempt = static_cast<int>(doc.at("attempt").as_int());
      grant.deadline_ms = static_cast<std::uint64_t>(doc.at("deadline_ms").as_int());
      if (doc.contains(obs::kTraceparentHeader)) {
        grant.traceparent = doc.at(obs::kTraceparentHeader).as_string();
      }
      break;
    case LeaseGrant::State::Wait:
      grant.retry_after_ms =
          static_cast<std::uint64_t>(doc.at("retry_after_ms").as_int());
      break;
    case LeaseGrant::State::Drained:
      break;
  }
  return grant;
}

Json heartbeat_result_json(const HeartbeatResult& result) {
  Json doc = Json::object();
  doc.set("ok", result.ok);
  if (result.ok) {
    doc.set("deadline_ms", static_cast<std::int64_t>(result.deadline_ms));
  } else {
    doc.set("error", result.reason);
  }
  return doc;
}

Json complete_result_json(const CompleteResult& result) {
  Json doc = Json::object();
  doc.set("accepted", result.accepted);
  doc.set("duplicate", result.duplicate);
  doc.set("stale_lease", result.stale_lease);
  doc.set("result_hash", result.result_hash);
  return doc;
}

CompleteResult complete_result_from_json(const Json& doc) {
  CompleteResult result;
  result.accepted = doc.at("accepted").as_bool();
  result.duplicate = doc.at("duplicate").as_bool();
  result.stale_lease = doc.at("stale_lease").as_bool();
  result.result_hash = doc.at("result_hash").as_string();
  return result;
}

void attach_job_api(serve::DatasetServer& server, Coordinator& coordinator) {
  server.add_route("GET", "/jobs/status", {}, [&coordinator](const serve::RouteRequest&) {
    return json_response(200, coordinator.status_json());
  });
  server.add_route("POST", "/jobs/lease", {},
                   bad_body_is_400([&coordinator](const serve::RouteRequest& request) {
                     const Json doc = Json::parse(request.body);
                     const std::string worker = doc.at("worker").as_string();
                     return json_response(200, lease_grant_json(coordinator.lease(worker)));
                   }));
  server.add_route(
      "POST", "/jobs/{pdb_id}/heartbeat", {},
      bad_body_is_400([&coordinator](const serve::RouteRequest& request) {
        const Json doc = Json::parse(request.body);
        const auto token = static_cast<std::uint64_t>(doc.at("lease_token").as_int());
        const HeartbeatResult result = coordinator.heartbeat(request.params[0], token);
        return json_response(result.ok ? 200 : 409, heartbeat_result_json(result));
      }));
  server.add_route(
      "POST", "/jobs/{pdb_id}/complete", {},
      bad_body_is_400([&coordinator](const serve::RouteRequest& request) {
        const Json doc = Json::parse(request.body);
        const auto token = static_cast<std::uint64_t>(doc.at("lease_token").as_int());
        const BatchJobRecord record = batch_job_record_from_json(doc.at("record"));
        try {
          const CompleteResult result = coordinator.complete(request.params[0], token, record);
          return json_response(200, complete_result_json(result));
        } catch (const Error& ex) {
          // Unknown job / mismatched record identity.
          const std::string what = ex.what();
          return error_response(what.find("unknown job") != std::string::npos ? 404 : 400,
                                what);
        }
      }));
}

}  // namespace qdb::orchestrate
