// Output checks that feed the benchmark's error count.  Every check is a
// pure function returning "" on success or a one-line description of the
// first mismatch, so the self-tests can show that a corrupted output fails.
//
// Expected values are exact: doubles compare by IEEE-754 bit pattern and
// ranked reports by content hash, because every pipeline output is
// deterministic across thread counts and submission orders.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/pipeline.h"
#include "data/batch.h"
#include "screen/funnel.h"
#include "serve/http.h"

namespace pipebench {

std::string bits_hex(double v);
/// Inverse of bits_hex; throws qdb::Error on anything but 16 hex digits.
double from_bits_hex(const std::string& hex);

// --- vqe-batch ---------------------------------------------------------------

/// The fields of a batch job record that must not change with submission
/// order or thread count.
struct JobExpect {
  std::string status;
  double lowest_energy = 0.0;  ///< compared by bit pattern
  int evaluations = 0;
  std::uint64_t shots = 0;
  std::string engine;
};
using JobExpectations = std::map<std::string, JobExpect>;  // keyed by pdb_id

JobExpect job_expect_of(const qdb::BatchJobRecord& job);
qdb::Json job_expectations_json(const JobExpectations& jobs);
JobExpectations job_expectations_from_json(const qdb::Json& doc);

/// Every expected pdb_id appears exactly once and every record matches.
std::string check_batch(const qdb::BatchReport& report, const JobExpectations& expected);

// --- fold-dock ---------------------------------------------------------------

qdb::Json evaluation_json(const qdb::Evaluation& ev);
qdb::Evaluation evaluation_from_json(const qdb::Json& doc);
/// Bit-equal comparison of every published Evaluation field.
std::string check_evaluation(const qdb::Evaluation& got, const qdb::Evaluation& want);

// --- screen-funnel -----------------------------------------------------------

/// Content hash (32 hex) of a ranked report; the reference form.
std::string report_hash(const std::string& report_bytes);
/// Bytes must hash to the reference.
std::string check_report_bytes(const std::string& report_bytes,
                               const std::string& expected_hash);
/// Recomputes each published hit without the funnel: the ligand from the
/// library, its affinity by full Vina rescoring of the published pose, and
/// the strict (affinity, id) order and sizes the report must have.
std::string check_report_hits(const qdb::screen::ScreenReport& report,
                              const qdb::screen::PreparedReceptor& prepared,
                              const qdb::screen::ScreenOptions& options);

// --- serve-mixed -------------------------------------------------------------

/// What one request must get back.
struct ExpectedResponse {
  int status = 200;
  std::string body_hash;       ///< content hash of the exact body ("" = any)
  std::uint64_t body_size = 0; ///< checked when body_hash is set
  std::string etag;            ///< required ETag header value ("" = none)
  bool json_body = false;      ///< body must parse as a JSON object
  std::string ingest_hash;     ///< POST /trace: the "hash" the reply must name
};

std::string check_response(const ExpectedResponse& want,
                           const qdb::serve::HttpClientResponse& got);

}  // namespace pipebench
