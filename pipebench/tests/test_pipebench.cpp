// Self-tests of the benchmark: percentile selection, the output checks on
// corrupted outputs, the load generator's accounting, and seeded inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "common/error.h"
#include "data/reference.h"
#include "harness.h"
#include "lattice/lattice.h"
#include "loadgen.h"
#include "screen/funnel.h"
#include "store/store.h"
#include "workloads.h"

namespace pipebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankWithSampleCounts) {
  const Percentile p99 = percentile(one_to(1000), 99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.rank, 990u);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);

  const Percentile p50 = percentile(one_to(1000), 50);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.beyond, 500u);

  // Too few samples for a tail: p99 of five operations is the slowest one,
  // with nothing beyond it.
  const Percentile small = percentile(one_to(5), 99);
  EXPECT_EQ(small.value, 5);
  EXPECT_EQ(small.rank, 5u);
  EXPECT_EQ(small.beyond, 0u);
  EXPECT_EQ(percentile(one_to(5), 50).value, 3);
  EXPECT_EQ(percentile(one_to(2), 50).value, 1);
  EXPECT_EQ(median({7.0}), 7.0);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(percentile({}, 50), qdb::Error);
  EXPECT_THROW(percentile({1.0}, 0), qdb::Error);
  EXPECT_THROW(percentile({1.0}, 100.5), qdb::Error);
}

TEST(ResultLine, PrintsEveryDigitAndRejectsNonFinite) {
  const std::string line = result_line(true, 3, 0, {{"latency_ms", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 0.33333333333333331, \"unit\": \"ms\"}}}");
  EXPECT_THROW(result_line(true, 1, 0, {{"x", std::nan(""), "ms"}}), qdb::Error);
}

// --- corrupted outputs are failures ------------------------------------------

qdb::BatchReport sample_batch() {
  qdb::BatchReport report;
  for (const char* id : {"3ckz", "4jpy"}) {
    qdb::BatchJobRecord job;
    job.pdb_id = id;
    job.status = qdb::JobStatus::Ok;
    job.lowest_energy = -1.25;
    job.evaluations = 12;
    job.shots = 2536;
    job.engine_used = "mps";
    report.jobs.push_back(job);
  }
  return report;
}

JobExpectations expectations_of(const qdb::BatchReport& report) {
  JobExpectations e;
  for (const qdb::BatchJobRecord& job : report.jobs) e[job.pdb_id] = job_expect_of(job);
  return e;
}

TEST(Checks, BatchRecordsRoundTripAndCorruptionFails) {
  const qdb::BatchReport good = sample_batch();
  const JobExpectations want =
      job_expectations_from_json(job_expectations_json(expectations_of(good)));
  EXPECT_EQ(check_batch(good, want), "");

  qdb::BatchReport bad = good;
  bad.jobs[1].lowest_energy = std::nextafter(bad.jobs[1].lowest_energy, 0.0);  // one ulp
  EXPECT_NE(check_batch(bad, want), "");
  bad = good;
  bad.jobs[0].status = qdb::JobStatus::Degraded;
  EXPECT_NE(check_batch(bad, want), "");
  bad = good;
  bad.jobs[0].shots += 1;
  EXPECT_NE(check_batch(bad, want), "");
  bad = good;
  bad.jobs[0].engine_used = "dense";
  EXPECT_NE(check_batch(bad, want), "");
  bad = good;
  bad.jobs[1] = bad.jobs[0];  // 4jpy missing, 3ckz twice
  EXPECT_NE(check_batch(bad, want), "");
  bad = good;
  bad.jobs.pop_back();
  EXPECT_NE(check_batch(bad, want), "");
}

TEST(Checks, EvaluationIsBitExact) {
  qdb::Evaluation ev;
  ev.pdb_id = "4jpy";
  ev.group = qdb::Group::L;
  ev.rmsd = 3.5;
  ev.affinity = -6.25;
  ev.mean_affinity = -5.5;
  ev.pose_rmsd_lb = 1.5;
  ev.pose_rmsd_ub = 2.5;
  const qdb::Evaluation want = evaluation_from_json(evaluation_json(ev));
  EXPECT_EQ(check_evaluation(ev, want), "");
  for (double qdb::Evaluation::*field :
       {&qdb::Evaluation::rmsd, &qdb::Evaluation::affinity, &qdb::Evaluation::mean_affinity,
        &qdb::Evaluation::pose_rmsd_lb, &qdb::Evaluation::pose_rmsd_ub}) {
    qdb::Evaluation bad = ev;
    bad.*field = std::nextafter(bad.*field, 100.0);
    EXPECT_NE(check_evaluation(bad, want), "");
  }
  EXPECT_THROW(from_bits_hex("12"), qdb::Error);
}

class ScreenChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    opt_.library.seed = 7;
    opt_.library.size = 96;
    opt_.top_k = 5;
    opt_.threads = 2;
    receptor_ = std::make_unique<qdb::Structure>(
        qdb::reference_structure(qdb::entry_by_id("3ckz")));
    prepared_ = std::make_unique<qdb::screen::PreparedReceptor>(
        qdb::screen::prepare_receptor(*receptor_, opt_));
    report_ = qdb::screen::run_screen(*prepared_, "3ckz", opt_);
    bytes_ = qdb::screen::serialize_report(report_);
  }

  qdb::screen::ScreenOptions opt_;
  std::unique_ptr<qdb::Structure> receptor_;
  std::unique_ptr<qdb::screen::PreparedReceptor> prepared_;
  qdb::screen::ScreenReport report_;
  std::string bytes_;
};

TEST_F(ScreenChecks, CorruptedReportBytesFail) {
  const std::string want = report_hash(bytes_);
  EXPECT_EQ(check_report_bytes(bytes_, want), "");
  std::string bad = bytes_;
  bad[bad.size() / 2] ^= 0x01;
  EXPECT_NE(check_report_bytes(bad, want), "");
  EXPECT_NE(check_report_bytes(bytes_ + " ", want), "");
}

TEST_F(ScreenChecks, CorruptedHitsFail) {
  ASSERT_EQ(report_.hits.size(), 5u);
  EXPECT_EQ(check_report_hits(report_, *prepared_, opt_), "");

  qdb::screen::ScreenReport bad = report_;
  bad.hits[2].affinity = std::nextafter(bad.hits[2].affinity, 0.0);
  EXPECT_NE(check_report_hits(bad, *prepared_, opt_), "");
  bad = report_;
  std::swap(bad.hits[0], bad.hits[1]);
  EXPECT_NE(check_report_hits(bad, *prepared_, opt_), "");
  bad = report_;
  bad.hits[0].id = qdb::screen::library_ligand_id(opt_.library, bad.hits[0].index + 1);
  EXPECT_NE(check_report_hits(bad, *prepared_, opt_), "");
  bad = report_;
  bad.hits.pop_back();
  EXPECT_NE(check_report_hits(bad, *prepared_, opt_), "");
  bad = report_;
  bad.stage1_survivors += 1;
  EXPECT_NE(check_report_hits(bad, *prepared_, opt_), "");
}

qdb::serve::HttpClientResponse response(int status, std::string body, std::string etag = "") {
  qdb::serve::HttpClientResponse r;
  r.status = status;
  r.body = std::move(body);
  if (!etag.empty()) r.headers.emplace_back("etag", etag);
  return r;
}

TEST(Checks, CorruptedResponsesFail) {
  const std::string blob = "ATOM      1  CA  ALA A   1\n";
  ExpectedResponse artifact;
  artifact.body_hash = qdb::store::content_hash(blob).hex();
  artifact.body_size = blob.size();
  artifact.etag = "\"" + artifact.body_hash + "\"";
  EXPECT_EQ(check_response(artifact, response(200, blob, artifact.etag)), "");

  std::string flipped = blob;
  flipped[3] = 'X';
  EXPECT_NE(check_response(artifact, response(200, flipped, artifact.etag)), "");
  EXPECT_NE(check_response(artifact, response(200, blob + "\n", artifact.etag)), "");
  EXPECT_NE(check_response(artifact, response(500, blob, artifact.etag)), "");
  EXPECT_NE(check_response(artifact, response(200, blob)), "");  // ETag missing

  ExpectedResponse not_modified;
  not_modified.status = 304;
  not_modified.etag = artifact.etag;
  EXPECT_EQ(check_response(not_modified, response(304, "", artifact.etag)), "");
  EXPECT_NE(check_response(not_modified, response(304, blob, artifact.etag)), "");
  EXPECT_NE(check_response(not_modified, response(200, blob, artifact.etag)), "");

  ExpectedResponse ingest;
  ingest.ingest_hash = "00112233445566778899aabbccddeeff";
  const std::string reply = "{\"hash\":\"" + ingest.ingest_hash + "\"}";
  EXPECT_EQ(check_response(ingest, response(200, reply)), "");
  std::string other = reply;
  other[other.size() - 3] = '0';
  EXPECT_NE(check_response(ingest, response(200, other)), "");
  EXPECT_NE(check_response(ingest, response(200, "{\"hash\":")), "");

  ExpectedResponse metrics;
  metrics.json_body = true;
  EXPECT_EQ(check_response(metrics, response(200, "{\"requests\": 1}")), "");
  EXPECT_NE(check_response(metrics, response(200, "not json")), "");
}

// --- load generator -----------------------------------------------------------

/// Answers every third request with a corrupted body and throws on every
/// seventh, recording each target it was sent.
class FlakyConnection final : public Connection {
 public:
  explicit FlakyConnection(std::vector<std::string>* log) : log_(log) {}
  qdb::serve::HttpClientResponse send(const RequestSpec& request) override {
    log_->push_back(request.target);
    ++n_;
    if (n_ % 7 == 0) throw qdb::IoError("connection reset");
    return response(200, n_ % 3 == 0 ? "corrupted" : "ok");
  }
  void close() override { ++closes_; }
  int closes_ = 0;

 private:
  std::vector<std::string>* log_;
  int n_ = 0;
};

RequestSource numbered_source() {
  return [](qdb::Rng& rng, int client, std::uint64_t seq) {
    RequestSpec r;
    r.cls = rng.below(2) ? RequestClass::Summary : RequestClass::List;
    r.target = "/c" + std::to_string(client) + "/" + std::to_string(rng.below(1000)) + "/" +
               std::to_string(seq);
    r.expect.body_hash = qdb::store::content_hash("ok").hex();
    r.expect.body_size = 2;
    return r;
  };
}

TEST(LoadGenerator, SentEqualsSucceededPlusFailed) {
  std::vector<std::vector<std::string>> logs(3);
  LoadOptions opt;
  opt.clients = 3;
  opt.seconds = 1.2;
  const LoadResult r = run_closed_loop(
      opt,
      [&](int c) {
        return std::make_unique<FlakyConnection>(&logs[static_cast<std::size_t>(c)]);
      },
      numbered_source());
  ASSERT_GT(r.sent, 100u);
  EXPECT_EQ(r.sent, r.succeeded + r.failed);
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.succeeded, 0u);
  // Latency samples: every request while a client's reservoir has room,
  // a bounded uniform sample after.
  EXPECT_LE(r.samples.size(), std::min<std::uint64_t>(r.sent, 3 * kSamplesPerClient));
  EXPECT_GE(r.samples.size(), std::min<std::uint64_t>(r.sent, kSamplesPerClient));
  std::uint64_t sent = 0, succeeded = 0, failed = 0, logged = 0;
  std::size_t sampled = 0;
  for (int k = 0; k < kRequestClasses; ++k) {
    const ClassStats& c = r.per_class[static_cast<std::size_t>(k)];
    EXPECT_EQ(c.sent, c.succeeded + c.failed);
    sampled += class_latencies(r, static_cast<RequestClass>(k)).size();
    sent += c.sent;
    succeeded += c.succeeded;
    failed += c.failed;
  }
  for (const auto& log : logs) logged += log.size();
  EXPECT_EQ(sent, r.sent);
  EXPECT_EQ(succeeded, r.succeeded);
  EXPECT_EQ(failed, r.failed);
  EXPECT_EQ(logged, r.sent);
  EXPECT_EQ(sampled, r.samples.size());
  ASSERT_EQ(r.succeeded_per_slice.size(), 1u);
  EXPECT_LE(r.succeeded_per_slice[0], r.succeeded);
  EXPECT_FALSE(r.failures.empty());
}

std::vector<std::string> request_stream(std::uint64_t seed) {
  std::vector<std::string> log;
  LoadOptions opt;
  opt.clients = 1;
  opt.seconds = 0.05;
  opt.seed = seed;
  run_closed_loop(opt, [&](int) { return std::make_unique<FlakyConnection>(&log); },
                  numbered_source());
  return log;
}

// --- seeded inputs --------------------------------------------------------------

TEST(Inputs, SameSeedSameRequests) {
  const std::vector<std::string> a = request_stream(11);
  const std::vector<std::string> b = request_stream(11);
  const std::vector<std::string> c = request_stream(12);
  const std::size_t n = std::min({a.size(), b.size(), c.size()});
  ASSERT_GT(n, 20u);
  EXPECT_TRUE(std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n), b.begin()));
  EXPECT_FALSE(std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n), c.begin()));
}

TEST(Inputs, SameSeedSameBatchOrder) {
  const auto a = batch_submission_order(5, 0);
  EXPECT_EQ(a, batch_submission_order(5, 0));
  EXPECT_NE(a, batch_submission_order(6, 0));
  EXPECT_NE(a, batch_submission_order(5, 1));  // each operation permutes anew
  const std::set<const qdb::DatasetEntry*> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), qdb::qdockbank_entries().size());
}

TEST(Inputs, FoldDockSubsetCoversEveryEngineClass) {
  EXPECT_EQ(std::string(fold_dock_subset(1).back()->pdb_id), "4jpy");
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto subset = fold_dock_subset(seed);
    EXPECT_EQ(subset, fold_dock_subset(seed));
    ASSERT_EQ(subset.size(), 4u);
    const auto qubits = [](const qdb::DatasetEntry* e) {
      return qdb::encoding_qubits(e->length());
    };
    EXPECT_EQ(subset[0]->group(), qdb::Group::S);
    EXPECT_LE(qubits(subset[0]), 14);
    EXPECT_EQ(subset[1]->group(), qdb::Group::M);
    EXPECT_GE(qubits(subset[1]), 12);
    EXPECT_LE(qubits(subset[1]), 14);
    EXPECT_EQ(subset[2]->group(), qdb::Group::M);
    EXPECT_GT(qubits(subset[2]), 14);
    EXPECT_EQ(subset[3]->group(), qdb::Group::L);
  }
  EXPECT_NE(fold_dock_subset(1), fold_dock_subset(2));
  // Consecutive seeds reach every entry of every pool.
  std::vector<std::set<const qdb::DatasetEntry*>> reached(4);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto subset = fold_dock_subset(seed);
    for (std::size_t c = 0; c < 4; ++c) reached[c].insert(subset[c]);
  }
  EXPECT_EQ(reached[0].size(), 4u);
  EXPECT_EQ(reached[1].size(), 7u);
  EXPECT_EQ(reached[2].size(), 3u);
  EXPECT_EQ(reached[3].size(), 3u);
}

}  // namespace
}  // namespace pipebench
