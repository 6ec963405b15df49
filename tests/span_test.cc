// Tests of the causal span pipeline: span-forest construction from real
// traced runs and hand-crafted event streams, critical-path phase
// attribution (including its exact-partition invariant), prepared
// blocking-window statistics under chaos plans, virtual-time series
// bucketing and merge algebra, Perfetto export determinism, and the
// lenient JSONL parser used by offline tools.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "trace/critical_path.h"
#include "trace/perfetto.h"
#include "trace/span.h"
#include "trace/timeseries.h"
#include "trace/trace.h"
#include "workload/driver.h"

namespace hermes {
namespace {

using trace::AnalyzeCriticalPath;
using trace::BuildSpanForest;
using trace::BuildTimeSeries;
using trace::CriticalPathReport;
using trace::Event;
using trace::EventKind;
using trace::ExportPerfetto;
using trace::Span;
using trace::SpanForest;
using trace::SpanKind;
using trace::TimeSeries;
using trace::Tracer;

// A fixed-seed traced workload run; `chaos` layers a generated fault plan
// (site crashes, partitions, loss bursts) on a lossy network so the trace
// contains blocking windows, inquiries and retransmissions.
struct TracedRun {
  std::vector<Event> events;
  workload::RunResult result;
};

TracedRun RunTraced(uint64_t seed, bool chaos = false) {
  Tracer tracer;
  workload::WorkloadConfig config;
  config.seed = seed;
  config.num_sites = 3;
  config.rows_per_table = 16;
  config.global_clients = 4;
  config.local_clients_per_site = 1;
  config.target_global_txns = 30;
  config.p_prepared_abort = 0.3;
  config.alive_check_interval = 10 * sim::kMillisecond;
  config.tracer = &tracer;
  if (chaos) {
    config.rows_per_table = 32;
    config.p_prepared_abort = 0.0;
    config.net_loss_prob = 0.02;
    config.drain_grace = 1 * sim::kSecond;
    config.orphan_abort_timeout = 800 * sim::kMillisecond;
    fault::ChaosOptions opts;
    opts.num_sites = 3;
    opts.horizon = 500 * sim::kMillisecond;
    config.fault_plan = fault::GenerateChaosPlan(seed, opts);
  }
  TracedRun run;
  run.result = workload::Driver::Run(config);
  run.events = tracer.events();
  return run;
}

// --- construction from a real run --------------------------------------------

TEST(SpanForestTest, BuildsOneRootPerGlobalTransaction) {
  const TracedRun run = RunTraced(123);
  const SpanForest forest = BuildSpanForest(run.events);
  ASSERT_FALSE(forest.roots.empty());
  EXPECT_EQ(static_cast<int64_t>(forest.roots.size()),
            run.result.metrics.global_committed +
                run.result.metrics.global_aborted);

  int64_t committed = 0;
  for (int32_t root_id : forest.roots) {
    const Span& root = forest.spans[static_cast<size_t>(root_id)];
    EXPECT_EQ(root.kind, SpanKind::kTxn);
    EXPECT_EQ(root.parent, -1);
    EXPECT_TRUE(root.closed()) << trace::EncodeTxnId(root.txn);
    EXPECT_GE(root.length(), 0);
    if (root.ok) ++committed;
    // Children are well-formed: they point back at the root, start no
    // earlier than it, and committed roots saw prepares and decisions.
    bool has_prepare = false, has_decision = false;
    for (int32_t c : root.children) {
      const Span& child = forest.spans[static_cast<size_t>(c)];
      EXPECT_EQ(child.parent, root.id);
      EXPECT_GE(child.begin, root.begin);
      if (child.kind == SpanKind::kPrepare) has_prepare = true;
      if (child.kind == SpanKind::kDecision) has_decision = true;
    }
    if (root.ok) {
      EXPECT_TRUE(has_prepare) << trace::EncodeTxnId(root.txn);
      EXPECT_TRUE(has_decision) << trace::EncodeTxnId(root.txn);
    }
  }
  EXPECT_EQ(committed, run.result.metrics.global_committed);
  EXPECT_GT(forest.trace_end, 0);
}

TEST(SpanForestTest, SameSeedProducesByteIdenticalForestAndExport) {
  const TracedRun a = RunTraced(123);
  const TracedRun b = RunTraced(123);
  const TracedRun c = RunTraced(124);
  const SpanForest fa = BuildSpanForest(a.events);
  const SpanForest fb = BuildSpanForest(b.events);
  const SpanForest fc = BuildSpanForest(c.events);
  ASSERT_FALSE(fa.spans.empty());
  EXPECT_EQ(fa.ToString(), fb.ToString());
  EXPECT_NE(fa.ToString(), fc.ToString());
  EXPECT_EQ(ExportPerfetto(fa, a.events), ExportPerfetto(fb, b.events));
  EXPECT_NE(ExportPerfetto(fa, a.events), ExportPerfetto(fc, c.events));
}

TEST(SpanForestTest, SurvivesJsonlRoundTrip) {
  // Re-encode through the strict writer; reparsing must rebuild the same
  // forest byte for byte.
  const TracedRun run = RunTraced(77);
  std::string jsonl;
  for (const Event& e : run.events) jsonl += e.ToJson() + "\n";
  const auto parsed = trace::ParseJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(BuildSpanForest(*parsed).ToString(),
            BuildSpanForest(run.events).ToString());
}

// --- hand-crafted streams ----------------------------------------------------

Event Ev(int64_t seq, sim::Time at, EventKind kind, const TxnId& txn,
         SiteId site, SiteId peer = kInvalidSite) {
  Event e;
  e.seq = seq;
  e.at = at;
  e.kind = kind;
  e.txn = txn;
  e.site = site;
  e.peer = peer;
  return e;
}

TEST(SpanForestTest, ResubmissionSpansChainThroughPrev) {
  const TxnId g = TxnId::MakeGlobal(0, 1);
  std::vector<Event> events;
  int64_t seq = 0;
  events.push_back(Ev(seq++, 0, EventKind::kTxnBegin, g, 0));
  Event r1 = Ev(seq++, 100, EventKind::kResubmitStart, g, 1);
  r1.resubmission = 1;
  events.push_back(r1);
  Event d1 = Ev(seq++, 200, EventKind::kResubmitDone, g, 1);
  d1.resubmission = 1;
  events.push_back(d1);
  Event r2 = Ev(seq++, 300, EventKind::kResubmitStart, g, 1);
  r2.resubmission = 2;
  events.push_back(r2);
  Event d2 = Ev(seq++, 450, EventKind::kResubmitDone, g, 1);
  d2.resubmission = 2;
  events.push_back(d2);

  const SpanForest forest = BuildSpanForest(events);
  const Span* first = nullptr;
  const Span* second = nullptr;
  for (const Span& s : forest.spans) {
    if (s.kind != SpanKind::kResubmission) continue;
    (s.resubmission == 1 ? first : second) = &s;
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->prev, -1);
  EXPECT_EQ(second->prev, first->id);
  EXPECT_EQ(first->length(), 100);
  EXPECT_EQ(second->length(), 150);
}

TEST(CriticalPathTest, AttributesHandCraftedTimelineExactly) {
  const TxnId g = TxnId::MakeGlobal(0, 7);
  std::vector<Event> events;
  int64_t seq = 0;
  events.push_back(Ev(seq++, 0, EventKind::kTxnBegin, g, 0));
  events.push_back(Ev(seq++, 10, EventKind::kStepStart, g, 0, 1));
  events.push_back(Ev(seq++, 40, EventKind::kStepEnd, g, 0, 1));
  events.push_back(Ev(seq++, 50, EventKind::kPrepareSend, g, 0, 1));
  Event vote = Ev(seq++, 90, EventKind::kVoteRecv, g, 0, 1);
  vote.ok = true;
  events.push_back(vote);
  Event dec = Ev(seq++, 100, EventKind::kDecisionSend, g, 0, 1);
  dec.ok = true;
  events.push_back(dec);
  events.push_back(Ev(seq++, 130, EventKind::kAckRecv, g, 0, 1));
  Event end = Ev(seq++, 130, EventKind::kTxnEnd, g, 0);
  end.ok = true;
  events.push_back(end);

  const CriticalPathReport report =
      AnalyzeCriticalPath(BuildSpanForest(events));
  ASSERT_EQ(report.txns.size(), 1u);
  const trace::TxnCriticalPath& cp = report.txns[0];
  EXPECT_TRUE(cp.committed);
  EXPECT_EQ(cp.phases.total, 130);
  EXPECT_EQ(cp.phases.dml, 40);       // t=0..40 (step window stretches)
  EXPECT_EQ(cp.phases.prepare + cp.phases.certify, 40);  // t=50..90
  EXPECT_EQ(cp.phases.blocked, 10);   // t=90..100: votes in, no decision
  EXPECT_EQ(cp.phases.decision, 30);  // t=100..130
  EXPECT_EQ(cp.phases.retx_wait, 0);
  EXPECT_EQ(cp.phases.Sum(), cp.phases.total);
  EXPECT_EQ(cp.critical_prepare_site, 1);
}

// --- critical path over real runs --------------------------------------------

TEST(CriticalPathTest, PhasesPartitionLatencyExactly) {
  for (const bool chaos : {false, true}) {
    const TracedRun run = RunTraced(chaos ? 3001 : 123, chaos);
    const CriticalPathReport report =
        AnalyzeCriticalPath(BuildSpanForest(run.events));
    ASSERT_FALSE(report.txns.empty());
    for (const trace::TxnCriticalPath& cp : report.txns) {
      EXPECT_EQ(cp.phases.Sum(), cp.phases.total)
          << trace::EncodeTxnId(cp.txn) << " chaos=" << chaos;
      EXPECT_GE(cp.phases.total, 0);
      EXPECT_GE(cp.phases.dml, 0);
      EXPECT_GE(cp.phases.prepare, 0);
      EXPECT_GE(cp.phases.certify, 0);
      EXPECT_GE(cp.phases.decision, 0);
      EXPECT_GE(cp.phases.blocked, 0);
      EXPECT_GE(cp.phases.retx_wait, 0);
      EXPECT_GE(cp.phases.other, 0);
    }
    EXPECT_EQ(report.committed_txns, run.result.metrics.global_committed);
    EXPECT_EQ(report.committed_total.Sum(), report.committed_total.total);
    // Committed transactions spend time executing DML and preparing.
    EXPECT_GT(report.committed_total.dml, 0);
    EXPECT_GT(report.committed_total.prepare + report.committed_total.certify,
              0);
  }
}

TEST(CriticalPathTest, ChaosRunShowsBlockingWindows) {
  // Find a chaos seed that actually crashes a coordinator, then demand
  // the analyzer surfaces prepared blocking windows from its trace.
  for (uint64_t seed = 3000; seed < 3010; ++seed) {
    const TracedRun run = RunTraced(seed, /*chaos=*/true);
    if (run.result.metrics.coordinator_crashes == 0) continue;
    const CriticalPathReport report =
        AnalyzeCriticalPath(BuildSpanForest(run.events));
    EXPECT_GT(report.blocking.windows, 0);
    EXPECT_GT(report.blocking.total_us, 0);
    EXPECT_GE(report.blocking.max_us, report.blocking.MeanUs());
    EXPECT_EQ(report.blocking.hist.count(), report.blocking.windows);
    EXPECT_NE(report.ToString().find("blocking"), std::string::npos);
    return;
  }
  FAIL() << "no chaos seed in [3000, 3010) crashed a coordinator";
}

// --- time series -------------------------------------------------------------

TEST(TimeSeriesTest, TotalsMatchRunMetrics) {
  const TracedRun run = RunTraced(123);
  const TimeSeries ts = BuildTimeSeries(run.events);
  ASSERT_FALSE(ts.empty());
  int64_t begun = 0, committed = 0, aborted = 0, resub = 0;
  int64_t peak_in_flight = 0;
  for (const TimeSeries::Window& w : ts.windows) {
    begun += w.begun;
    committed += w.committed;
    aborted += w.aborted;
    resub += w.resubmissions;
    peak_in_flight = std::max(peak_in_flight, w.max_in_flight);
  }
  EXPECT_EQ(committed, run.result.metrics.global_committed);
  EXPECT_EQ(aborted, run.result.metrics.global_aborted);
  EXPECT_EQ(begun, committed + aborted);
  EXPECT_EQ(resub, run.result.metrics.resubmissions);
  EXPECT_GT(peak_in_flight, 0);
  EXPECT_LE(peak_in_flight, 4);  // bounded by global_clients
}

TEST(TimeSeriesTest, MergeIsCommutativeAndSums) {
  const TimeSeries a = BuildTimeSeries(RunTraced(123).events);
  const TimeSeries b = BuildTimeSeries(RunTraced(124).events);
  TimeSeries ab = a;
  ab.Merge(b);
  TimeSeries ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.ToString(), ba.ToString());
  ASSERT_FALSE(ab.empty());
  EXPECT_EQ(ab.windows.size(), std::max(a.windows.size(), b.windows.size()));

  int64_t a_committed = 0, b_committed = 0, ab_committed = 0;
  for (const auto& w : a.windows) a_committed += w.committed;
  for (const auto& w : b.windows) b_committed += w.committed;
  for (const auto& w : ab.windows) ab_committed += w.committed;
  EXPECT_EQ(ab_committed, a_committed + b_committed);

  // Merging an empty series is the identity, in either direction.
  TimeSeries e;
  TimeSeries ae = a;
  ae.Merge(e);
  EXPECT_EQ(ae, a);
  TimeSeries ea = e;
  ea.Merge(a);
  EXPECT_EQ(ea, a);
}

TEST(TimeSeriesTest, RespectsCustomWindowWidth) {
  const TracedRun run = RunTraced(123);
  const TimeSeries coarse =
      BuildTimeSeries(run.events, 1 * sim::kSecond);
  const TimeSeries fine =
      BuildTimeSeries(run.events, 10 * sim::kMillisecond);
  ASSERT_FALSE(coarse.empty());
  ASSERT_FALSE(fine.empty());
  EXPECT_EQ(coarse.window_us, 1 * sim::kSecond);
  EXPECT_GT(fine.windows.size(), coarse.windows.size());
  int64_t coarse_committed = 0, fine_committed = 0;
  for (const auto& w : coarse.windows) coarse_committed += w.committed;
  for (const auto& w : fine.windows) fine_committed += w.committed;
  EXPECT_EQ(coarse_committed, fine_committed);
}

// --- perfetto export ---------------------------------------------------------

TEST(PerfettoTest, EmitsTracksSpansAndInstants) {
  const TracedRun run = RunTraced(3001, /*chaos=*/true);
  const SpanForest forest = BuildSpanForest(run.events);
  const std::string json = ExportPerfetto(forest, run.events);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The chaos plan's crashes show up as instant events.
  if (run.result.metrics.coordinator_crashes > 0) {
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("site_crash"), std::string::npos);
  }
}

// --- lenient parsing ---------------------------------------------------------

TEST(LenientParseTest, SkipsBadLinesAndCounts) {
  const TracedRun run = RunTraced(123);
  std::string jsonl;
  for (const Event& e : run.events) jsonl += e.ToJson() + "\n";
  const size_t total = run.events.size();

  // Inject garbage, an unknown event kind (a future writer), an unknown
  // key, and truncate the trailing line mid-object.
  std::string dirty = "this is not json\n";
  dirty += jsonl;
  dirty += "{\"seq\":9999,\"t\":1,\"kind\":\"warp_drive\"}\n";
  dirty += "{\"seq\":10000,\"wat\":1}\n";
  dirty += "{\"seq\":10001,\"t\":2,\"ki";

  // The strict parser rejects the stream outright...
  EXPECT_FALSE(trace::ParseJsonl(dirty).ok());
  // ...the lenient one keeps every good event and counts the bad lines.
  const trace::LenientParse parsed = trace::ParseJsonlLenient(dirty);
  EXPECT_EQ(parsed.events.size(), total);
  EXPECT_EQ(parsed.skipped_lines, 4);
  EXPECT_EQ(parsed.lines, static_cast<int64_t>(total) + 4);
  EXPECT_FALSE(parsed.warnings.empty());
  EXPECT_LE(parsed.warnings.size(), trace::LenientParse::kMaxWarnings);
  EXPECT_EQ(BuildSpanForest(parsed.events).ToString(),
            BuildSpanForest(run.events).ToString());
}

TEST(LenientParseTest, CleanInputParsesWithoutWarnings) {
  const TracedRun run = RunTraced(123);
  std::string jsonl;
  for (const Event& e : run.events) jsonl += e.ToJson() + "\n";
  const trace::LenientParse parsed = trace::ParseJsonlLenient(jsonl);
  EXPECT_EQ(parsed.events.size(), run.events.size());
  EXPECT_EQ(parsed.skipped_lines, 0);
  EXPECT_TRUE(parsed.warnings.empty());
}

}  // namespace
}  // namespace hermes
