// Tests of the hermes::trace subsystem: histogram percentiles, tracer
// record ordering, JSONL round-trips, determinism of traced runs, and the
// TraceAnalyzer's reconstruction of a forced resubmission chain with its
// certification-refusal context (an H1-style scenario through the real
// protocol stack).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/mdbs.h"
#include "trace/analyzer.h"
#include "trace/histogram.h"
#include "trace/trace.h"
#include "workload/driver.h"

namespace hermes {
namespace {

using core::CertPolicy;
using core::GlobalTxnResult;
using core::GlobalTxnSpec;
using core::Mdbs;
using core::MdbsConfig;
using trace::Event;
using trace::EventKind;
using trace::Histogram;
using trace::RefuseKind;
using trace::TraceAnalyzer;
using trace::Tracer;

// --- histogram ---------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Percentile(99), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, SingleValueIsEveryPercentile) {
  Histogram h;
  h.Add(1234);
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 1234) << "p" << p;
  }
}

TEST(HistogramTest, PercentilesOfUniformRange) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  // Buckets are power-of-two wide, so tolerate one bucket of error.
  const int64_t p50 = h.Percentile(50);
  EXPECT_GE(p50, 250);
  EXPECT_LE(p50, 1000);
  const int64_t p99 = h.Percentile(99);
  EXPECT_GE(p99, 512);
  EXPECT_LE(p99, 1000);
  EXPECT_EQ(h.Percentile(100), 1000);
  EXPECT_LE(h.Percentile(0), h.Percentile(50));
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
}

TEST(HistogramTest, ClampsToObservedRange) {
  Histogram h;
  h.Add(100);
  h.Add(101);
  h.Add(102);
  // Interpolation inside the [64, 128) bucket must not escape [min, max].
  for (double p : {1.0, 50.0, 99.0}) {
    EXPECT_GE(h.Percentile(p), 100);
    EXPECT_LE(h.Percentile(p), 102);
  }
}

TEST(HistogramTest, NonPositiveValuesLandInBucketZero) {
  Histogram h;
  h.Add(0);
  h.Add(-5);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.bucket(0), 2);
  // Estimates stay inside the observed range even for the catch-all bucket.
  EXPECT_GE(h.Percentile(50), -5);
  EXPECT_LE(h.Percentile(50), 0);
}

TEST(HistogramTest, MergeMatchesCombinedAdds) {
  Histogram a, b, both;
  for (int64_t v : {10, 20, 3000}) {
    a.Add(v);
    both.Add(v);
  }
  for (int64_t v : {1, 500000, 7}) {
    b.Add(v);
    both.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(a.Percentile(p), both.Percentile(p)) << "p" << p;
  }
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram a;
  for (int64_t v : {3, 70, 9000}) a.Add(v);
  const Histogram empty;

  Histogram ae = a;
  ae.Merge(empty);
  Histogram ea = empty;
  ea.Merge(a);
  for (const Histogram& h : {ae, ea}) {
    EXPECT_EQ(h.count(), a.count());
    EXPECT_EQ(h.min(), a.min());
    EXPECT_EQ(h.max(), a.max());
    EXPECT_EQ(h.ToString(), a.ToString());
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      EXPECT_EQ(h.bucket(i), a.bucket(i)) << "bucket " << i;
    }
  }
  // Empty + empty stays empty (and min() stays 0, not a sentinel).
  Histogram ee;
  ee.Merge(empty);
  EXPECT_EQ(ee.count(), 0);
  EXPECT_EQ(ee.min(), 0);
  EXPECT_EQ(ee.max(), 0);
}

TEST(HistogramTest, HugeValuesLandInOverflowBucket) {
  // Values at and beyond 2^47 us all collapse into the last bucket;
  // percentiles must stay clamped to the observed range, not the bucket's
  // nominal bounds.
  Histogram h;
  const int64_t huge = int64_t{1} << 47;
  h.Add(huge);
  h.Add(huge * 2);
  h.Add(huge * 100);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 3);
  EXPECT_EQ(h.min(), huge);
  EXPECT_EQ(h.max(), huge * 100);
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(h.Percentile(p), huge) << "p" << p;
    EXPECT_LE(h.Percentile(p), huge * 100) << "p" << p;
  }
  EXPECT_EQ(h.Percentile(100), huge * 100);
}

TEST(HistogramTest, MergeIsCommutative) {
  Histogram a, b;
  for (int64_t v : {int64_t{1}, int64_t{64}, int64_t{65}, int64_t{4096},
                    int64_t{1} << 47}) {
    a.Add(v);
  }
  for (int64_t v : {-2, 0, 100, 100000}) b.Add(v);
  Histogram ab = a;
  ab.Merge(b);
  Histogram ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());
  EXPECT_EQ(ab.ToString(), ba.ToString());
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(ab.bucket(i), ba.bucket(i)) << "bucket " << i;
  }
}

// --- tracer ------------------------------------------------------------------

TEST(TracerTest, AssignsSequentialSeqAndVirtualTime) {
  sim::EventLoop loop;
  Tracer tracer(&loop);
  Event e;
  e.kind = EventKind::kTxnBegin;
  e.txn = TxnId::MakeGlobal(0, 1);
  e.site = 0;
  tracer.Record(e);
  loop.ScheduleAfter(5 * sim::kMillisecond, [&]() {
    Event e2;
    e2.kind = EventKind::kTxnEnd;
    e2.txn = TxnId::MakeGlobal(0, 1);
    e2.site = 0;
    tracer.Record(e2);
  });
  loop.Run();
  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.events()[0].seq, 0);
  EXPECT_EQ(tracer.events()[0].at, 0);
  EXPECT_EQ(tracer.events()[1].seq, 1);
  EXPECT_EQ(tracer.events()[1].at, 5 * sim::kMillisecond);
}

TEST(TracerTest, TxnIdEncodingRoundTrips) {
  for (const TxnId& id :
       {TxnId::MakeGlobal(3, 17), TxnId::MakeLocal(0, 0), TxnId{}}) {
    const auto decoded = trace::DecodeTxnId(trace::EncodeTxnId(id));
    ASSERT_TRUE(decoded.ok()) << trace::EncodeTxnId(id);
    EXPECT_EQ(*decoded, id);
  }
  EXPECT_FALSE(trace::DecodeTxnId("bogus").ok());
}

TEST(TracerTest, JsonlRoundTripPreservesEveryField) {
  sim::EventLoop loop;
  Tracer tracer(&loop);

  Event full;
  full.kind = EventKind::kCertRefuse;
  full.txn = TxnId::MakeGlobal(2, 9);
  full.site = 1;
  full.peer = 2;
  full.resubmission = 3;
  full.value = 4567;
  full.sn = core::SerialNumber{1000, 2, 9};
  full.refuse = RefuseKind::kInterval;
  full.ok = false;
  full.detail = "tricky \"quoted\"\nnew\tline \\ backslash";
  full.related = {TxnId::MakeGlobal(0, 1), TxnId::MakeLocal(1, 5)};
  tracer.Record(full);

  Event sparse;  // everything at defaults except the kind
  sparse.kind = EventKind::kSiteRecover;
  tracer.Record(sparse);

  const std::string jsonl = tracer.ToJsonl();
  const auto parsed = trace::ParseJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], tracer.events()[0]);
  EXPECT_EQ((*parsed)[1], tracer.events()[1]);
}

TEST(TracerTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(trace::ParseJsonl("{\"seq\":0").ok());       // truncated
  EXPECT_FALSE(trace::ParseJsonl("{\"wat\":1}").ok());      // unknown key
  EXPECT_FALSE(trace::ParseJsonl("{\"kind\":\"?\"}").ok()); // unknown kind
  // 32-bit fields out of range, directly and inside the compact encodings.
  for (const char* line :
       {R"({"seq":0,"t":0,"kind":"txn_begin","site":4294967297})",
        R"({"seq":0,"t":0,"kind":"txn_begin","txn":"G4294967297.1"})",
        R"({"seq":0,"t":0,"kind":"txn_begin","sn":"5/4294967297/1"})"}) {
    EXPECT_FALSE(trace::ParseJsonl(line).ok()) << line;
  }
  const auto empty = trace::ParseJsonl("\n\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// --- end-to-end: forced resubmission, analyzed -------------------------------

constexpr SiteId kA = 0;
constexpr SiteId kB = 1;
constexpr SiteId kC = 2;

// H1-style scenario (see scenario_test.cc): T1 updates key 1 at site a and
// key 2 at site b; its prepared subtransaction at a is unilaterally
// aborted. T2 starts inside the failure window, writes the same keys, and
// so (a) holds key 1 at a, blocking T1's resubmission there, while (b)
// waiting for T1's key-2 lock at b. When T2 finally prepares at a, the dead
// T1 is still in the alive table with a stale interval — the basic prepare
// certification refuses T2, whose abort then unblocks T1's resubmission.
struct TracedScenario {
  sim::EventLoop loop;
  Tracer tracer{&loop};
  std::unique_ptr<Mdbs> mdbs;
  db::TableId table = -1;
  TxnId t1_id, t2_id;
  std::optional<GlobalTxnResult> t1, t2;

  void Run() {
    MdbsConfig config;
    config.num_sites = 3;
    config.agent.policy = CertPolicy::kFull;
    config.agent.alive_check_interval = 200 * sim::kMillisecond;
    config.tracer = &tracer;
    mdbs = std::make_unique<Mdbs>(config, &loop);
    table = *mdbs->CreateTableEverywhere("t");
    for (SiteId s : {kA, kB}) {
      for (int64_t k : {0, 1, 2}) {
        ASSERT_TRUE(mdbs->LoadRow(s, table, k,
                                  db::Row{{"v", db::Value(int64_t{0})}})
                        .ok());
      }
    }

    bool injected = false;
    mdbs->agent(kA)->set_prepared_hook([&](const TxnId& gtid,
                                           LtmTxnHandle handle) {
      if (injected || !(gtid == t1_id)) return;
      injected = true;
      loop.ScheduleAfter(0, [this, handle]() {
        (void)mdbs->ltm(kA)->InjectUnilateralAbort(handle);
      });
      GlobalTxnSpec spec2;
      spec2.steps.push_back({kA, db::MakeAddKey(table, 1, "v", int64_t{5})});
      spec2.steps.push_back({kB, db::MakeAddKey(table, 2, "v", int64_t{5})});
      t2_id = mdbs->Submit(
          spec2, [this](const GlobalTxnResult& r) { t2 = r; }, kA);
    });

    GlobalTxnSpec spec1;
    spec1.steps.push_back({kA, db::MakeAddKey(table, 1, "v", int64_t{10})});
    spec1.steps.push_back({kB, db::MakeAddKey(table, 2, "v", int64_t{10})});
    t1_id = mdbs->Submit(
        spec1, [this](const GlobalTxnResult& r) { t1 = r; }, kC);
    loop.Run();
  }
};

TEST(TraceAnalyzerTest, ReconstructsResubmissionChainAndRefusal) {
  TracedScenario s;
  s.Run();
  ASSERT_TRUE(s.t1.has_value());
  ASSERT_TRUE(s.t2.has_value());
  EXPECT_TRUE(s.t1->status.ok()) << s.t1->status;
  EXPECT_FALSE(s.t2->status.ok());

  TraceAnalyzer analyzer(s.tracer.events());

  // T1's resubmission chain at site a: one unilateral abort, one completed
  // resubmission attempt, then the local commit.
  const auto* chain = analyzer.ChainOf(s.t1_id, kA);
  ASSERT_NE(chain, nullptr) << analyzer.Summary();
  EXPECT_GE(chain->unilateral_aborts, 1);
  ASSERT_GE(chain->attempts.size(), 1u);
  EXPECT_EQ(chain->attempts[0].resubmission, 1);
  EXPECT_GE(chain->attempts[0].started, 0);
  EXPECT_GE(chain->attempts[0].completed, chain->attempts[0].started);
  EXPECT_TRUE(chain->locally_committed);

  // T2 was refused by the basic certification at site a, and the refusal
  // names T1 as the conflicting prepared transaction.
  bool found = false;
  for (const auto& refusal : analyzer.Refusals()) {
    if (refusal.txn != s.t2_id) continue;
    found = true;
    EXPECT_EQ(refusal.site, kA);
    EXPECT_EQ(refusal.kind, RefuseKind::kInterval);
    EXPECT_TRUE(std::find(refusal.conflicting.begin(),
                          refusal.conflicting.end(),
                          s.t1_id) != refusal.conflicting.end())
        << refusal.ToString();
  }
  EXPECT_TRUE(found) << analyzer.Summary();

  // Timelines carry the 2PC spans of both transactions.
  const auto* t1 = analyzer.Timeline(s.t1_id);
  ASSERT_NE(t1, nullptr);
  EXPECT_TRUE(t1->finished);
  EXPECT_TRUE(t1->committed);
  EXPECT_EQ(t1->coordinator, kC);
  ASSERT_TRUE(t1->sites.count(kA));
  EXPECT_TRUE(t1->sites.at(kA).prepare.complete());
  EXPECT_TRUE(t1->sites.at(kA).vote_ready);
  EXPECT_GE(t1->sites.at(kA).resubmissions, 1);
  EXPECT_TRUE(t1->sites.at(kA).locally_committed);

  const auto* t2 = analyzer.Timeline(s.t2_id);
  ASSERT_NE(t2, nullptr);
  EXPECT_TRUE(t2->finished);
  EXPECT_FALSE(t2->committed);
  EXPECT_EQ(t2->sites.at(kA).refuse, RefuseKind::kInterval);

  // The human-readable report mentions the refusal.
  EXPECT_NE(analyzer.ReportTxn(s.t2_id).find("cert_refuse"),
            std::string::npos)
      << analyzer.ReportTxn(s.t2_id);

  // Round trip: the analyzer over the parsed JSONL sees the same chains.
  const auto parsed = trace::ParseJsonl(s.tracer.ToJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  TraceAnalyzer reparsed(*parsed);
  EXPECT_EQ(reparsed.ResubmissionChains().size(),
            analyzer.ResubmissionChains().size());
  EXPECT_EQ(reparsed.Refusals().size(), analyzer.Refusals().size());
}

TEST(TraceDeterminismTest, SameSeedProducesByteIdenticalTraces) {
  auto traced_run = [](uint64_t seed) {
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
    (void)workload::Driver::Run(config);
    return tracer.ToJsonl();
  };
  const std::string a = traced_run(123);
  const std::string b = traced_run(123);
  const std::string c = traced_run(124);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different interleaving
}

TEST(TraceDeterminismTest, TracedRunMatchesUntracedMetrics) {
  // Tracing must be purely observational: the same seed with and without a
  // tracer yields identical protocol outcomes.
  workload::WorkloadConfig config;
  config.seed = 321;
  config.num_sites = 2;
  config.rows_per_table = 16;
  config.global_clients = 4;
  config.target_global_txns = 25;
  config.p_prepared_abort = 0.2;
  config.record_history = false;
  const auto untraced = workload::Driver::Run(config);

  Tracer tracer;
  config.tracer = &tracer;
  const auto traced = workload::Driver::Run(config);
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_EQ(traced.metrics.global_committed, untraced.metrics.global_committed);
  EXPECT_EQ(traced.metrics.global_aborted, untraced.metrics.global_aborted);
  EXPECT_EQ(traced.metrics.resubmissions, untraced.metrics.resubmissions);
  EXPECT_EQ(traced.end_time, untraced.end_time);
  EXPECT_EQ(traced.messages, untraced.messages);
}

}  // namespace
}  // namespace hermes
