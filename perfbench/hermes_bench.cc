// HERMES-R benchmark harness: runs one workload for a given number of
// seconds in whole rounds, checks every round's outputs (a write ledger kept
// apart from the program, the history oracle, the trace round trip) and
// prints one JSON line with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). See README.md for the workloads and the
// meaning of every metric.
//
//   hermes_bench --workload paper-oracle --seed 1 --seconds 10 --trace 0
//                [--spans-out spans.jsonl]
//
// Single-threaded; every time is process CPU time.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mdbs.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "history/graphs.h"
#include "history/projection.h"
#include "history/view_checker.h"
#include "ledger.h"
#include "trace/critical_path.h"
#include "trace/span.h"
#include "trace/trace.h"
#include "workload/config.h"
#include "workload/generator.h"

namespace hermes::perfbench {
namespace {

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

// Named per-layer values of one case or round. Every entry is additive
// (a count or CPU seconds), so rounds fold cases by summing.
using Layers = std::map<std::string, double>;

void AddInto(Layers& into, const Layers& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

double Get(const Layers& l, const std::string& name) {
  auto it = l.find(name);
  return it == l.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as JSONL when the run ends. Timed on the
// process CPU clock like every other figure of the benchmark.

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(CpuNow()) {}

  bool on() const { return on_; }

  int Begin(std::string name) {
    if (!on_) return -1;
    spans_.push_back(Span{std::move(name), CpuNow() - origin_, 0,
                          stack_.empty() ? -1 : stack_.back(), {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id, Layers counters = {}) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = CpuNow() - origin_;
    spans_[static_cast<size_t>(id)].counters = std::move(counters);
    stack_.pop_back();
  }

  // One JSON object per span: name, start, end, parent, self time (the
  // duration minus what its children cover) and counter deltas.
  bool Write(const std::string& path) const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                    "\"end_s\":%.9f,\"parent\":%d,\"self_s\":%.9f",
                    i, s.name.c_str(), s.start, s.end, s.parent,
                    s.end - s.start - child_time[i]);
      out << buf;
      if (!s.counters.empty()) {
        out << ",\"counters\":{";
        bool first = true;
        for (const auto& [name, value] : s.counters) {
          out << (first ? "" : ",") << '"' << name << "\":"
              << static_cast<int64_t>(value);
          first = false;
        }
        out << '}';
      }
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    Layers counters;
  };
  bool on_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Times one call on the CPU clock into `layers[name]` (a name ending in
// "_s") and records a span of that name without the suffix when spans are
// on.
template <typename Fn>
auto Timed(SpanLog& spans, Layers& layers, const std::string& name, Fn&& fn) {
  const int id = spans.Begin(name.substr(0, name.size() - 2));
  const double t0 = CpuNow();
  struct Finish {
    SpanLog& spans;
    Layers& layers;
    const std::string& name;
    int id;
    double t0;
    ~Finish() {
      layers[name] += CpuNow() - t0;
      spans.End(id);
    }
  } finish{spans, layers, name, id, t0};
  return fn();
}

// ---------------------------------------------------------------------------
// One case: a federation built from a WorkloadConfig, driven by the same
// client loops as workload::Driver (same generator and random stream, so a
// seed reproduces workload::Driver's history), then drained and checked.

struct CaseSpec {
  workload::WorkloadConfig config;
  // Judge the recorded history with the near-linear checks (replay, order
  // invariant, global atomicity).
  bool judge_history = false;
  // Also require an acyclic commit graph: through CommitGraphAcyclic, or,
  // with `chain_commit_graph`, through the linear-cost ChainCommitGraphAcyclic
  // below (same answer; CommitGraphAcyclic costs seconds on large histories).
  bool commit_graph = false;
  bool chain_commit_graph = false;
  // Also require a kSerializable view verdict.
  bool view_verdict = false;
  // Binary ring tracer on; the trace is folded and round-tripped after.
  bool trace = false;
};

struct CaseResult {
  Layers layers;
  std::vector<double> commit_ms;  // virtual latency of acknowledged commits
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // why operations failed
  std::vector<std::string> problems;  // why the benchmark itself is wrong
};

// The commit-order graph of history::BuildCommitOrderGraph keeps an edge for
// every ordered pair of local commits at a site, so building it costs time
// quadratic in the commits per site. The edges between consecutive commits
// have the same transitive closure, hence a cycle exactly when that graph
// has one; Kahn's algorithm over them decides acyclicity in linear time.
// (BuildCommitOrderGraph also exempts transactions migrated by a shard
// handoff; no workload here reconfigures.)
bool ChainCommitGraphAcyclic(const std::vector<history::Op>& committed) {
  std::map<TxnId, size_t> index;
  std::vector<std::vector<size_t>> next;
  std::vector<size_t> indegree;
  std::map<SiteId, size_t> last;
  for (const history::Op& op : committed) {
    if (op.kind != history::OpKind::kLocalCommit) continue;
    const auto [node, fresh] = index.try_emplace(op.subtxn.txn, next.size());
    if (fresh) {
      next.emplace_back();
      indegree.push_back(0);
    }
    const auto [prev, first] = last.try_emplace(op.site, node->second);
    if (!first) {
      next[prev->second].push_back(node->second);
      ++indegree[node->second];
      prev->second = node->second;
    }
  }
  std::vector<size_t> ready;
  for (size_t n = 0; n < indegree.size(); ++n) {
    if (indegree[n] == 0) ready.push_back(n);
  }
  size_t ordered = 0;
  while (!ready.empty()) {
    const size_t n = ready.back();
    ready.pop_back();
    ++ordered;
    for (size_t m : next[n]) {
      if (--indegree[m] == 0) ready.push_back(m);
    }
  }
  return ordered == indegree.size();
}

// Protocol counters read through the public accessors.
Layers ReadCounters(core::Mdbs& mdbs, const sim::EventLoop& loop) {
  Layers c;
  c["sim.events"] = static_cast<double>(loop.events_processed());
  c["net.msgs"] = static_cast<double>(mdbs.network().messages_sent());
  c["net.msgs_dropped"] = static_cast<double>(mdbs.network().messages_dropped());
  c["net.msgs_duplicated"] =
      static_cast<double>(mdbs.network().messages_duplicated());
  const core::Metrics m = mdbs.metrics();
  c["net.retransmits"] = static_cast<double>(m.retransmits);
  c["agent.resubmissions"] = static_cast<double>(m.resubmissions);
  c["agent.alive_checks"] = static_cast<double>(m.alive_checks);
  c["cert.refusals"] = static_cast<double>(m.refuse_extension + m.refuse_interval +
                                           m.refuse_snapshot + m.refuse_dead);
  c["cert.commit_retries"] = static_cast<double>(m.commit_cert_retries);
  c["coord.inquiries"] = static_cast<double>(m.inquiries_sent);
  c["paxos.resolutions"] = static_cast<double>(m.paxos_resolutions);
  for (SiteId s = 0; s < mdbs.num_sites(); ++s) {
    const ltm::LtmStats& ls = mdbs.ltm(s)->stats();
    c["ltm.commands"] += static_cast<double>(ls.commands_executed);
    c["ltm.lock_timeout_aborts"] += static_cast<double>(ls.lock_timeout_aborts);
    c["ltm.unilateral_aborts"] += static_cast<double>(ls.unilateral_aborts);
    c["ltm.dlu_waits"] += static_cast<double>(ls.dlu_waits);
    const core::AgentLog& al = mdbs.agent(s)->log();
    c["agent.forced_writes"] += static_cast<double>(al.forced_writes());
    c["agent.log_records"] += static_cast<double>(al.size());
    const core::CoordinatorLog& cl = mdbs.coordinator(s)->log();
    c["coord.forced_writes"] += static_cast<double>(cl.forced_writes());
    c["coord.log_records"] += static_cast<double>(cl.size());
    if (consensus::PaxosCommit* p = mdbs.paxos(s); p != nullptr) {
      c["paxos.forced_writes"] += static_cast<double>(p->log().forced_writes());
      c["paxos.log_records"] += static_cast<double>(p->log().size());
    }
  }
  return c;
}

Layers Delta(const Layers& after, const Layers& before) {
  Layers d;
  for (const auto& [name, value] : after) d[name] = value - Get(before, name);
  return d;
}

// Virtual time granted after the workload::Driver-equivalent run so every
// decision, rollback and in-flight local transaction settles before the
// ledger is checked. History recording is off by then, so the judged history
// is exactly the one workload::Driver would judge.
constexpr sim::Duration kSettle = 2 * sim::kSecond;
constexpr sim::Duration kSlice = 100 * sim::kMillisecond;
// Binary trace ring size in records: room for every event of a paxos-chaos
// case (about 70 per transaction), so the trace analysis sees whole runs.
constexpr size_t kRingCapacity = size_t{1} << 17;

class CaseRun {
 public:
  CaseRun(const CaseSpec& spec, SpanLog& spans, bool program_tracer)
      : spec_(spec),
        config_(spec.config),
        spans_(spans),
        generator_(spec.config, spec.config.seed),
        rng_(spec.config.seed),
        program_tracer_(spec.trace && program_tracer) {
    loop_.set_max_events(200'000'000);
  }

  CaseResult Run() {
    const double cpu0 = CpuNow();
    Layers& L = result_.layers;
    const int case_span = spans_.Begin("case");
    Timed(spans_, L, "setup_s", [&] { Setup(); });
    // Heap the transactions leave behind: growth from the end of set-up
    // (tables, tracer ring) to the end of the drain.
    const double heap0 = HeapInUse();
    Timed(spans_, L, "sim.cpu_s", [&] { Simulate(); });
    Timed(spans_, L, "drain_s", [&] { Settle(); });
    L["heap_bytes"] = HeapInUse() - heap0;
    AddInto(L, ReadCounters(*mdbs_, loop_));
    Judge();
    L["run_cpu_s"] = CpuNow() - cpu0;
    spans_.End(case_span);
    return std::move(result_);
  }

 private:
  void Setup() {
    Layers& L = result_.layers;
    config_.tracer = nullptr;
    if (program_tracer_) {
      trace::TracerOptions opts;
      opts.format = trace::TraceFormat::kBinary;
      opts.ring_capacity = kRingCapacity;
      tracer_ = std::make_unique<trace::Tracer>(opts, &loop_);
      config_.tracer = tracer_.get();
    }
    mdbs_ = Timed(spans_, L, "setup.mdbs_s", [&] {
      return std::make_unique<core::Mdbs>(config_.ToMdbsConfig(), &loop_);
    });
    Timed(spans_, L, "setup.load_s", [&] {
      for (int t = 0; t < config_.tables_per_site; ++t) {
        const db::TableId id = Timed(spans_, L, "setup.create_table_s", [&] {
          return *mdbs_->CreateTableEverywhere("t" + std::to_string(t));
        });
        tables_.push_back(id);
        for (SiteId s = 0; s < config_.num_sites; ++s) {
          for (int64_t k = 0; k < config_.rows_per_table; ++k) {
            (void)mdbs_->LoadRow(s, id, k,
                                 db::Row{{"val", db::Value(int64_t{0})}});
          }
        }
      }
    });
    L["setup.rows_loaded"] = static_cast<double>(
        config_.tables_per_site * config_.num_sites * config_.rows_per_table);
    Timed(spans_, L, "setup.faults_s", [&] {
      InstallFailureInjector();
      if (!config_.fault_plan.empty()) {
        fault::InstallFaultPlan(config_.fault_plan, mdbs_.get(), config_.tracer);
      }
    });
  }

  // workload::Driver's prepared-state failure injector, on the shared stream.
  void InstallFailureInjector() {
    if (config_.p_prepared_abort <= 0) return;
    for (SiteId s = 0; s < config_.num_sites; ++s) {
      ltm::Ltm* ltm = mdbs_->ltm(s);
      mdbs_->agent(s)->set_prepared_hook(
          [this, ltm](const TxnId& /*gtid*/, LtmTxnHandle handle) {
            if (!rng_.NextBool(config_.p_prepared_abort)) return;
            const auto delay = static_cast<sim::Duration>(rng_.NextUint64(
                static_cast<uint64_t>(config_.prepared_abort_max_delay) + 1));
            loop_.ScheduleAfter(delay, [ltm, handle]() {
              (void)ltm->InjectUnilateralAbort(handle);
            });
          });
    }
  }

  void RunGlobalClient() {
    if (submitted_ >= config_.target_global_txns) return;
    ++submitted_;
    core::GlobalTxnSpec spec = generator_.NextGlobal(rng_);
    const size_t id = ledger_.Submit();
    for (const auto& step : spec.steps) {
      if (!ledger_.AddCommand(id, step.site, step.cmd)) Problem("untracked write");
    }
    const sim::Time start = loop_.Now();
    mdbs_->Submit(std::move(spec), [this, id, start](
                                       const core::GlobalTxnResult& r) {
      if (ledger_.outcome(id) != Outcome::kPending) {
        double_callbacks_ = true;
        return;
      }
      if (r.status.ok()) {
        ledger_.Resolve(id, Outcome::kCommitted);
        result_.commit_ms.push_back(
            static_cast<double>(loop_.Now() - start) / sim::kMillisecond);
      } else {
        ledger_.Resolve(id, r.status.code() == StatusCode::kUnavailable
                                ? Outcome::kInDoubt
                                : Outcome::kAborted);
      }
      ++completed_;
      if (completed_ >= config_.target_global_txns) {
        stop_locals_ = true;
        done_at_ = loop_.Now();
        return;
      }
      if (config_.think_time > 0) {
        loop_.ScheduleAfter(config_.think_time, [this] { RunGlobalClient(); });
      } else {
        RunGlobalClient();
      }
    });
  }

  void RunLocalClient(SiteId site) {
    if (stop_locals_) return;
    core::LocalTxnSpec spec = generator_.NextLocal(rng_, site, -1);
    ++local_submitted_;
    const size_t id = ledger_.Submit();
    for (const db::Command& cmd : spec.commands) {
      if (!ledger_.AddCommand(id, site, cmd)) Problem("untracked write");
    }
    mdbs_->SubmitLocal(std::move(spec), [this, id, site](
                                            const core::LocalTxnResult& r) {
      ledger_.Resolve(id, r.status.ok() ? Outcome::kCommitted
                          : r.status.code() == StatusCode::kUnavailable
                              ? Outcome::kInDoubt
                              : Outcome::kAborted);
      if (stop_locals_) return;
      loop_.ScheduleAfter(
          config_.think_time > 0 ? config_.think_time : 1 * sim::kMillisecond,
          [this, site] { RunLocalClient(site); });
    });
  }

  // One slice of virtual time, with its counter deltas on the span.
  void Slice(const char* name, sim::Time deadline) {
    const int id = spans_.Begin(name);
    Layers before;
    if (spans_.on()) before = ReadCounters(*mdbs_, loop_);
    loop_.RunUntil(deadline);
    spans_.End(id, spans_.on() ? Delta(ReadCounters(*mdbs_, loop_), before)
                               : Layers{});
  }

  void Simulate() {
    for (int c = 0; c < config_.global_clients; ++c) {
      loop_.ScheduleAfter(0, [this] { RunGlobalClient(); });
    }
    for (SiteId s = 0; s < config_.num_sites; ++s) {
      for (int c = 0; c < config_.local_clients_per_site; ++c) {
        loop_.ScheduleAfter(0, [this, s] { RunLocalClient(s); });
      }
    }
    while (done_at_ < 0 && loop_.Now() < config_.max_sim_time &&
           !loop_.Empty()) {
      Slice("sim.slice",
            std::min(loop_.Now() + kSlice, config_.max_sim_time));
    }
    const sim::Time end = done_at_ >= 0 ? done_at_ : loop_.Now();
    result_.layers["virtual_s"] = static_cast<double>(end) / sim::kSecond;
    if (config_.drain_grace > 0) {
      const sim::Time deadline =
          std::min(loop_.Now() + config_.drain_grace, config_.max_sim_time);
      while (!loop_.Empty() && loop_.Now() < deadline) {
        Slice("sim.grace_slice", std::min(loop_.Now() + kSlice, deadline));
      }
    }
  }

  void Settle() {
    stop_locals_ = true;
    mdbs_->recorder().set_enabled(false);
    const sim::Time deadline = loop_.Now() + kSettle;
    while (!loop_.Empty() && loop_.Now() < deadline) {
      Slice("drain.slice", std::min(loop_.Now() + kSlice, deadline));
    }
  }

  void Fail(const std::string& why) { result_.failures.push_back(why); }
  void Problem(const std::string& why) { result_.problems.push_back(why); }

  // Operations: every submitted global transaction (failed when it has no
  // outcome after the drain) and the case's one judged output (failed when
  // the ledger, the history checks or the trace round trip fail).
  void Judge() {
    Layers& L = result_.layers;
    const int64_t no_outcome = submitted_ - completed_;
    L["txns.submitted"] = submitted_;
    L["txns.local_submitted"] = local_submitted_;
    L["txns.completed"] = completed_;
    L["txns.committed"] = static_cast<double>(result_.commit_ms.size());
    result_.attempted += submitted_ + 1;
    result_.failed += no_outcome;
    if (no_outcome > 0) {
      Fail("seed " + std::to_string(config_.seed) + ": " +
           std::to_string(no_outcome) + " transaction(s) without outcome");
    }
    std::string why = double_callbacks_ ? "a transaction was reported twice" : "";
    const std::string ledger = Timed(spans_, L, "ledger_s", [&] {
      std::string e;
      for (SiteId s = 0; s < mdbs_->num_sites() && e.empty(); ++s) {
        e = ledger_.Check(*mdbs_->storage(s), tables_, 0);
      }
      return e;
    });
    if (why.empty()) why = ledger;
    if (spec_.judge_history) {
      const std::string h = JudgeHistory();
      if (why.empty()) why = h;
    }
    if (tracer_ != nullptr) {
      const std::string t = AnalyzeTrace();
      if (why.empty()) why = t;
    }
    if (!why.empty()) {
      ++result_.failed;
      Fail("seed " + std::to_string(config_.seed) + ": " + why);
    }
  }

  std::string JudgeHistory() {
    Layers& L = result_.layers;
    const std::vector<history::Op>& ops = mdbs_->recorder().ops();
    L["history.ops"] = static_cast<double>(ops.size());
    const std::vector<history::Op> committed =
        Timed(spans_, L, "history.projection_s",
              [&] { return history::CommittedProjection(ops); });
    std::string why;
    if (spec_.commit_graph) {
      const bool chain = Timed(spans_, L, "history.chain_commit_graph_s",
                               [&] { return ChainCommitGraphAcyclic(committed); });
      if (!spec_.chain_commit_graph) {
        const bool full = Timed(spans_, L, "history.commit_graph_s", [&] {
          return history::CommitGraphAcyclic(committed);
        });
        if (full != chain) {
          Problem("ChainCommitGraphAcyclic disagrees with CommitGraphAcyclic");
        }
      }
      if (!chain) why = "commit graph cyclic";
    }
    const std::string replay = Timed(spans_, L, "history.replay_s", [&] {
      return history::VerifyReplayMatchesRecorded(committed);
    });
    const std::string order = Timed(spans_, L, "history.order_invariant_s",
                                    [&] { return history::CheckOrderInvariant(ops); });
    const std::string atomicity = Timed(spans_, L, "history.atomicity_s", [&] {
      return history::CheckGlobalAtomicity(ops);
    });
    if (why.empty() && !replay.empty()) why = "replay: " + replay;
    if (why.empty() && !order.empty()) why = "order invariant: " + order;
    if (why.empty() && !atomicity.empty()) why = "atomicity: " + atomicity;
    if (spec_.view_verdict) {
      const history::ViewCheckResult view =
          Timed(spans_, L, "history.view_s", [&] {
            return history::CheckViewSerializability(committed, /*max_txns=*/8);
          });
      if (why.empty() && view.verdict != history::Verdict::kSerializable) {
        why = std::string("view verdict ") + history::VerdictName(view.verdict) +
              (view.reason.empty() ? "" : " (" + view.reason + ")");
      }
    }
    return why;
  }

  // What tmstat does with a trace: span forest, critical path, and a JSONL
  // encode/parse round trip that must give back every stored event.
  std::string AnalyzeTrace() {
    Layers& L = result_.layers;
    L["trace.events"] = static_cast<double>(tracer_->size());
    const trace::SpanForest forest = Timed(spans_, L, "trace.span_forest_s", [&] {
      return trace::BuildSpanForest(*tracer_);
    });
    const trace::CriticalPathReport report =
        Timed(spans_, L, "trace.critical_path_s",
              [&] { return trace::AnalyzeCriticalPath(forest); });
    const std::string jsonl =
        Timed(spans_, L, "trace.encode_s", [&] { return tracer_->ToJsonl(); });
    L["trace.bytes"] = static_cast<double>(jsonl.size());
    const Result<std::vector<trace::Event>> parsed = Timed(
        spans_, L, "trace.parse_s", [&] { return trace::ParseJsonl(jsonl); });
    if (forest.roots.empty() || report.committed_txns == 0) {
      return "trace: empty span forest or critical path";
    }
    if (!parsed.ok()) return "trace: " + parsed.status().message();
    size_t i = 0;
    bool same = parsed->size() == tracer_->size();
    tracer_->ForEach([&](const trace::Event& e) {
      same = same && i < parsed->size() && (*parsed)[i] == e;
      ++i;
    });
    return same ? "" : "trace: JSONL round trip changed the events";
  }

  const CaseSpec& spec_;
  workload::WorkloadConfig config_;
  SpanLog& spans_;
  workload::Generator generator_;
  Rng rng_;
  Ledger ledger_;
  CaseResult result_;
  int submitted_ = 0;
  int completed_ = 0;
  int local_submitted_ = 0;
  bool stop_locals_ = false;
  bool double_callbacks_ = false;
  sim::Time done_at_ = -1;
  bool program_tracer_;
  std::vector<db::TableId> tables_;
  // Declared last: destroyed first, before the state their callbacks use.
  sim::EventLoop loop_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<core::Mdbs> mdbs_;
};

// ---------------------------------------------------------------------------
// Workloads. Each returns the cases of one round; every round of a run
// repeats the same cases, so each run attempts whole rounds of identical
// operations.

// Seeds of the paper-oracle histories that do not depend on --seed. Seed 9
// is the hard-case history the oracle cannot decide (commit graph acyclic,
// verdict kUnknown): it fails in every round, identically on every run.
constexpr uint64_t kPaperFixedSeeds[] = {1, 7, 9, 12};
constexpr int kPaperFixedTxns = 200;
constexpr int kPaperSeededHistories = 2;
constexpr int kPaperSeededTxns = 500;

// The ROADMAP anomaly configuration: 4 sites, 16 hot rows, unilateral
// aborts of prepared subtransactions with probability 0.3, 2 local clients
// per site, 4 ms alive checks, 2PC with the paper's SN certification.
workload::WorkloadConfig PaperConfig(uint64_t seed, int txns) {
  workload::WorkloadConfig c;
  c.seed = seed;
  c.num_sites = 4;
  c.rows_per_table = 16;
  c.p_prepared_abort = 0.3;
  c.local_clients_per_site = 2;
  c.alive_check_interval = 4 * sim::kMillisecond;
  c.policy = core::CertPolicy::kFull;
  c.target_global_txns = txns;
  return c;
}

std::vector<CaseSpec> PaperOracle(uint64_t seed) {
  std::vector<CaseSpec> cases;
  for (uint64_t s : kPaperFixedSeeds) {
    CaseSpec c;
    c.config = PaperConfig(s, kPaperFixedTxns);
    c.judge_history = true;
    c.commit_graph = true;
    c.view_verdict = true;
    cases.push_back(c);
  }
  // Seeded histories of the same configuration, judged by every check but
  // the view verdict, which is not definite on every seed (the anomaly above
  // recurs on some seeds). Their commit graph is checked at linear cost: the
  // quadratic CommitGraphAcyclic takes 1 to 14 s on a 500-transaction
  // history, depending on the seed, and would swamp the round.
  Rng rng(seed ^ 0x70617065ULL);
  for (int i = 0; i < kPaperSeededHistories; ++i) {
    CaseSpec c;
    c.config = PaperConfig(1000 + rng.NextUint64(1'000'000'000), kPaperSeededTxns);
    c.judge_history = true;
    c.commit_graph = true;
    c.chain_commit_graph = true;
    cases.push_back(c);
  }
  return cases;
}

std::vector<CaseSpec> WideSim(uint64_t seed) {
  CaseSpec c;
  workload::WorkloadConfig& w = c.config;
  w.seed = Rng(seed ^ 0x77696465ULL).NextUint64(1'000'000'000);
  w.num_sites = 64;
  w.global_clients = 64;
  w.tables_per_site = 2;
  w.rows_per_table = 4096;
  w.target_global_txns = 4000;
  w.net_jitter = 200 * sim::kMicrosecond;
  w.record_history = false;
  return {c};
}

constexpr int kChaosCases = 16;
// A case that does not depend on --seed and shows PaxosCommit::Decide
// dropping the coordinator's callback: agents inquire after 40 ms, the
// coordinator site's own agent escalates to an election that decides G4.50
// while the coordinator still waits for a retransmitted vote, and the client
// never hears back. One transaction without outcome in every round.
constexpr uint64_t kChaosLostCallbackSeed = 82263409;

workload::WorkloadConfig ChaosConfig(uint64_t seed) {
  workload::WorkloadConfig w;
  w.seed = seed;
  w.num_sites = 5;
  w.rows_per_table = 64;
  w.global_clients = 4;
  w.global_write_fraction = 0.2;
  w.target_global_txns = 300;
  w.net_jitter = 200 * sim::kMicrosecond;
  w.net_loss_prob = 0.02;
  w.protocol = consensus::ProtocolKind::kPaxosCommit;
  w.paxos_f = 1;
  w.retry_max_timeout = 100 * sim::kMillisecond;
  w.retry_max_attempts = 6;
  w.decision_inquiry_timeout = 1500 * sim::kMillisecond;
  w.orphan_abort_timeout = 800 * sim::kMillisecond;
  w.drain_grace = 2 * sim::kSecond;
  return w;
}

// In the seeded cases timers are set so no resolver can decide a
// transaction while its coordinator still waits for votes: the coordinator
// gives up after 6 retransmissions (timeouts 25, 50, then 100 ms: 575 ms in
// all), every crash, partition and loss burst outlasts that, and agents
// first inquire after 1.5 s. Otherwise the lost callback above strikes on
// some seeds and not others (see README.md, known faults).
std::vector<CaseSpec> PaxosChaos(uint64_t seed) {
  std::vector<CaseSpec> cases;
  CaseSpec lost;
  lost.config = ChaosConfig(kChaosLostCallbackSeed);
  lost.config.decision_inquiry_timeout = 40 * sim::kMillisecond;
  lost.judge_history = true;
  lost.trace = true;
  cases.push_back(lost);
  Rng rng(seed ^ 0x7061786fULL);
  for (int i = 0; i < kChaosCases; ++i) {
    CaseSpec c;
    c.config = ChaosConfig(rng.NextUint64(1'000'000'000));
    workload::WorkloadConfig& w = c.config;
    fault::ChaosOptions opts;
    opts.num_sites = w.num_sites;
    opts.horizon = 2 * sim::kSecond;
    opts.crashes = 3;
    opts.partitions = 1;
    opts.loss_bursts = 1;
    opts.min_downtime = 800 * sim::kMillisecond;
    opts.max_downtime = 1200 * sim::kMillisecond;
    opts.triggered_fraction = 0.5;
    w.fault_plan = fault::GenerateChaosPlan(rng.NextUint64(1'000'000'000), opts);
    c.judge_history = true;
    c.trace = true;
    cases.push_back(c);
  }
  return cases;
}

// ---------------------------------------------------------------------------
// Rounds and the reported figures.

struct RoundResult {
  Layers layers;  // summed over the round's cases
  std::vector<Layers> cases;
  std::vector<std::vector<double>> commit_ms;  // per case
  double cpu_s = 0;             // the whole round, teardown included
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> problems;
};

RoundResult RunRound(const std::vector<CaseSpec>& cases, SpanLog& spans,
                     bool program_tracer) {
  RoundResult round;
  const int id = spans.Begin("round");
  const double cpu0 = CpuNow();
  for (const CaseSpec& spec : cases) {
    CaseResult r = CaseRun(spec, spans, program_tracer).Run();
    AddInto(round.layers, r.layers);
    round.commit_ms.push_back(std::move(r.commit_ms));
    round.cases.push_back(r.layers);
    round.attempted += r.attempted;
    round.failed += r.failed;
    round.failures.insert(round.failures.end(), r.failures.begin(),
                          r.failures.end());
    round.problems.insert(round.problems.end(), r.problems.begin(),
                          r.problems.end());
  }
  round.cpu_s = CpuNow() - cpu0;
  spans.End(id);
  return round;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Median over rounds of f(round).
double MedianOf(const std::vector<RoundResult>& rounds,
                const std::function<double(const RoundResult&)>& f) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) v.push_back(f(r));
  return Median(std::move(v));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Counts (not times, not heap) must repeat exactly from round to round: the
// simulation is deterministic and every round runs the same inputs.
bool IsCount(const std::string& name) {
  const bool time = name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0;
  return !time && name != "heap_bytes";
}

std::string FirstDivergence(const std::vector<RoundResult>& rounds) {
  for (const RoundResult& r : rounds) {
    for (const auto& [name, value] : rounds[0].layers) {
      if (IsCount(name) && Get(r.layers, name) != value) {
        return "round-to-round divergence in " + name;
      }
    }
  }
  return "";
}

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

// Median over every case of every round of f(case). Per-case medians keep
// the CPU and heap figures steady where case sizes are heavy-tailed (the
// seeded paper-oracle histories).
double CaseMedian(const std::vector<RoundResult>& rounds,
                  const std::function<double(const Layers&)>& f) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    for (const Layers& c : r.cases) v.push_back(f(c));
  }
  return Median(std::move(v));
}

std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds) {
  auto case_median = [&](const char* num, const char* den) {
    return CaseMedian(rounds, [&](const Layers& c) {
      return Ratio(Get(c, num), Get(c, den));
    });
  };
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  // Latency percentiles per case (every case has hundreds of commits), then
  // the median over cases; all rounds have the same latencies.
  auto commit_quantile = [&](double q) {
    std::vector<double> v;
    for (const std::vector<double>& c : rounds[0].commit_ms) v.push_back(Quantile(c, q));
    return Median(std::move(v));
  };
  return {
      {"setup_s", CaseMedian(rounds, [](const Layers& c) { return Get(c, "setup_s"); }), "s"},
      {"run_cpu_s", MedianOf(rounds, [](const RoundResult& r) { return r.cpu_s; }), "s"},
      {"sim_txns_per_s", case_median("txns.completed", "sim.cpu_s"), "txn/s"},
      {"heap_bytes_per_txn",
       CaseMedian(rounds,
                  [](const Layers& c) {
                    return Ratio(Get(c, "heap_bytes"),
                                 Get(c, "txns.submitted") + Get(c, "txns.local_submitted"));
                  }),
       "B/txn"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
      {"commit_p50_ms", commit_quantile(0.50), "ms"},
      {"commit_p95_ms", commit_quantile(0.95), "ms"},
      {"commits_per_vs", case_median("txns.committed", "virtual_s"), "txn/vs"},
      {"msgs_per_commit", case_median("net.msgs", "txns.committed"), "msg/txn"},
      {"forced_writes_per_commit",
       CaseMedian(rounds,
                  [](const Layers& c) {
                    return Ratio(Get(c, "agent.forced_writes") + Get(c, "coord.forced_writes") +
                                     Get(c, "paxos.forced_writes"),
                                 Get(c, "txns.committed"));
                  }),
       "write/txn"},
  };
}

// Per-layer figures of the traced rounds (medians over rounds), the tracer's
// emit cost (median over rounds of the simulation CPU with the tracer minus
// that without it, each pair run back to back on the same cases) and the
// spans' own overhead against rounds without spans.
std::vector<Metric> PerLayer(const std::vector<RoundResult>& traced,
                             const std::vector<RoundResult>& plain,
                             const std::vector<RoundResult>& untraced) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"sim.cpu_s", "s"},
      {"sim.events", "count"},
      {"net.msgs", "count"},
      {"net.msgs_dropped", "count"},
      {"net.msgs_duplicated", "count"},
      {"net.retransmits", "count"},
      {"ltm.commands", "count"},
      {"ltm.lock_timeout_aborts", "count"},
      {"ltm.unilateral_aborts", "count"},
      {"ltm.dlu_waits", "count"},
      {"agent.resubmissions", "count"},
      {"agent.alive_checks", "count"},
      {"agent.forced_writes", "count"},
      {"agent.log_records", "count"},
      {"cert.refusals", "count"},
      {"cert.commit_retries", "count"},
      {"coord.forced_writes", "count"},
      {"coord.log_records", "count"},
      {"coord.inquiries", "count"},
      {"paxos.forced_writes", "count"},
      {"paxos.resolutions", "count"},
      {"paxos.log_records", "count"},
      {"history.ops", "count"},
      {"history.projection_s", "s"},
      {"history.commit_graph_s", "s"},
      {"history.replay_s", "s"},
      {"history.order_invariant_s", "s"},
      {"history.atomicity_s", "s"},
      {"history.view_s", "s"},
      {"trace.events", "count"},
      {"trace.span_forest_s", "s"},
      {"trace.critical_path_s", "s"},
      {"trace.encode_s", "s"},
      {"trace.parse_s", "s"},
      {"trace.bytes", "B"},
      {"setup.rows_loaded", "count"},
      {"setup.load_s", "s"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayers) {
    const std::string n = name;
    out.push_back({n, MedianOf(traced, [&](const RoundResult& r) { return Get(r.layers, n); }),
                   unit});
  }
  const Layers& L = traced[0].layers;
  auto sim_of = [](const RoundResult& r) { return Get(r.layers, "sim.cpu_s"); };
  out.push_back({"sim.events_per_txn", Ratio(Get(L, "sim.events"), Get(L, "txns.submitted")),
                 "event/txn"});
  out.push_back({"sim.ns_per_event",
                 Ratio(MedianOf(traced, sim_of) * 1e9, Get(L, "sim.events")), "ns"});
  std::vector<double> emit;
  for (size_t i = 0; i < untraced.size(); ++i) {
    emit.push_back(sim_of(plain[i]) - sim_of(untraced[i]));
  }
  out.push_back({"trace.emit_cpu_s", Median(std::move(emit)), "s"});
  auto cpu_of = [](const RoundResult& r) { return r.cpu_s; };
  out.push_back({"bench.span_overhead_pct",
                 100.0 * (Ratio(MedianOf(traced, cpu_of), MedianOf(plain, cpu_of)) - 1.0), "%"});
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  uint64_t seed = 0;
  double seconds = -1;
  int trace_mode = -1;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = i + 1 < argc ? argv[i + 1] : "";
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace_mode = std::atoi(value.c_str());
    else if (flag == "--spans-out") spans_out = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  std::vector<CaseSpec> cases;
  if (workload == "paper-oracle") cases = PaperOracle(seed);
  else if (workload == "wide-sim") cases = WideSim(seed);
  else if (workload == "paxos-chaos") cases = PaxosChaos(seed);
  if (cases.empty() || seconds <= 0 || (trace_mode != 0 && trace_mode != 1)) {
    std::fprintf(stderr,
                 "usage: hermes_bench --workload paper-oracle|wide-sim|"
                 "paxos-chaos --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE]\n");
    return 2;
  }

  std::vector<std::string> problems;
  if (std::string e = LedgerSelfTest(); !e.empty()) {
    problems.push_back("ledger self-test: " + e);
  }
  bool any_traced = false;
  for (const CaseSpec& c : cases) any_traced = any_traced || c.trace;

  // Whole rounds until the wall-clock budget is spent. In trace mode each
  // round is run with spans, without spans, and (when the workload traces)
  // with the program's tracer off.
  SpanLog spans(trace_mode == 1);
  SpanLog no_spans(false);
  std::vector<RoundResult> rounds, plain, untraced;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  while (rounds.empty() || elapsed() < seconds) {
    rounds.push_back(RunRound(cases, spans, true));
    if (trace_mode == 1) {
      plain.push_back(RunRound(cases, no_spans, true));
      if (any_traced) untraced.push_back(RunRound(cases, no_spans, false));
    }
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }
  for (const std::string& f : rounds[0].failures) {
    std::fprintf(stderr, "failed operation: %s\n", f.c_str());
  }
  if (std::string e = FirstDivergence(rounds); !e.empty()) problems.push_back(e);
  problems.insert(problems.end(), rounds[0].problems.begin(), rounds[0].problems.end());
  for (const std::string& p : problems) std::fprintf(stderr, "error: %s\n", p.c_str());

  const std::vector<Metric> metrics =
      trace_mode == 1 ? PerLayer(rounds, plain, untraced) : EndToEnd(rounds);
  if (!spans_out.empty() && spans.on() && !spans.Write(spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: %zu round(s), %lld operations per round\n",
               workload.c_str(), rounds.size(),
               static_cast<long long>(rounds[0].attempted));
  std::string json = std::string("{\"correct\": ") +
                     (problems.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace hermes::perfbench

int main(int argc, char** argv) { return hermes::perfbench::Main(argc, argv); }
