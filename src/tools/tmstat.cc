// tmstat — offline trace analysis for hermes runs.
//
// Reads a trace file — JSONL or the binary ring-buffer format, detected
// by the "HTRB" magic bytes (written by any benchmark/sweep via
// --trace-out, or by Tracer::WriteJsonl / WriteBinary) — and prints
// reports folded from the causal span pipeline: per-transaction
// timelines, the 2PC critical-path phase breakdown, prepared
// blocking-window statistics, certification refusal conflicts,
// resubmission chains and the windowed virtual-time series. Optionally
// exports the span forest as a Chrome/Perfetto trace (load the file at
// https://ui.perfetto.dev).
//
// Usage:
//   tmstat <trace.{jsonl,bin}>
//          [--report=summary|timeline|spans|critical-path|
//                    blocking|refusals|resubmissions|timeseries|all]
//          [--txn=G0.1] [--window-ms=N] [--perfetto=OUT.trace.json]
//
// Parsing is lenient: unknown event kinds, truncated trailing lines and
// binary files cut mid-record are skipped with a counted warning instead
// of aborting the report — but the exit code is then nonzero (1) and a
// recovery count is printed, so pipelines cannot mistake a partially-read
// trace for a complete one.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/str.h"
#include "trace/analyzer.h"
#include "trace/binary.h"
#include "trace/critical_path.h"
#include "trace/perfetto.h"
#include "trace/span.h"
#include "trace/timeseries.h"
#include "trace/trace.h"

namespace {

using namespace hermes;  // NOLINT: single-file CLI

int Usage() {
  std::fprintf(
      stderr,
      "usage: tmstat <trace.{jsonl,bin}> [--report=summary|timeline|spans|\n"
      "               critical-path|blocking|refusals|resubmissions|\n"
      "               timeseries|all]\n"
      "              [--txn=G0.1] [--window-ms=N]\n"
      "              [--perfetto=OUT.trace.json]\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && written == text.size();
}

void Section(const char* title) {
  std::printf("=== %s ===\n", title);
}

struct Options {
  std::string path;
  std::string report = "summary";
  std::string txn;
  std::string perfetto_out;
  int64_t window_ms = 100;
};

bool WantReport(const Options& opt, const char* name) {
  return opt.report == name || opt.report == "all";
}

void PrintTimeline(const Options& opt, const trace::TraceAnalyzer& analyzer,
                   const trace::SpanForest& forest,
                   const std::vector<trace::Event>& events) {
  Section("timeline");
  if (!opt.txn.empty()) {
    const Result<TxnId> id = trace::DecodeTxnId(opt.txn);
    if (!id.ok()) {
      std::printf("bad --txn value: %s\n", opt.txn.c_str());
      return;
    }
    std::printf("%s", analyzer.ReportTxn(*id).c_str());
    return;
  }
  // One line per global transaction (outcome and end-to-end latency), with
  // the run's membership-change markers interleaved at their virtual time.
  struct Line {
    sim::Time at;
    std::string text;
  };
  std::vector<Line> lines;
  for (int32_t root_id : forest.roots) {
    const trace::Span& root = forest.spans[static_cast<size_t>(root_id)];
    std::string line = StrCat(trace::EncodeTxnId(root.txn), " t=", root.begin);
    if (root.closed()) {
      StrAppend(line, " ", root.ok ? "COMMITTED" : "ABORTED", " latency=",
                root.length(), "us");
    } else {
      StrAppend(line, " UNFINISHED");
    }
    lines.push_back({root.begin, std::move(line)});
  }
  for (const trace::Event& e : events) {
    switch (e.kind) {
      case trace::EventKind::kReconfigBegin:
        lines.push_back(
            {e.at, StrCat("RECONFIG t=", e.at, " begin kind=", e.detail,
                          " site=", e.site, " successor=", e.peer,
                          " fence_epoch=", e.value)});
        break;
      case trace::EventKind::kReconfigHandoff:
        lines.push_back({e.at, StrCat("RECONFIG t=", e.at, " handoff ",
                                      e.site, " -> ", e.peer,
                                      " rows=", e.value)});
        break;
      case trace::EventKind::kReconfigDone:
        lines.push_back(
            {e.at, StrCat("RECONFIG t=", e.at, " done kind=", e.detail,
                          " site=", e.site, " epoch=", e.value)});
        break;
      case trace::EventKind::kEpochRefused:
        lines.push_back(
            {e.at, StrCat("EPOCH-REFUSED t=", e.at, " ",
                          trace::EncodeTxnId(e.txn), " at site=", e.site,
                          " sender=", e.peer, " msg=", e.detail,
                          " current_epoch=", e.value)});
        break;
      default:
        break;
    }
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.at < b.at; });
  for (const Line& l : lines) std::printf("%s\n", l.text.c_str());
}

void PrintSpans(const Options& opt, const trace::SpanForest& forest) {
  Section("spans");
  if (!opt.txn.empty()) {
    const Result<TxnId> id = trace::DecodeTxnId(opt.txn);
    if (!id.ok()) {
      std::printf("bad --txn value: %s\n", opt.txn.c_str());
      return;
    }
    const trace::Span* root = forest.Root(*id);
    if (root == nullptr) {
      std::printf("no spans for %s\n", opt.txn.c_str());
      return;
    }
    trace::SpanForest one;
    one.spans = forest.spans;
    one.trace_end = forest.trace_end;
    one.roots.push_back(root->id);
    std::printf("%s", one.ToString().c_str());
    return;
  }
  std::printf("%s", forest.ToString().c_str());
}

void PrintCriticalPath(const Options& opt,
                       const trace::CriticalPathReport& report) {
  Section("critical-path");
  std::printf("%s", report.ToString().c_str());
  if (!opt.txn.empty()) {
    const Result<TxnId> id = trace::DecodeTxnId(opt.txn);
    if (id.ok()) {
      const trace::TxnCriticalPath* cp = report.Find(*id);
      std::printf("%s\n", cp != nullptr
                              ? cp->ToString().c_str()
                              : StrCat("no finished transaction ", opt.txn)
                                    .c_str());
    }
  }
}

void PrintBlocking(const trace::SpanForest& forest,
                   const trace::CriticalPathReport& report) {
  Section("blocking");
  std::printf("%s\n", report.blocking.ToString().c_str());
  // The longest windows, worst first, with their probing activity.
  std::vector<const trace::Span*> windows;
  for (const trace::Span& s : forest.spans) {
    if (s.kind == trace::SpanKind::kBlocked && s.closed()) {
      windows.push_back(&s);
    }
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const trace::Span* a, const trace::Span* b) {
                     return a->length() > b->length();
                   });
  const size_t top = windows.size() < 10 ? windows.size() : 10;
  for (size_t i = 0; i < top; ++i) {
    const trace::Span& s = *windows[i];
    int64_t inquiries = 0;
    for (const trace::SpanNote& n : s.notes) {
      if (n.label.rfind("inquiry#", 0) == 0) ++inquiries;
    }
    std::printf("%s\n",
                StrCat("  ", trace::EncodeTxnId(s.txn), " site=", s.site,
                       " t=[", s.begin, "..", s.end, "] len=", s.length(),
                       "us -> ", s.ok ? "commit" : "abort",
                       " inquiries=", inquiries)
                    .c_str());
  }
}

void PrintRefusals(const trace::TraceAnalyzer& analyzer) {
  Section("refusals");
  if (analyzer.Refusals().empty()) {
    std::printf("no certification refusals\n");
    return;
  }
  for (const trace::Refusal& r : analyzer.Refusals()) {
    std::printf("%s\n", r.ToString().c_str());
  }
}

void PrintResubmissions(const trace::TraceAnalyzer& analyzer) {
  Section("resubmissions");
  if (analyzer.ResubmissionChains().empty()) {
    std::printf("no resubmission chains\n");
    return;
  }
  for (const trace::ResubmissionChain& c : analyzer.ResubmissionChains()) {
    std::printf("%s\n", c.ToString().c_str());
  }
}

void PrintTimeSeries(const Options& opt,
                     const std::vector<trace::Event>& events) {
  Section("timeseries");
  const trace::TimeSeries ts =
      trace::BuildTimeSeries(events, opt.window_ms * sim::kMillisecond);
  std::printf("%s", ts.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--report=", 0) == 0) {
      opt.report = arg.substr(9);
    } else if (arg.rfind("--txn=", 0) == 0) {
      opt.txn = arg.substr(6);
    } else if (arg.rfind("--window-ms=", 0) == 0) {
      opt.window_ms = std::atoll(arg.c_str() + 12);
      if (opt.window_ms <= 0) return Usage();
    } else if (arg.rfind("--perfetto=", 0) == 0) {
      opt.perfetto_out = arg.substr(11);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (opt.path.empty()) {
      opt.path = arg;
    } else {
      return Usage();
    }
  }
  if (opt.path.empty()) return Usage();

  std::string text;
  if (!ReadFile(opt.path, text)) {
    std::fprintf(stderr, "tmstat: cannot read %s\n", opt.path.c_str());
    return 1;
  }
  std::vector<trace::Event> events;
  bool partial = false;
  if (trace::IsBinaryTrace(text)) {
    trace::BinaryParse parsed = trace::ParseBinaryLenient(text);
    partial = parsed.truncated || parsed.skipped_records > 0;
    if (partial) {
      // One line with the whole-records-recovered count: fixed-width
      // records make the loss exact, and pipelines get exit code 1.
      std::fprintf(stderr,
                   "tmstat: damaged binary trace: %lld of %lld whole "
                   "record(s) recovered (%s) — reports reflect partial "
                   "data\n",
                   static_cast<long long>(parsed.events.size()),
                   static_cast<long long>(parsed.records_declared),
                   parsed.warnings.empty() ? "no detail"
                                           : parsed.warnings.front().c_str());
    }
    if (parsed.dropped > 0 || parsed.sampled_out > 0) {
      std::fprintf(stderr,
                   "tmstat: note: capture dropped %lld record(s) to ring "
                   "overflow, sampled out %lld\n",
                   static_cast<long long>(parsed.dropped),
                   static_cast<long long>(parsed.sampled_out));
    }
    events = std::move(parsed.events);
  } else {
    trace::LenientParse parsed = trace::ParseJsonlLenient(text);
    partial = parsed.skipped_lines > 0;
    if (partial) {
      // Per-line accounting: every non-blank input line either became an
      // event or was skipped; spell both counts out so the reports below
      // are unmistakably partial.
      std::fprintf(stderr,
                   "tmstat: %lld line(s) total: %lld parsed, %lld skipped — "
                   "reports reflect partial data\n",
                   static_cast<long long>(parsed.lines),
                   static_cast<long long>(parsed.events.size()),
                   static_cast<long long>(parsed.skipped_lines));
      for (const std::string& w : parsed.warnings) {
        std::fprintf(stderr, "tmstat:   %s\n", w.c_str());
      }
      if (parsed.skipped_lines >
          static_cast<int64_t>(parsed.warnings.size())) {
        std::fprintf(stderr,
                     "tmstat:   (further skip reasons suppressed)\n");
      }
    }
    events = std::move(parsed.events);
  }

  const trace::SpanForest forest = trace::BuildSpanForest(events);
  const trace::CriticalPathReport cp = trace::AnalyzeCriticalPath(forest);
  const trace::TraceAnalyzer analyzer(events);

  std::printf("trace: %s — %zu events, %zu global txns, trace_end=%lld us\n",
              opt.path.c_str(), events.size(), forest.roots.size(),
              static_cast<long long>(forest.trace_end));

  if (WantReport(opt, "summary")) {
    Section("summary");
    std::string summary = analyzer.Summary();
    if (summary.empty() || summary.back() != '\n') summary += '\n';
    std::printf("%s", summary.c_str());
  }
  if (opt.report == "timeline") {
    PrintTimeline(opt, analyzer, forest, events);
  }
  if (opt.report == "spans") PrintSpans(opt, forest);
  if (WantReport(opt, "critical-path")) PrintCriticalPath(opt, cp);
  if (WantReport(opt, "blocking")) PrintBlocking(forest, cp);
  if (WantReport(opt, "refusals")) PrintRefusals(analyzer);
  if (WantReport(opt, "resubmissions")) PrintResubmissions(analyzer);
  if (WantReport(opt, "timeseries")) PrintTimeSeries(opt, events);

  if (!opt.perfetto_out.empty()) {
    const std::string json = trace::ExportPerfetto(forest, events);
    if (!WriteFile(opt.perfetto_out, json)) {
      std::fprintf(stderr, "tmstat: cannot write %s\n",
                   opt.perfetto_out.c_str());
      return 1;
    }
    std::printf("perfetto trace written: %s\n", opt.perfetto_out.c_str());
  }
  // Partial input is a failure even though the reports were printed:
  // callers scripting tmstat must not trust stats folded from a trace
  // with unparseable lines or records.
  return partial ? 1 : 0;
}
