#include "runner/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "common/str.h"
#include "history/view_checker.h"
#include "trace/trace.h"

namespace hermes::runner {

void Stat::Add(double v) {
  if (count == 0 || v < min) min = v;
  if (count == 0 || v > max) max = v;
  sum += v;
  ++count;
}

void Stat::Merge(const Stat& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  count += other.count;
}

void CellAggregate::Add(const std::string& name, double value) {
  for (auto& [n, stat] : stats) {
    if (n == name) {
      stat.Add(value);
      return;
    }
  }
  stats.emplace_back(name, Stat{});
  stats.back().second.Add(value);
}

void CellAggregate::AddRun(uint64_t seed, const workload::RunResult& r) {
  seeds.push_back(seed);
  const core::Metrics& m = r.metrics;
  Add("committed", static_cast<double>(m.global_committed));
  Add("aborted", static_cast<double>(m.global_aborted));
  Add("aborted_cert", static_cast<double>(m.global_aborted_cert));
  Add("aborted_dml", static_cast<double>(m.global_aborted_dml));
  Add("aborted_timeout", static_cast<double>(m.global_aborted_timeout));
  Add("resubmissions", static_cast<double>(m.resubmissions));
  Add("resubmission_failures",
      static_cast<double>(m.resubmission_failures));
  Add("refuse_interval", static_cast<double>(m.refuse_interval));
  Add("refuse_extension", static_cast<double>(m.refuse_extension));
  Add("refuse_dead", static_cast<double>(m.refuse_dead));
  Add("refuse_snapshot", static_cast<double>(m.refuse_snapshot));
  Add("commit_cert_retries", static_cast<double>(m.commit_cert_retries));
  Add("short_commits_1pc", static_cast<double>(m.short_commits_1pc));
  Add("short_commits_readonly",
      static_cast<double>(m.short_commits_readonly));
  Add("csn_assigned", static_cast<double>(m.csn_assigned));
  Add("single_site_committed",
      static_cast<double>(m.single_site_committed));
  Add("single_site_lat_total_us",
      static_cast<double>(m.single_site_latency_total));
  Add("retransmits", static_cast<double>(m.retransmits));
  Add("dup_absorbed", static_cast<double>(m.dup_msgs_absorbed));
  Add("aborted_crash", static_cast<double>(m.global_aborted_crash));
  Add("coordinator_crashes", static_cast<double>(m.coordinator_crashes));
  Add("redelivered_decisions",
      static_cast<double>(m.coordinator_redelivered_decisions));
  Add("inquiries", static_cast<double>(m.inquiries_sent));
  Add("inquiries_presumed_abort",
      static_cast<double>(m.inquiries_answered_presumed_abort));
  Add("local_committed", static_cast<double>(m.local_committed));
  Add("local_aborted", static_cast<double>(m.local_aborted));
  Add("paxos_forced_writes", static_cast<double>(m.paxos_forced_writes));
  Add("paxos_votes_accepted", static_cast<double>(m.paxos_votes_accepted));
  Add("paxos_resolutions", static_cast<double>(m.paxos_resolutions));
  Add("paxos_elections", static_cast<double>(m.paxos_elections));
  Add("paxos_decided_fast", static_cast<double>(m.paxos_decided_fast));
  Add("paxos_decided_resolved",
      static_cast<double>(m.paxos_decided_resolved));
  Add("epoch_refusals", static_cast<double>(m.epoch_refusals));
  Add("epoch_map_refreshes", static_cast<double>(m.epoch_map_refreshes));
  Add("reconfig_started", static_cast<double>(m.reconfig_started));
  Add("reconfig_completed", static_cast<double>(m.reconfig_completed));
  Add("reconfig_rows_moved", static_cast<double>(m.reconfig_rows_moved));
  Add("reconfig_residue_adopted",
      static_cast<double>(m.reconfig_residue_adopted));
  Add("reconfig_forced_aborts",
      static_cast<double>(m.reconfig_forced_aborts));
  Add("commits_stale_epoch", static_cast<double>(m.commits_stale_epoch));
  Add("trace_emitted", static_cast<double>(m.trace_events_emitted));
  Add("trace_dropped", static_cast<double>(m.trace_events_dropped));
  Add("trace_sampled_out", static_cast<double>(m.trace_sampled_out));
  Add("messages", static_cast<double>(r.messages));
  Add("dropped", static_cast<double>(r.msgs_dropped));
  Add("duplicated", static_cast<double>(r.msgs_duplicated));
  Add("reordered", static_cast<double>(r.msgs_reordered));
  Add("events", static_cast<double>(r.events));
  Add("end_time_ms", static_cast<double>(r.end_time) / 1000.0);
  Add("tput", r.CommitsPerSecond());
  Add("mean_lat_ms", m.MeanLatencyMs());
  const bool violated =
      r.history_checked &&
      (!r.replay_consistent || !r.order_invariant_ok ||
       !r.commit_graph_acyclic || !r.atomicity_ok ||
       r.verdict == history::Verdict::kNotSerializable);
  Add("violations", violated ? 1.0 : 0.0);
  // Counted, not gated: the oracle could neither certify nor refute.
  Add("oracle_unknown",
      r.history_checked && r.verdict == history::Verdict::kUnknown ? 1.0
                                                                   : 0.0);
  latency.Merge(m.latency_hist);
  series.Merge(r.series);
}

const Stat* CellAggregate::FindStat(const std::string& name) const {
  for (const auto& [n, stat] : stats) {
    if (n == name) return &stat;
  }
  return nullptr;
}

double CellAggregate::Mean(const std::string& name) const {
  const Stat* s = FindStat(name);
  return s == nullptr ? 0.0 : s->mean();
}

double CellAggregate::Sum(const std::string& name) const {
  const Stat* s = FindStat(name);
  return s == nullptr ? 0.0 : s->sum;
}

CellAggregate& Aggregator::Cell(const std::string& name) {
  for (CellAggregate& c : cells_) {
    if (c.cell == name) return c;
  }
  cells_.emplace_back();
  cells_.back().cell = name;
  return cells_.back();
}

void Aggregator::AddRun(const std::string& cell, uint64_t seed,
                        const workload::RunResult& r) {
  Cell(cell).AddRun(seed, r);
}

void AppendJsonDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

namespace {

void AppendStatEntry(std::string& out, const std::string& name,
                     const Stat& s, bool last) {
  out += "        ";
  AppendJsonString(out, name);
  StrAppend(out, ": {\"count\": ", s.count, ", \"sum\": ");
  AppendJsonDouble(out, s.sum);
  out += ", \"mean\": ";
  AppendJsonDouble(out, s.mean());
  out += ", \"min\": ";
  AppendJsonDouble(out, s.min);
  out += ", \"max\": ";
  AppendJsonDouble(out, s.max);
  out += last ? "}\n" : "},\n";
}

void AppendCell(std::string& out, const CellAggregate& cell) {
  out += "    {\n      \"cell\": ";
  AppendJsonString(out, cell.cell);
  StrAppend(out, ",\n      \"runs\": ", cell.seeds.size(),
            ",\n      \"seeds\": [");
  for (size_t i = 0; i < cell.seeds.size(); ++i) {
    if (i > 0) out += ", ";
    StrAppend(out, cell.seeds[i]);
  }
  out += "],\n      \"stats\": {\n";
  for (size_t i = 0; i < cell.stats.size(); ++i) {
    AppendStatEntry(out, cell.stats[i].first, cell.stats[i].second,
                    i + 1 == cell.stats.size());
  }
  out += "      },\n      \"latency_us\": {";
  const trace::Histogram& h = cell.latency;
  StrAppend(out, "\"count\": ", h.count(), ", \"min\": ", h.min(),
            ", \"max\": ", h.max(), ", \"p50\": ", h.Percentile(50),
            ", \"p95\": ", h.Percentile(95),
            ", \"p99\": ", h.Percentile(99), ", \"buckets\": [");
  bool first = true;
  for (int b = 0; b < trace::Histogram::kBuckets; ++b) {
    if (h.bucket(b) == 0) continue;
    if (!first) out += ", ";
    first = false;
    StrAppend(out, "[", b, ", ", h.bucket(b), "]");
  }
  out += "]}";
  // Optional key: only traced cells carry a series, and old artifacts
  // without one still parse (and re-encode byte-identically).
  if (!cell.series.empty()) {
    StrAppend(out, ",\n      \"series\": {\"window_us\": ",
              cell.series.window_us, ", \"windows\": [");
    for (size_t w = 0; w < cell.series.windows.size(); ++w) {
      const trace::TimeSeries::Window& win = cell.series.windows[w];
      if (w > 0) out += ", ";
      StrAppend(out, "[", win.begun, ", ", win.committed, ", ", win.aborted,
                ", ", win.refusals, ", ", win.resubmissions, ", ",
                win.max_in_flight, ", ", win.max_prepared, "]");
    }
    out += "]}";
  }
  out += "\n    }";
}

}  // namespace

std::string EncodeBenchArtifact(const BenchArtifact& a) {
  std::string out = "{\n  \"schema_version\": ";
  StrAppend(out, a.schema_version);
  out += ",\n  \"bench\": ";
  AppendJsonString(out, a.bench);
  out += ",\n  \"config\": ";
  AppendJsonString(out, a.config);
  StrAppend(out, ",\n  \"seed\": ", a.seed, ",\n  \"workers\": ", a.workers,
            ",\n  \"headers\": [");
  for (size_t i = 0; i < a.headers.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(out, a.headers[i]);
  }
  out += "],\n  \"rows\": [";
  for (size_t r = 0; r < a.rows.size(); ++r) {
    out += r == 0 ? "\n    {" : ",\n    {";
    for (size_t i = 0; i < a.rows[r].size() && i < a.headers.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonString(out, a.headers[i]);
      out += ": ";
      AppendJsonString(out, a.rows[r][i]);
    }
    out += "}";
  }
  out += a.rows.empty() ? "],\n" : "\n  ],\n";
  out += "  \"cells\": [";
  for (size_t c = 0; c < a.cells.size(); ++c) {
    out += c == 0 ? "\n" : ",\n";
    AppendCell(out, a.cells[c]);
  }
  out += a.cells.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

namespace {

// The exact grammar EncodeBenchArtifact emits: whitespace-insensitive, but
// keys must appear in the canonical order and nothing else is accepted (so
// any unknown key is a parse error by construction). Derived fields (runs,
// mean, percentiles) are parsed and discarded; Encode recomputes them,
// which is what makes Encode(Parse(Encode(a))) byte-identical to Encode(a).

bool ParseStat(JsonReader& r, Stat& stat) {
  double mean = 0;  // derived: sum / count
  return r.Expect('{') && r.Key("count") && r.Int64(stat.count) &&
         r.Expect(',') && r.Key("sum") && r.Double(stat.sum) &&
         r.Expect(',') && r.Key("mean") && r.Double(mean) && r.Expect(',') &&
         r.Key("min") && r.Double(stat.min) && r.Expect(',') &&
         r.Key("max") && r.Double(stat.max) && r.Expect('}');
}

bool ParseLatency(JsonReader& r, CellAggregate& cell) {
  // count and the percentiles are derived from the buckets; min/max are
  // carried explicitly because buckets only bound them.
  int64_t count = 0, min = 0, max = 0, p = 0;
  std::array<int64_t, trace::Histogram::kBuckets> buckets{};
  const auto bucket = [&] {
    int64_t index = 0, n = 0;
    if (!r.Expect('[') || !r.Int64(index) || !r.Expect(',') || !r.Int64(n) ||
        !r.Expect(']')) {
      return false;
    }
    if (index < 0 || index >= trace::Histogram::kBuckets) {
      return r.Fail(StrCat("bucket index out of range: ", index));
    }
    buckets[static_cast<size_t>(index)] = n;
    return true;
  };
  if (!r.Expect('{') || !r.Key("count") || !r.Int64(count) ||
      !r.Expect(',') || !r.Key("min") || !r.Int64(min) || !r.Expect(',') ||
      !r.Key("max") || !r.Int64(max) || !r.Expect(',') || !r.Key("p50") ||
      !r.Int64(p) || !r.Expect(',') || !r.Key("p95") || !r.Int64(p) ||
      !r.Expect(',') || !r.Key("p99") || !r.Int64(p) || !r.Expect(',') ||
      !r.Key("buckets") || !r.Array(bucket) || !r.Expect('}')) {
    return false;
  }
  cell.latency = trace::Histogram::FromParts(buckets, min, max);
  return cell.latency.count() == count ||
         r.Fail("latency count does not match bucket sum");
}

bool ParseSeries(JsonReader& r, CellAggregate& cell) {
  trace::TimeSeries& series = cell.series;
  const auto window = [&] {
    trace::TimeSeries::Window& w = series.windows.emplace_back();
    return r.Expect('[') && r.Int64(w.begun) && r.Expect(',') &&
           r.Int64(w.committed) && r.Expect(',') && r.Int64(w.aborted) &&
           r.Expect(',') && r.Int64(w.refusals) && r.Expect(',') &&
           r.Int64(w.resubmissions) && r.Expect(',') &&
           r.Int64(w.max_in_flight) && r.Expect(',') &&
           r.Int64(w.max_prepared) && r.Expect(']');
  };
  if (!r.Expect('{') || !r.Key("window_us") || !r.Int64(series.window_us)) {
    return false;
  }
  if (series.window_us <= 0) return r.Fail("bad series window_us");
  // The encoder omits empty series entirely, so one window is the
  // grammar's minimum — and the empty-vs-absent ambiguity never arises.
  return r.Expect(',') && r.Key("windows") && r.Array(window) &&
         (!series.windows.empty() || r.Fail("empty series")) &&
         r.Expect('}');
}

bool ParseCell(JsonReader& r, CellAggregate& cell) {
  int64_t runs = 0;  // derived: seeds.size()
  const auto seed = [&] { return r.Uint64(cell.seeds.emplace_back()); };
  const auto stat = [&](std::string_view name) {
    if (cell.FindStat(std::string(name)) != nullptr) {
      return r.Fail(StrCat("duplicate stat: ", name));
    }
    cell.stats.emplace_back(std::string(name), Stat{});
    return ParseStat(r, cell.stats.back().second);
  };
  if (!r.Expect('{') || !r.Key("cell") || !r.String(cell.cell) ||
      !r.Expect(',') || !r.Key("runs") || !r.Int64(runs) || !r.Expect(',') ||
      !r.Key("seeds") || !r.Array(seed)) {
    return false;
  }
  if (runs != static_cast<int64_t>(cell.seeds.size())) {
    return r.Fail("runs does not match seeds length");
  }
  if (!r.Expect(',') || !r.Key("stats") || !r.Object(stat) ||
      !r.Expect(',') || !r.Key("latency_us") || !ParseLatency(r, cell)) {
    return false;
  }
  // Optional trailing series.
  if (r.Consume(',') && (!r.Key("series") || !ParseSeries(r, cell))) {
    return false;
  }
  return r.Expect('}');
}

bool ParseArtifact(JsonReader& r, BenchArtifact& out) {
  int64_t version = 0;
  if (!r.Expect('{') || !r.Key("schema_version") || !r.Int64(version)) {
    return false;
  }
  if (version != BenchArtifact::kSchemaVersion) {
    return r.Fail(StrCat("unsupported schema_version: ", version));
  }
  out.schema_version = static_cast<int>(version);
  const auto header = [&] { return r.String(out.headers.emplace_back()); };
  const auto row = [&] {
    std::vector<std::string>& values = out.rows.emplace_back();
    return r.Object([&](std::string_view key) {
      if (values.size() >= out.headers.size() ||
          key != out.headers[values.size()]) {
        return r.Fail(StrCat("row key out of header order: ", key));
      }
      return r.String(values.emplace_back());
    });
  };
  const auto cell = [&] { return ParseCell(r, out.cells.emplace_back()); };
  if (!r.Expect(',') || !r.Key("bench") || !r.String(out.bench) ||
      !r.Expect(',') || !r.Key("config") || !r.String(out.config) ||
      !r.Expect(',') || !r.Key("seed") || !r.Uint64(out.seed) ||
      !r.Expect(',') || !r.Key("workers") || !r.Int32(out.workers)) {
    return false;
  }
  return r.Expect(',') && r.Key("headers") && r.Array(header) &&
         r.Expect(',') && r.Key("rows") && r.Array(row) && r.Expect(',') &&
         r.Key("cells") && r.Array(cell) && r.Expect('}') && r.ExpectEnd();
}

}  // namespace

Result<BenchArtifact> ParseBenchArtifact(const std::string& json) {
  BenchArtifact out;
  JsonReader reader(json, "bench artifact");
  if (!ParseArtifact(reader, out)) return reader.status();
  return out;
}

bool WriteBenchArtifactFile(const BenchArtifact& artifact) {
  const std::string out = EncodeBenchArtifact(artifact);
  const std::string path = StrCat("BENCH_", artifact.bench, ".json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = std::fclose(f) == 0 && written == out.size();
  if (ok) std::printf("\nartifact: %s\n", path.c_str());
  return ok;
}

}  // namespace hermes::runner
