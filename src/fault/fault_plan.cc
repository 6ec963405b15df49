#include "fault/fault_plan.h"

#include <algorithm>

#include "common/json.h"
#include "common/rng.h"
#include "common/str.h"

namespace hermes::fault {

namespace {

constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kCrashSite, FaultKind::kRecoverSite, FaultKind::kPartition,
    FaultKind::kHeal,      FaultKind::kLossBurst,   FaultKind::kAddSite,
    FaultKind::kRemoveSite, FaultKind::kReplaceSite};

constexpr TriggerKind kAllTriggerKinds[] = {TriggerKind::kAtTime,
                                            TriggerKind::kOnPrepared};

// loss_prob is encoded in permille so the fault-plan JSON stays
// integer-only (docs/FORMATS.md §3).
int64_t ToPermille(double p) {
  return static_cast<int64_t>(p * 1000.0 + (p >= 0 ? 0.5 : -0.5));
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashSite:
      return "crash_site";
    case FaultKind::kRecoverSite:
      return "recover_site";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kLossBurst:
      return "loss_burst";
    case FaultKind::kAddSite:
      return "add_site";
    case FaultKind::kRemoveSite:
      return "remove_site";
    case FaultKind::kReplaceSite:
      return "replace_site";
  }
  return "?";
}

const char* TriggerKindName(TriggerKind kind) {
  switch (kind) {
    case TriggerKind::kAtTime:
      return "at_time";
    case TriggerKind::kOnPrepared:
      return "on_prepared";
  }
  return "?";
}

std::string FaultEvent::ToJson() const {
  std::string out = "{";
  StrAppend(out, "\"kind\":\"", FaultKindName(kind), "\"");
  StrAppend(out, ",\"trigger\":\"", TriggerKindName(trigger), "\"");
  if (trigger == TriggerKind::kAtTime) {
    StrAppend(out, ",\"at\":", at);
  } else {
    StrAppend(out, ",\"watch_site\":", watch_site, ",\"nth\":", nth);
  }
  if (site != kInvalidSite) StrAppend(out, ",\"site\":", site);
  if (peer != kInvalidSite) StrAppend(out, ",\"peer\":", peer);
  if (duration != 0) StrAppend(out, ",\"duration\":", duration);
  if (kind == FaultKind::kLossBurst) {
    StrAppend(out, ",\"loss_permille\":", ToPermille(loss_prob));
  }
  out += "}";
  return out;
}

std::string FaultPlan::ToJsonl() const {
  std::string out;
  for (const FaultEvent& ev : events) {
    out += ev.ToJson();
    out += '\n';
  }
  return out;
}

namespace {

// Appends the fault event on one JSONL line to `out`.
bool ReadFaultEvent(JsonReader& r, std::vector<FaultEvent>& out) {
  FaultEvent ev;
  const bool ok = r.FlatObject([&](std::string_view key) {
    if (key == "kind") {
      return r.Name(kAllFaultKinds, FaultKindName, "fault kind", ev.kind);
    }
    if (key == "trigger") {
      return r.Name(kAllTriggerKinds, TriggerKindName, "trigger kind",
                    ev.trigger);
    }
    if (key == "at") return r.Int64(ev.at);
    if (key == "watch_site") return r.Int32(ev.watch_site);
    if (key == "nth") return r.Int32(ev.nth);
    if (key == "site") return r.Int32(ev.site);
    if (key == "peer") return r.Int32(ev.peer);
    if (key == "duration") return r.Int64(ev.duration);
    if (key == "loss_permille") {
      int64_t permille = 0;
      if (!r.Int64(permille)) return false;
      ev.loss_prob = static_cast<double>(permille) / 1000.0;
      return true;
    }
    return r.Fail(StrCat("unknown key: ", key));
  });
  if (ok) out.push_back(ev);
  return ok;
}

}  // namespace

Result<FaultPlan> ParseFaultPlan(const std::string& text) {
  FaultPlan plan;
  const Status s = ReadJsonl(text, "fault plan", [&](JsonReader& r) {
    return ReadFaultEvent(r, plan.events);
  });
  if (!s.ok()) return s;
  return plan;
}

FaultPlan GenerateChaosPlan(uint64_t seed, const ChaosOptions& opts) {
  FaultPlan plan;
  Rng rng(seed);
  const int sites = std::max(opts.num_sites, 1);
  const auto draw_time = [&]() -> sim::Time {
    return opts.horizon > 0
               ? static_cast<sim::Time>(
                     rng.NextUint64(static_cast<uint64_t>(opts.horizon)))
               : 0;
  };
  const auto draw_downtime = [&]() -> sim::Duration {
    if (opts.max_downtime <= opts.min_downtime) return opts.min_downtime;
    return rng.NextInt(opts.min_downtime, opts.max_downtime);
  };
  const auto draw_pair = [&](SiteId& a, SiteId& b) {
    a = static_cast<SiteId>(rng.NextUint64(static_cast<uint64_t>(sites)));
    b = static_cast<SiteId>(
        rng.NextUint64(static_cast<uint64_t>(std::max(sites - 1, 1))));
    if (b >= a) ++b;
    if (sites < 2) b = a;
  };

  for (int i = 0; i < opts.crashes; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kCrashSite;
    ev.site = static_cast<SiteId>(
        rng.NextUint64(static_cast<uint64_t>(sites)));
    ev.duration = draw_downtime();
    if (rng.NextBool(opts.triggered_fraction)) {
      ev.trigger = TriggerKind::kOnPrepared;
      ev.watch_site = ev.site;
      ev.nth = static_cast<int32_t>(1 + rng.NextUint64(3));
    } else {
      ev.trigger = TriggerKind::kAtTime;
      ev.at = draw_time();
    }
    plan.events.push_back(ev);
  }
  for (int i = 0; i < opts.partitions && sites >= 2; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kPartition;
    ev.trigger = TriggerKind::kAtTime;
    ev.at = draw_time();
    draw_pair(ev.site, ev.peer);
    ev.duration = draw_downtime();
    plan.events.push_back(ev);
  }
  for (int i = 0; i < opts.loss_bursts && sites >= 2; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kLossBurst;
    ev.trigger = TriggerKind::kAtTime;
    ev.at = draw_time();
    draw_pair(ev.site, ev.peer);
    ev.duration = draw_downtime();
    ev.loss_prob = 0.3 + 0.7 * rng.NextDouble();
    plan.events.push_back(ev);
  }
  // Membership churn last, so plans without it (reconfigs == 0) consume
  // exactly the historical number of randoms.
  for (int i = 0; i < opts.reconfigs; ++i) {
    FaultEvent ev;
    const uint64_t pick = rng.NextUint64(3);
    ev.kind = pick == 0   ? FaultKind::kAddSite
              : pick == 1 ? FaultKind::kRemoveSite
                          : FaultKind::kReplaceSite;
    ev.trigger = TriggerKind::kAtTime;
    ev.at = draw_time();
    if (ev.kind != FaultKind::kAddSite) {
      const SiteId lo = std::min<SiteId>(std::max<SiteId>(
          opts.reconfig_min_site, 0), static_cast<SiteId>(sites - 1));
      ev.site = lo + static_cast<SiteId>(rng.NextUint64(
          static_cast<uint64_t>(std::max(sites - lo, 1))));
    }
    plan.events.push_back(ev);
  }
  // Deterministic, readable order: timed events by firing time, triggered
  // ones after (stable within each class).
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     const bool at_a = a.trigger == TriggerKind::kAtTime;
                     const bool at_b = b.trigger == TriggerKind::kAtTime;
                     if (at_a != at_b) return at_a;
                     return at_a && a.at < b.at;
                   });
  return plan;
}

}  // namespace hermes::fault
