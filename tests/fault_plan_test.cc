// Fault-plan tests: JSONL round-trip, strict parsing, seeded chaos
// generation, and the injector wiring a plan into a live Mdbs.

#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include "core/mdbs.h"
#include "fault/injector.h"

namespace hermes::fault {
namespace {

FaultPlan SamplePlan() {
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrashSite;
  crash.at = 30 * sim::kMillisecond;
  crash.site = 1;
  crash.duration = 400 * sim::kMillisecond;
  plan.events.push_back(crash);

  FaultEvent triggered;
  triggered.kind = FaultKind::kCrashSite;
  triggered.trigger = TriggerKind::kOnPrepared;
  triggered.watch_site = 2;
  triggered.nth = 3;
  triggered.site = 2;
  triggered.duration = -1;
  plan.events.push_back(triggered);

  FaultEvent part;
  part.kind = FaultKind::kPartition;
  part.at = 100 * sim::kMillisecond;
  part.site = 0;
  part.peer = 1;
  part.duration = 200 * sim::kMillisecond;
  plan.events.push_back(part);

  FaultEvent burst;
  burst.kind = FaultKind::kLossBurst;
  burst.at = 150 * sim::kMillisecond;
  burst.site = 1;
  burst.peer = 2;
  burst.duration = 50 * sim::kMillisecond;
  burst.loss_prob = 0.25;  // permille-exact so the round trip is identical
  plan.events.push_back(burst);

  FaultEvent recover;
  recover.kind = FaultKind::kRecoverSite;
  recover.at = 900 * sim::kMillisecond;
  recover.site = 2;
  plan.events.push_back(recover);
  return plan;
}

TEST(FaultPlanJson, RoundTripsThroughJsonl) {
  const FaultPlan plan = SamplePlan();
  const std::string jsonl = plan.ToJsonl();
  const auto parsed = ParseFaultPlan(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, plan);
  // Serialization is a fixed point.
  EXPECT_EQ(parsed->ToJsonl(), jsonl);
}

TEST(FaultPlanJson, BlankLinesAreSkipped) {
  const FaultPlan plan = SamplePlan();
  const auto parsed = ParseFaultPlan("\n" + plan.ToJsonl() + "\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, plan);
}

TEST(FaultPlanJson, RejectsUnknownKeysAndGarbage) {
  EXPECT_FALSE(
      ParseFaultPlan(R"({"kind":"crash_site","trigger":"at_time","at":1,"frobnicate":2})")
          .ok());
  EXPECT_FALSE(ParseFaultPlan(R"({"kind":"meteor_strike","trigger":"at_time"})")
                   .ok());
  EXPECT_FALSE(ParseFaultPlan(R"({"kind":"crash_site","trigger":"at_dawn"})")
                   .ok());
  EXPECT_FALSE(ParseFaultPlan("not json at all").ok());
  EXPECT_FALSE(
      ParseFaultPlan(R"({"kind":"crash_site","trigger":"at_time","at":1} junk)")
          .ok());
  EXPECT_FALSE(ParseFaultPlan("{} junk").ok());
  EXPECT_FALSE(
      ParseFaultPlan(R"({"kind":"crash_site","trigger":"at_time","site":4294967298})")
          .ok());
}

TEST(ChaosGenerator, SameSeedSamePlan) {
  ChaosOptions opts;
  opts.num_sites = 4;
  const FaultPlan a = GenerateChaosPlan(42, opts);
  const FaultPlan b = GenerateChaosPlan(42, opts);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.events.size(),
            static_cast<size_t>(opts.crashes + opts.partitions +
                                opts.loss_bursts));

  // Different seeds diverge (over a handful of seeds at least one plan
  // must differ — the draw space is far larger than 5 plans).
  bool any_different = false;
  for (uint64_t seed = 43; seed < 48; ++seed) {
    if (!(GenerateChaosPlan(seed, opts) == a)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(ChaosGenerator, PlansAreWellFormedAcrossSeeds) {
  ChaosOptions opts;
  opts.num_sites = 3;
  opts.crashes = 4;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const FaultPlan plan = GenerateChaosPlan(seed, opts);
    for (const FaultEvent& ev : plan.events) {
      EXPECT_GE(ev.site, 0);
      EXPECT_LT(ev.site, opts.num_sites);
      if (ev.kind == FaultKind::kPartition ||
          ev.kind == FaultKind::kLossBurst) {
        ASSERT_NE(ev.peer, kInvalidSite);
        EXPECT_NE(ev.peer, ev.site);
        EXPECT_LT(ev.peer, opts.num_sites);
      }
      if (ev.trigger == TriggerKind::kAtTime) {
        EXPECT_GE(ev.at, 0);
        EXPECT_LT(ev.at, opts.horizon);
      } else {
        EXPECT_EQ(ev.watch_site, ev.site);
        EXPECT_GE(ev.nth, 1);
      }
      if (ev.kind == FaultKind::kCrashSite) {
        EXPECT_GE(ev.duration, opts.min_downtime);
        EXPECT_LE(ev.duration, opts.max_downtime);
      }
      if (ev.kind == FaultKind::kLossBurst) {
        EXPECT_GE(ev.loss_prob, 0.3);
        EXPECT_LE(ev.loss_prob, 1.0);
      }
    }
    // Round-trip safety for generated plans: parse(ToJsonl) re-serializes
    // byte-identically (loss is rounded to permille exactly once).
    const auto parsed = ParseFaultPlan(plan.ToJsonl());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->ToJsonl(), plan.ToJsonl());
  }
}

TEST(FaultPlanJson, ReconfigKindsRoundTrip) {
  FaultPlan plan;
  FaultEvent add;
  add.kind = FaultKind::kAddSite;
  add.at = 50 * sim::kMillisecond;
  plan.events.push_back(add);
  FaultEvent remove;
  remove.kind = FaultKind::kRemoveSite;
  remove.at = 100 * sim::kMillisecond;
  remove.site = 2;
  plan.events.push_back(remove);
  FaultEvent replace;
  replace.kind = FaultKind::kReplaceSite;
  replace.at = 150 * sim::kMillisecond;
  replace.site = 1;
  plan.events.push_back(replace);

  const std::string jsonl = plan.ToJsonl();
  EXPECT_NE(jsonl.find("\"add_site\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"remove_site\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"replace_site\""), std::string::npos);
  const auto parsed = ParseFaultPlan(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, plan);
  EXPECT_EQ(parsed->ToJsonl(), jsonl);
}

TEST(ChaosGenerator, ReconfigEventsAreDeterministicAndInRange) {
  ChaosOptions opts;
  opts.num_sites = 4;
  opts.reconfigs = 3;
  const FaultPlan a = GenerateChaosPlan(7, opts);
  EXPECT_EQ(a, GenerateChaosPlan(7, opts));
  int reconfig_events = 0;
  for (const FaultEvent& ev : a.events) {
    if (ev.kind != FaultKind::kAddSite &&
        ev.kind != FaultKind::kRemoveSite &&
        ev.kind != FaultKind::kReplaceSite) {
      continue;
    }
    ++reconfig_events;
    EXPECT_EQ(ev.trigger, TriggerKind::kAtTime);
    if (ev.kind != FaultKind::kAddSite) {
      // Targets spare the scripted-coordinator site 0 by default.
      EXPECT_GE(ev.site, opts.reconfig_min_site);
      EXPECT_LT(ev.site, opts.num_sites);
    }
  }
  EXPECT_EQ(reconfig_events, opts.reconfigs);
  const auto parsed = ParseFaultPlan(a.ToJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToJsonl(), a.ToJsonl());
}

TEST(ChaosGenerator, ReconfigDrawsDoNotDisturbExistingEvents) {
  // The membership draws are appended after every legacy draw, so turning
  // them on must reproduce the exact same crash/partition/burst events.
  ChaosOptions base;
  base.num_sites = 4;
  ChaosOptions churny = base;
  churny.reconfigs = 2;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const FaultPlan without = GenerateChaosPlan(seed, base);
    FaultPlan with = GenerateChaosPlan(seed, churny);
    std::vector<FaultEvent> legacy;
    for (const FaultEvent& ev : with.events) {
      if (ev.kind == FaultKind::kAddSite ||
          ev.kind == FaultKind::kRemoveSite ||
          ev.kind == FaultKind::kReplaceSite) {
        continue;
      }
      legacy.push_back(ev);
    }
    ASSERT_EQ(legacy.size(), without.events.size());
    for (const FaultEvent& ev : without.events) {
      EXPECT_NE(std::find(legacy.begin(), legacy.end(), ev), legacy.end());
    }
  }
}

TEST(FaultInjector, ReconfigEventDrivesALiveReconfiguration) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  config.num_shards = 8;
  config.max_sites = 3;
  core::Mdbs mdbs(config, &loop);

  FaultPlan plan;
  FaultEvent ev;
  ev.kind = FaultKind::kAddSite;
  ev.at = 10 * sim::kMillisecond;
  plan.events.push_back(ev);
  InstallFaultPlan(plan, &mdbs);
  loop.Run();

  EXPECT_EQ(mdbs.num_sites(), 3);
  EXPECT_EQ(mdbs.metrics().reconfig_completed, 1);
  EXPECT_FALSE(mdbs.directory()->Current().ShardsOf(2).empty());
}

TEST(FaultInjector, ReconfigEventIsBestEffortWithoutSharding) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;  // unsharded: the event must be silently dropped
  core::Mdbs mdbs(config, &loop);

  FaultPlan plan;
  FaultEvent ev;
  ev.kind = FaultKind::kRemoveSite;
  ev.at = 5 * sim::kMillisecond;
  ev.site = 1;
  plan.events.push_back(ev);
  InstallFaultPlan(plan, &mdbs);
  loop.Run();

  EXPECT_EQ(mdbs.num_sites(), 2);
  EXPECT_FALSE(mdbs.SiteRemoved(1));
  EXPECT_EQ(mdbs.metrics().reconfig_started, 0);
}

TEST(FaultInjector, TimedCrashAndRecoveryFire) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  core::Mdbs mdbs(config, &loop);

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrashSite;
  crash.at = 10 * sim::kMillisecond;
  crash.site = 1;
  crash.duration = -1;  // down until the explicit recover below
  plan.events.push_back(crash);
  FaultEvent recover;
  recover.kind = FaultKind::kRecoverSite;
  recover.at = 40 * sim::kMillisecond;
  recover.site = 1;
  plan.events.push_back(recover);
  InstallFaultPlan(plan, &mdbs);

  loop.RunUntil(20 * sim::kMillisecond);
  EXPECT_FALSE(mdbs.SiteUp(1));
  EXPECT_TRUE(mdbs.SiteUp(0));
  loop.Run();
  EXPECT_TRUE(mdbs.SiteUp(1));
  EXPECT_EQ(mdbs.metrics().coordinator_crashes, 1);
}

TEST(FaultInjector, OnPreparedTriggerCrashesAfterNthPrepare) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  core::Mdbs mdbs(config, &loop);
  const db::TableId table = *mdbs.CreateTableEverywhere("t");
  for (int64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(
        mdbs.LoadRow(1, table, k, db::Row{{"v", db::Value(int64_t{0})}})
            .ok());
  }
  loop.set_max_events(10'000'000);

  FaultPlan plan;
  FaultEvent ev;
  ev.kind = FaultKind::kCrashSite;
  ev.trigger = TriggerKind::kOnPrepared;
  ev.watch_site = 1;
  ev.nth = 2;
  ev.site = 1;
  ev.duration = 20 * sim::kMillisecond;
  plan.events.push_back(ev);
  InstallFaultPlan(plan, &mdbs);

  // Two sequential transactions against site 1, coordinated from site 0:
  // the first prepares and commits untouched; the second's prepare pulls
  // the trigger.
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    core::GlobalTxnSpec spec;
    spec.steps.push_back(
        {1, db::MakeAddKey(table, i, "v", int64_t{1}), {}});
    loop.ScheduleAt(i * 20 * sim::kMillisecond, [&mdbs, &done, spec]() {
      mdbs.Submit(spec, [&done](const core::GlobalTxnResult&) { ++done; },
                  /*coordinator_site=*/0);
    });
  }
  loop.Run();

  EXPECT_EQ(done, 2);
  EXPECT_EQ(mdbs.metrics().coordinator_crashes, 1);
  EXPECT_TRUE(mdbs.SiteUp(1));  // downtime elapsed inside the run
  // The first transaction committed before the trigger fired.
  EXPECT_GE(mdbs.metrics().global_committed, 1);
}

}  // namespace
}  // namespace hermes::fault
