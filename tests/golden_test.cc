// Golden fingerprint corpus: committed 64-bit FNV-1a digests of
// runner::Fingerprint (every metric, verdict and the full trace export) over
// a small fixed grid. A refactor that claims "same behaviour" must leave
// every digest unchanged; an intended behaviour change regenerates them
// (the failure message prints the new value) and says why in CHANGES.md.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "runner/runner.h"
#include "trace/binary.h"
#include "trace/trace.h"

namespace hermes {
namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// One pinned run: its spec, its digest, and the trace kinds it must reach
// (so a case that silently stops exercising its emit sites fails even if
// someone regenerates the digest).
struct GoldenCase {
  runner::RunSpec spec;  // spec.cell names the case
  uint64_t digest;
  std::vector<trace::EventKind> targets;
};

runner::RunSpec BaseSpec(const char* name, consensus::ProtocolKind protocol,
                         cert::CertifierKind certifier, bool chaos) {
  runner::RunSpec spec;
  spec.cell = name;
  spec.capture_trace = true;  // pins the trace encoder too
  workload::WorkloadConfig& config = spec.config;
  config.seed = 7;
  config.num_sites = 4;
  config.rows_per_table = 32;
  config.global_clients = 4;
  config.target_global_txns = 120;
  config.p_prepared_abort = 0.2;
  config.protocol = protocol;
  config.paxos_f = 1;
  config.certifier = certifier;
  config.max_sim_time = 20 * sim::kSecond;
  if (chaos) {
    config.net_loss_prob = 0.02;
    config.drain_grace = 1 * sim::kSecond;
    config.orphan_abort_timeout = 800 * sim::kMillisecond;
    config.decision_inquiry_timeout = 100 * sim::kMillisecond;
    fault::ChaosOptions opts;
    opts.num_sites = config.num_sites;
    opts.horizon = 2 * sim::kSecond;
    config.fault_plan = fault::GenerateChaosPlan(11, opts);
  }
  return spec;
}

std::vector<GoldenCase> Corpus() {
  using consensus::ProtocolKind;
  using cert::CertifierKind;
  using trace::EventKind;
  constexpr ProtocolKind k2PC = ProtocolKind::k2PC;
  constexpr ProtocolKind kPaxos = ProtocolKind::kPaxosCommit;
  constexpr CertifierKind kSn = CertifierKind::kSn;
  constexpr CertifierKind kCsn = CertifierKind::kCsn;

  // Paxos Commit downgrades CSN certification to SN (see core::MdbsConfig),
  // so each paxos_csn case digests like its paxos_sn sibling.
  std::vector<GoldenCase> corpus = {
      {BaseSpec("2pc_sn", k2PC, kSn, false), 0x7c96e07124689502ull, {}},
      {BaseSpec("2pc_sn_chaos", k2PC, kSn, true), 0x39b0d7589fedcb06ull, {}},
      {BaseSpec("2pc_csn", k2PC, kCsn, false), 0x3f857057a9d902cfull, {}},
      {BaseSpec("2pc_csn_chaos", k2PC, kCsn, true), 0x027e133a642aeefcull, {}},
      {BaseSpec("paxos_sn", kPaxos, kSn, false), 0xfbbcd2d21f620560ull, {}},
      {BaseSpec("paxos_sn_chaos", kPaxos, kSn, true), 0xf81c7ceff5340445ull,
       {}},
      {BaseSpec("paxos_csn", kPaxos, kCsn, false), 0xfbbcd2d21f620560ull, {}},
      {BaseSpec("paxos_csn_chaos", kPaxos, kCsn, true), 0xf81c7ceff5340445ull,
       {}},
  };

  // Short commit (1PC + read-only fast paths) with decision-time CSNs and
  // local clients at every site.
  GoldenCase short_commit{BaseSpec("2pc_csn_short", k2PC, kCsn, false),
                          0x5c6dacedf615bdb8ull,
                          {EventKind::kShortCommit, EventKind::kCsnAssign,
                           EventKind::kLocalTxnBegin, EventKind::kLocalTxnEnd}};
  short_commit.spec.config.short_commit = true;
  short_commit.spec.config.single_site_fraction = 0.3;
  short_commit.spec.config.read_only_fraction = 0.3;
  short_commit.spec.config.local_clients_per_site = 1;
  short_commit.spec.config.target_global_txns = 80;
  corpus.push_back(std::move(short_commit));

  // Sharded 2PC under chaos with live membership changes.
  GoldenCase reconfig{BaseSpec("2pc_sn_sharded_reconfig", k2PC, kSn, true),
                      0x876a7e9c14cb475aull,
                      {EventKind::kReconfigBegin, EventKind::kReconfigHandoff,
                       EventKind::kReconfigDone, EventKind::kEpochRefused}};
  {
    workload::WorkloadConfig& config = reconfig.spec.config;
    config.num_shards = 16;
    config.max_sites = 6;
    fault::ChaosOptions opts;
    opts.num_sites = config.num_sites;
    opts.horizon = 2 * sim::kSecond;
    opts.reconfigs = 2;
    config.fault_plan = fault::GenerateChaosPlan(11, opts);
  }
  corpus.push_back(std::move(reconfig));

  // The CGM baseline's centralized scheduler.
  GoldenCase cgm{BaseSpec("cgm", k2PC, kSn, false), 0xdfdf4fca4044f8b5ull,
                 {EventKind::kCgmLock, EventKind::kCgmAdmission}};
  cgm.spec.config.system = workload::System::kCGM;
  cgm.spec.config.target_global_txns = 60;
  corpus.push_back(std::move(cgm));

  // A chaos case captured by the binary ring backend.
  GoldenCase binary{BaseSpec("paxos_sn_chaos_binary", kPaxos, kSn, true),
                    0xc6c99137af11ec6eull,
                    {EventKind::kPaxosDecided, EventKind::kRetransmit,
                     EventKind::kMsgDrop, EventKind::kSiteCrash}};
  binary.spec.trace_options.format = trace::TraceFormat::kBinary;
  corpus.push_back(std::move(binary));
  return corpus;
}

TEST(GoldenCorpus, FingerprintDigestsAreUnchanged) {
  const std::vector<GoldenCase> corpus = Corpus();
  std::vector<runner::RunSpec> specs;
  for (const GoldenCase& c : corpus) specs.push_back(c.spec);
  // Fingerprints do not depend on the worker count (Runner tests), so the
  // grid runs on 4 workers to keep the test short in sanitizer builds.
  Result<std::vector<runner::RunOutput>> out =
      runner::RunAll(specs, {.workers = 4});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const GoldenCase& c = corpus[i];
    const runner::RunOutput& run = (*out)[i];
    const uint64_t digest = Fnv1a64(runner::Fingerprint(run));
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
    EXPECT_EQ(digest, c.digest) << c.spec.cell << " now digests to " << hex;

    if (c.targets.empty()) continue;
    Result<std::vector<trace::Event>> events =
        run.trace_binary.empty() ? trace::ParseJsonl(run.trace_jsonl)
                                 : trace::ParseBinary(run.trace_binary);
    ASSERT_TRUE(events.ok()) << c.spec.cell << ": "
                             << events.status().ToString();
    std::set<trace::EventKind> seen;
    for (const trace::Event& e : *events) seen.insert(e.kind);
    for (const trace::EventKind kind : c.targets) {
      EXPECT_TRUE(seen.count(kind) > 0)
          << c.spec.cell << " never emits " << trace::EventKindName(kind);
    }
  }
}

}  // namespace
}  // namespace hermes
