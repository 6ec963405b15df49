// Golden fingerprint corpus: committed 64-bit FNV-1a digests of
// runner::Fingerprint (every metric, verdict and the full JSONL trace) over
// a small fixed grid. A refactor that claims "same behaviour" must leave
// every digest unchanged; an intended behaviour change regenerates them
// (the failure message prints the new value) and says why in CHANGES.md.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "runner/runner.h"

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

struct GoldenCase {
  const char* name;
  consensus::ProtocolKind protocol;
  cert::CertifierKind certifier;
  bool chaos;
  uint64_t digest;
};

// Paxos Commit downgrades CSN certification to SN (see core::MdbsConfig),
// so each paxos_csn case digests like its paxos_sn sibling.
constexpr GoldenCase kCorpus[] = {
    {"2pc_sn", consensus::ProtocolKind::k2PC, cert::CertifierKind::kSn, false,
     0x7c96e07124689502ull},
    {"2pc_sn_chaos", consensus::ProtocolKind::k2PC, cert::CertifierKind::kSn,
     true, 0x39b0d7589fedcb06ull},
    {"2pc_csn", consensus::ProtocolKind::k2PC, cert::CertifierKind::kCsn,
     false, 0x3f857057a9d902cfull},
    {"2pc_csn_chaos", consensus::ProtocolKind::k2PC, cert::CertifierKind::kCsn,
     true, 0x027e133a642aeefcull},
    {"paxos_sn", consensus::ProtocolKind::kPaxosCommit,
     cert::CertifierKind::kSn, false, 0xfbbcd2d21f620560ull},
    {"paxos_sn_chaos", consensus::ProtocolKind::kPaxosCommit,
     cert::CertifierKind::kSn, true, 0xf1afc8ad90f31154ull},
    {"paxos_csn", consensus::ProtocolKind::kPaxosCommit,
     cert::CertifierKind::kCsn, false, 0xfbbcd2d21f620560ull},
    {"paxos_csn_chaos", consensus::ProtocolKind::kPaxosCommit,
     cert::CertifierKind::kCsn, true, 0xf1afc8ad90f31154ull},
};

runner::RunSpec SpecFor(const GoldenCase& c) {
  runner::RunSpec spec;
  spec.cell = c.name;
  spec.capture_trace = true;  // pins the JSONL trace encoder too
  workload::WorkloadConfig& config = spec.config;
  config.seed = 7;
  config.num_sites = 4;
  config.rows_per_table = 32;
  config.global_clients = 4;
  config.target_global_txns = 120;
  config.p_prepared_abort = 0.2;
  config.protocol = c.protocol;
  config.paxos_f = 1;
  config.certifier = c.certifier;
  config.max_sim_time = 20 * sim::kSecond;
  if (c.chaos) {
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

TEST(GoldenCorpus, FingerprintDigestsAreUnchanged) {
  std::vector<runner::RunSpec> specs;
  for (const GoldenCase& c : kCorpus) specs.push_back(SpecFor(c));
  // Fingerprints do not depend on the worker count (Runner tests), so the
  // grid runs on 4 workers to keep the test short in sanitizer builds.
  Result<std::vector<runner::RunOutput>> out =
      runner::RunAll(specs, {.workers = 4});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (size_t i = 0; i < specs.size(); ++i) {
    const uint64_t digest = Fnv1a64(runner::Fingerprint((*out)[i]));
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
    EXPECT_EQ(digest, kCorpus[i].digest)
        << kCorpus[i].name << " now digests to " << hex;
  }
}

}  // namespace
}  // namespace hermes
