// Shows that the benchmark's ledger check rejects one lost write and one
// doubled write (and one applied aborted write), and accepts correct
// storage and an applied in-doubt write. Exits 0 on success.

#include <cstdio>

#include "ledger.h"

int main() {
  const std::string error = hermes::perfbench::LedgerSelfTest();
  if (!error.empty()) {
    std::fprintf(stderr, "ledger self-test FAILED: %s\n", error.c_str());
    return 1;
  }
  std::printf("ledger self-test passed\n");
  return 0;
}
