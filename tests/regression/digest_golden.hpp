// Exact-match golden store for the tier-2 digest suites.
//
// One `name value` line per pinned digest (16-digit hex) in
// tests/regression/golden/<file>. There is no tolerance band: digests
// either replay bit-identically or they don't.
//
// Environment knobs:
//  * QNETP_REGEN_GOLDEN=1 — record this build's digests instead of
//    checking them, and rewrite the file when the test program ends
//    (inspect the diff, commit);
//  * QNETP_REGRESSION_QUICK=1 — CI smoke mode (quick_mode()): suites trim
//    their invariance sweeps, never the digest-pinned configs.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "exp/summary.hpp"

#ifndef QNETP_GOLDEN_DIR
#error "QNETP_GOLDEN_DIR must point at tests/regression/golden"
#endif

namespace qnetp::exp {

inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline bool quick_mode() { return env_flag("QNETP_REGRESSION_QUICK"); }

inline std::string digest_hex(const SummaryAccumulator& acc) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(acc.digest()));
  return buf;
}

/// Register one per test program with ::testing::AddGlobalTestEnvironment,
/// which flushes it on teardown.
class DigestGolden : public ::testing::Environment {
 public:
  /// `suite` and `binary` fill the file header's regenerate hint.
  DigestGolden(std::string file, std::string suite, std::string binary)
      : path_(std::string(QNETP_GOLDEN_DIR) + "/" + file),
        suite_(std::move(suite)),
        binary_(std::move(binary)),
        regen_(env_flag("QNETP_REGEN_GOLDEN")) {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string name, value;
      if (ls >> name >> value) golden_[name] = value;
    }
  }

  void check(const std::string& name, const std::string& value) {
    if (regen_) {
      recorded_[name] = value;
      return;
    }
    const auto it = golden_.find(name);
    ASSERT_NE(it, golden_.end())
        << "no golden value for '" << name
        << "' — run with QNETP_REGEN_GOLDEN=1 and commit the result";
    EXPECT_EQ(value, it->second)
        << "'" << name << "' no longer replays bit-identically";
  }

  void TearDown() override {
    if (!regen_) return;
    auto merged = golden_;
    for (const auto& [name, v] : recorded_) merged[name] = v;
    std::ofstream out(path_);
    ASSERT_TRUE(out.good()) << "cannot write " << path_;
    out << "# Golden digests for the tier-2 " << suite_ << " suite.\n"
        << "# Regenerate: QNETP_REGEN_GOLDEN=1 ./" << binary_ << "\n"
        << "# Format: <name> <value>\n";
    for (const auto& [name, v] : merged) out << name << " " << v << "\n";
  }

 private:
  std::string path_;
  std::string suite_;
  std::string binary_;
  bool regen_;
  std::map<std::string, std::string> golden_;
  std::map<std::string, std::string> recorded_;
};

}  // namespace qnetp::exp
