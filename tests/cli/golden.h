// Golden-file comparison for CLI output. Golden files under
// tests/cli/golden/ hold the exact expected bytes of a command's
// stdout; any change shows up as a byte diff and must be deliberate
// (regenerate with EIO_UPDATE_GOLDEN=1 and review the diff).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace eio::testutil {

inline std::string golden_path(const std::string& name) {
  return std::string(EIO_SOURCE_DIR "/tests/cli/golden/") + name;
}

/// Compare against the golden file; EIO_UPDATE_GOLDEN=1 regenerates.
inline void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("EIO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with EIO_UPDATE_GOLDEN=1 to create)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(actual, want.str()) << "golden mismatch: " << name;
}

}  // namespace eio::testutil
