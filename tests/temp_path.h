// Per-test scratch paths. ctest runs every TEST as its own process, and
// under `ctest -j` those processes share ::testing::TempDir(); a fixed
// file name there lets two tests clobber each other's files. temp_path()
// names the file after the running test and the process id instead, so
// concurrent tests never share a path.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace eio::testutil {

/// TempDir() + "<Suite>.<Test>-<pid>" + suffix. Call it from inside a
/// test body (or fixture SetUp); distinct suffixes give one test
/// several files.
inline std::string temp_path(const std::string& suffix = "") {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized test names contain '/'
  }
  return ::testing::TempDir() + name + "-" + std::to_string(::getpid()) +
         suffix;
}

}  // namespace eio::testutil
