#include "obs/build_info.h"

#include <ctime>

#include "common/json_writer.h"

namespace eio::obs {

// The CMake side injects these through COMPILE_DEFINITIONS on this one
// translation unit; missing definitions (e.g. a bare compiler
// invocation) degrade to "unknown" rather than failing the build.
#ifndef EIO_BUILD_VERSION
#define EIO_BUILD_VERSION "unknown"
#endif
#ifndef EIO_BUILD_GIT_SHA
#define EIO_BUILD_GIT_SHA "unknown"
#endif
#ifndef EIO_BUILD_FLAGS
#define EIO_BUILD_FLAGS "unknown"
#endif
#ifndef EIO_BUILD_TYPE
#define EIO_BUILD_TYPE "unknown"
#endif

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info{
      EIO_BUILD_VERSION,    EIO_BUILD_GIT_SHA, compiler_string(),
      EIO_BUILD_FLAGS,      EIO_BUILD_TYPE,
#if defined(EIO_OBS_DISABLED)
      false,
#else
      true,
#endif
  };
  return info;
}

void write_build_info_json(json::Writer& w) {
  const BuildInfo& b = build_info();
  w.begin_object()
      .kv("version", b.version)
      .kv("git_sha", b.git_sha)
      .kv("compiler", b.compiler)
      .kv("flags", b.flags)
      .kv("build_type", b.build_type)
      .kv("obs_compiled_in", b.obs_compiled_in)
      .end_object();
}

std::string iso8601_utc_now() {
  std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace eio::obs
