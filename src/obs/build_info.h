// Build provenance: which binary produced this output?
//
// Every exported artifact (metrics reports, Chrome traces,
// BENCH_*.json rows) embeds the same block — git SHA, compiler, flags,
// build type — so a number can always be traced back to the commit and
// configuration that produced it. Values are captured at CMake
// configure time (see src/obs/CMakeLists.txt) and fall back to
// "unknown" when built outside the repo.
#pragma once

#include <string>

namespace eio::json {
class Writer;
}  // namespace eio::json

namespace eio::obs {

struct BuildInfo {
  std::string version;     ///< project version (CMake PROJECT_VERSION)
  std::string git_sha;     ///< HEAD at configure time ("unknown" outside git)
  std::string compiler;    ///< compiler id + version (predefined macros)
  std::string flags;       ///< CMAKE_CXX_FLAGS + per-config flags
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  bool obs_compiled_in = true;
};

/// The process's build provenance (computed once).
[[nodiscard]] const BuildInfo& build_info();

/// Emit the provenance as one JSON object value.
void write_build_info_json(json::Writer& w);

/// Current wall-clock time as ISO-8601 UTC ("2026-08-05T12:34:56Z").
[[nodiscard]] std::string iso8601_utc_now();

}  // namespace eio::obs
