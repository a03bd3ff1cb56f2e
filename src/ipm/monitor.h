// The IPM-I/O monitor: interposed call recording.
//
// Attach a Monitor to the POSIX layer and it stamps every completed
// call with the rank's current IPM region (phase) and records it. The
// capture modes match the paper's present and future-work paradigms:
//
//  * full tracing (default): the Trace keeps every event — "by
//    default IPM-I/O emits the entire trace";
//  * in-situ profiling (`Mode::kProfile`): the Profile keeps only
//    per-(op, size-bucket) duration histograms, the paper's proposed
//    transition "from an I/O tracing paradigm to an I/O profiling
//    paradigm".
//
// A monitor may also own one EventSink (in-situ statistics, health
// monitoring, ...). It then appends each event to a column buffer cut
// every TraceWriterV3::Options{}.chunk_events events and hands each
// full batch, and the trailing partial one at finish(), to the sink's
// add_batch — the batches a one-thread scan of the saved v3 trace
// folds. The monitor also accounts its own overhead (a fixed cost per
// intercepted call) so the "lightweight" claim is checkable.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "ipm/columns.h"
#include "ipm/profile.h"
#include "ipm/sink.h"
#include "ipm/trace.h"
#include "posix/hooks.h"
#include "posix/vfs.h"

namespace eio::ipm {

/// Capture paradigm.
enum class Mode : std::uint8_t {
  kTrace,    ///< keep every event
  kProfile,  ///< keep only histograms (scalable future-work mode)
  kBoth,     ///< keep both (used to validate profile against trace)
};

class Monitor final : public posix::IoObserver {
 public:
  struct Config {
    Mode mode = Mode::kTrace;
    Seconds per_event_overhead = us(1.5);  ///< cost of one interception
    bool record_metadata_calls = true;     ///< include open/close/seek/fsync
  };

  Monitor();
  /// `sink` (may be null) receives every recorded call in batches; the
  /// monitor owns it for as long as it may still flush.
  explicit Monitor(Config config, std::shared_ptr<EventSink> sink = nullptr);
  ~Monitor() override;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Start observing a POSIX layer (detaches automatically on
  /// destruction).
  void attach(posix::PosixIo& io);
  void detach();

  /// Set the IPM region subsequent events of `rank` are tagged with.
  void set_phase(RankId rank, std::int32_t phase);

  /// Capture is over: hand the sink its trailing partial batch.
  /// Idempotent; called by the destructor.
  void finish();

  /// IoObserver hook.
  void on_call(const posix::CallRecord& record) override;

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] Trace& trace() noexcept { return trace_; }
  [[nodiscard]] const Profile& profile() const noexcept { return profile_; }

  /// Number of intercepted calls.
  [[nodiscard]] std::uint64_t intercepted() const noexcept { return intercepted_; }

  /// Total accounted monitoring overhead (intercepted * per-event cost).
  [[nodiscard]] Seconds accounted_overhead() const noexcept {
    return static_cast<double>(intercepted_) * config_.per_event_overhead;
  }

 private:
  void flush_batch();

  Config config_;
  posix::PosixIo* attached_ = nullptr;
  Trace trace_;
  Profile profile_;
  std::shared_ptr<EventSink> sink_;
  ColumnScratch batch_;              ///< the sink's pending batch
  std::vector<std::int32_t> phase_;  ///< per-rank current region
  std::uint64_t intercepted_ = 0;
  bool finished_ = false;
};

}  // namespace eio::ipm
