#include "ipm/monitor.h"

#include <utility>

#include "common/check.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"

namespace eio::ipm {

namespace {

/// Sink batches are cut where a default v3 writer cuts its chunks.
constexpr std::size_t kBatchEvents = TraceWriterV3::Options{}.chunk_events;

}  // namespace

Monitor::Monitor() : Monitor(Config{}) {}

Monitor::Monitor(Config config, std::shared_ptr<EventSink> sink)
    : config_(config), sink_(std::move(sink)) {}

Monitor::~Monitor() {
  detach();
  finish();
}

void Monitor::attach(posix::PosixIo& io) {
  EIO_CHECK_MSG(attached_ == nullptr, "monitor already attached");
  attached_ = &io;
  io.add_observer(this);
}

void Monitor::detach() {
  if (attached_ != nullptr) {
    attached_->remove_observer(this);
    attached_ = nullptr;
  }
}

void Monitor::set_phase(RankId rank, std::int32_t phase) {
  if (phase_.size() <= rank) phase_.resize(rank + 1, 0);
  phase_[rank] = phase;
}

void Monitor::finish() {
  if (finished_) return;
  OBS_SPAN("monitor.finish");
  finished_ = true;
  if (sink_) flush_batch();
}

void Monitor::flush_batch() {
  ColumnScratch& c = batch_;
  if (c.start.empty()) return;
  sink_->add_batch(ColumnBatch{.events = c.start.size(),
                               .start = c.start,
                               .duration = c.duration,
                               .op = c.op,
                               .rank = c.rank,
                               .file = c.file,
                               .offset = c.offset,
                               .bytes = c.bytes,
                               .phase = c.phase});
  auto clear = [](auto&... column) { (column.clear(), ...); };
  clear(c.start, c.duration, c.op, c.rank, c.file, c.offset, c.bytes, c.phase);
}

void Monitor::on_call(const posix::CallRecord& record) {
  using posix::OpType;
  ++intercepted_;
  OBS_COUNTER_ADD("ipm.calls_intercepted", 1);
  bool is_data = record.op == OpType::kRead || record.op == OpType::kWrite;
  if (!is_data && !config_.record_metadata_calls) return;

  TraceEvent e;
  e.start = record.start;
  e.duration = record.duration;
  e.op = record.op;
  e.rank = record.rank;
  e.file = record.file;
  e.offset = record.offset;
  e.bytes = record.bytes;
  e.phase = record.rank < phase_.size() ? phase_[record.rank] : 0;
  if (config_.mode != Mode::kProfile) trace_.add(e);
  if (config_.mode != Mode::kTrace) profile_.observe(e.op, e.bytes, e.duration);
  if (!sink_) return;
  ColumnScratch& c = batch_;
  c.start.push_back(e.start);
  c.duration.push_back(e.duration);
  c.op.push_back(static_cast<std::uint8_t>(e.op));
  c.rank.push_back(e.rank);
  c.file.push_back(e.file);
  c.offset.push_back(e.offset);
  c.bytes.push_back(e.bytes);
  c.phase.push_back(e.phase);
  if (c.start.size() == kBatchEvents) flush_batch();
}

}  // namespace eio::ipm
