#include "ipm/trace_source.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "common/check.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"

namespace eio::ipm {

void TraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  std::vector<TraceEvent> rows;
  rows.reserve(kDefaultBatchEvents);
  ColumnScratch scratch;
  auto flush = [&] {
    visit(shred(rows, scratch, mask));
    rows.clear();
  };
  for_each_hinted(hint, [&](const TraceEvent& e) {
    rows.push_back(e);
    if (rows.size() == kDefaultBatchEvents) flush();
  });
  if (!rows.empty()) flush();
}

double TraceSource::time_span() const {
  double span = 0.0;
  for_each([&span](const TraceEvent& e) { span = std::max(span, e.end()); });
  return span;
}

std::uint64_t TraceSource::event_count() const {
  if (meta().declared_events) return *meta().declared_events;
  std::uint64_t n = 0;
  for_each([&n](const TraceEvent&) { ++n; });
  return n;
}

Trace TraceSource::materialize() const {
  Trace trace(meta().experiment, meta().ranks);
  if (meta().declared_events) trace.reserve(*meta().declared_events);
  for_each([&trace](const TraceEvent& e) { trace.add(e); });
  return trace;
}

MemoryTraceSource::MemoryTraceSource(const Trace& trace) : trace_(&trace) {
  meta_.experiment = trace.experiment();
  meta_.ranks = trace.ranks();
  meta_.declared_events = trace.size();
}

void MemoryTraceSource::for_each(const EventVisitor& visit) const {
  for (const TraceEvent& e : trace_->events()) visit(e);
}

void MemoryTraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  (void)hint;
  if (!trace_->empty()) {
    visit(shred(std::span<const TraceEvent>(trace_->events()), scratch_, mask));
  }
}

double MemoryTraceSource::time_span() const { return trace_->span(); }

std::uint64_t MemoryTraceSource::event_count() const { return trace_->size(); }

Trace MemoryTraceSource::materialize() const {
  Trace copy = *trace_;
  return copy;
}

namespace {

std::ifstream open_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EIO_CHECK_MSG(in.good(), "cannot open for reading: " << path);
  return in;
}

}  // namespace

FileTraceSource::FileTraceSource(std::string path) : path_(std::move(path)) {
  stream_ = open_trace(path_);
  format_ = sniff_format(stream_);
  switch (format_) {
    case TraceFormat::kBinaryV3:
      // Parsed from the mapped bytes: the index here, every chunk
      // through the same reader on each pass.
      reader_.emplace(path_, format_);
      index_ = read_index_v3(reader_->image());
      meta_ = index_->meta;
      break;
    case TraceFormat::kTsv: {
      // TSV keeps no trailing index, so validating the header costs
      // one pass; the constructor pays it once and meta() stays cheap
      // thereafter.
      std::uint64_t counted = 0;
      meta_ = stream_tsv(stream_, [&counted](const TraceEvent&) { ++counted; });
      if (!meta_.declared_events) meta_.declared_events = counted;
      break;
    }
  }
}

std::istream& FileTraceSource::reset_stream() const {
  stream_.clear();
  stream_.seekg(0);
  EIO_CHECK_MSG(stream_.good(), "cannot rewind trace: " << path_);
  return stream_;
}

void FileTraceSource::for_each(const EventVisitor& visit) const {
  for_each_hinted(ChunkHint{}, visit);
}

void FileTraceSource::for_each_hinted(const ChunkHint& hint,
                                      const EventVisitor& visit) const {
  if (!index_) {
    OBS_COUNTER_ADD("scan.tsv_passes", 1);
    (void)stream_tsv(reset_stream(), visit);
    return;
  }
  for_each_columns_hinted(hint, kColAll, [&](const ColumnBatch& batch) {
    unshred(batch, batch_);
    for (const TraceEvent& e : batch_) visit(e);
  });
}

void FileTraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  if (!index_) {
    TraceSource::for_each_columns_hinted(hint, mask, visit);
    return;
  }
  for (std::size_t i = 0; i < index_->chunks.size(); ++i) {
    if (!hint.admits(index_->chunks[i])) {
      OBS_COUNTER_ADD("scan.chunks_skipped", 1);
      continue;
    }
    OBS_COUNTER_ADD("scan.chunks_scanned", 1);
    visit(reader_->read_columns(*index_, i, mask));
  }
}

double FileTraceSource::time_span() const {
  if (!index_) return TraceSource::time_span();
  double span = 0.0;
  for (const ChunkMeta& c : index_->chunks) span = std::max(span, c.t_hi);
  return span;
}

std::uint64_t FileTraceSource::event_count() const {
  // Both formats declare their count (TSV via the header field, v3 via
  // the footer), and the constructor's metadata pass validated it.
  return meta_.declared_events.value_or(0);
}

}  // namespace eio::ipm
