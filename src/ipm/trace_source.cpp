#include "ipm/trace_source.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"

namespace eio::ipm {

MemoryTraceSource::MemoryTraceSource(const Trace& trace) : trace_(&trace) {
  meta_.experiment = trace.experiment();
  meta_.ranks = trace.ranks();
  meta_.declared_events = trace.size();
}

void MemoryTraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  (void)hint;
  ColumnScratch scratch;
  if (!trace_->empty()) visit(shred(trace_->events(), scratch, mask));
}

FileTraceSource::FileTraceSource(std::string path)
    : path_(std::move(path)), stream_(path_, std::ios::binary) {
  EIO_CHECK_MSG(stream_.good(), "cannot open for reading: " << path_);
  format_ = sniff_format(stream_);
  switch (format_) {
    case TraceFormat::kBinaryV3:
      // Parsed from the mapped bytes: the index here, every chunk
      // through the same reader on each pass.
      reader_.emplace(path_, format_);
      index_ = read_index_v3(reader_->image());
      meta_ = index_->meta;
      for (const ChunkMeta& c : index_->chunks) span_ = std::max(span_, c.t_hi);
      break;
    case TraceFormat::kTsv: {
      // TSV keeps no trailing index, so validating the header costs
      // one pass; the constructor pays it once, folding the span on the
      // way, so meta() and time_span() stay cheap thereafter.
      std::uint64_t counted = 0;
      meta_ = stream_tsv(stream_, [this, &counted](const TraceEvent& e) {
        ++counted;
        span_ = std::max(span_, e.end());
      });
      if (!meta_.declared_events) meta_.declared_events = counted;
      break;
    }
  }
}

void FileTraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  if (!index_) {
    // TSV: one parse, shredded into the chunks a default v3 writer cuts
    // (the hint is ignored: a full scan is a valid superset).
    OBS_COUNTER_ADD("scan.tsv_passes", 1);
    constexpr std::size_t kBatch = TraceWriterV3::Options{}.chunk_events;
    std::vector<TraceEvent> rows;
    rows.reserve(kBatch);
    ColumnScratch scratch;
    auto flush = [&] {
      visit(shred(rows, scratch, mask));
      rows.clear();
    };
    stream_.clear();
    stream_.seekg(0);
    EIO_CHECK_MSG(stream_.good(), "cannot rewind trace: " << path_);
    (void)stream_tsv(stream_, [&](const TraceEvent& e) {
      rows.push_back(e);
      if (rows.size() == kBatch) flush();
    });
    if (!rows.empty()) flush();
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

}  // namespace eio::ipm
