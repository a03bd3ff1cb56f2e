// Materializing wrappers over the readers: TSV through the streaming
// kernel in trace_stream.h, v3 through the byte-image index parser and
// chunk decoder in trace_v3.h. A Trace is just what you get when every
// event is appended to a vector.
#include "ipm/trace.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "ipm/mapped_file.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"

namespace eio::ipm {

Seconds Trace::span() const noexcept {
  Seconds latest = 0.0;
  for (const TraceEvent& e : events_) latest = std::max(latest, e.end());
  return latest;
}

void Trace::merge(const Trace& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  ranks_ = std::max(ranks_, other.ranks_);
  if (experiment_.empty()) experiment_ = other.experiment_;
}

void Trace::sort_by_start() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start < b.start;
                   });
}

namespace {

Trace read_tsv(std::istream& in) {
  Trace trace;
  TraceMeta meta =
      stream_tsv(in, [&trace](const TraceEvent& e) { trace.add(e); });
  trace.set_experiment(meta.experiment);
  trace.set_ranks(meta.ranks);
  return trace;
}

Trace read_v3(std::span<const char> image) {
  const TraceIndex index = read_index_v3(image);
  Trace trace(index.meta.experiment, index.meta.ranks);
  ChunkReader reader(image);
  for (std::size_t c = 0; c < index.chunks.size(); ++c) {
    const ColumnBatch batch = reader.read_columns(index, c, kColAll);
    for (std::size_t i = 0; i < batch.size(); ++i) trace.add(batch.event_at(i));
  }
  return trace;
}

}  // namespace

void Trace::write(std::ostream& out) const {
  write_tsv_header(out, experiment_, ranks_, events_.size());
  for (const TraceEvent& e : events_) write_tsv_event(out, e);
}

Trace Trace::read(std::istream& in) { return read_tsv(in); }

void Trace::write_binary_v3(std::ostream& out) const {
  TraceWriterV3 writer(out, experiment_, ranks_);
  for (const TraceEvent& e : events_) writer.add(e);
  writer.finish();
}

Trace Trace::read_binary(std::istream& in) {
  if (sniff_format(in) != TraceFormat::kBinaryV3) {
    throw std::runtime_error("not a binary ipm-io trace (missing magic)");
  }
  const std::vector<char> image((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return read_v3(image);
}

void Trace::save(const std::string& path) const {
  std::ofstream out(path);
  EIO_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write(out);
  EIO_CHECK_MSG(out.good(), "write failed: " << path);
}

void Trace::save_binary_v3(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  EIO_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write_binary_v3(out);
  EIO_CHECK_MSG(out.good(), "write failed: " << path);
}

Trace Trace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EIO_CHECK_MSG(in.good(), "cannot open for reading: " << path);
  switch (sniff_format(in)) {
    case TraceFormat::kTsv: return read_tsv(in);
    case TraceFormat::kBinaryV3: return read_v3(MappedFile(path).bytes());
  }
  throw std::runtime_error("unreachable trace format");
}

}  // namespace eio::ipm
