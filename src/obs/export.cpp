#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "common/json_writer.h"
#include "obs/build_info.h"

namespace eio::obs {

namespace {

/// Fixed-format double for the TSV and text outputs.
std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<NamedSpan>& spans) {
  write_chrome_trace(out, spans, {});
}

void write_chrome_trace(std::ostream& out, const std::vector<NamedSpan>& spans,
                        const std::vector<NamedInstant>& instants) {
  // Group per tid, then rebuild each thread's B/E stream with an
  // explicit stack sweep. RAII spans nest properly within a thread, so
  // sorting by (begin, depth, completion order) and closing every span
  // at depth >= the incoming one yields balanced, monotonic events even
  // when timestamps tie at microsecond resolution.
  struct Indexed {
    const NamedSpan* s;
    std::size_t seq;
  };
  std::vector<std::uint32_t> tids;
  for (const NamedSpan& s : spans) {
    if (std::find(tids.begin(), tids.end(), s.tid) == tids.end()) {
      tids.push_back(s.tid);
    }
  }
  std::sort(tids.begin(), tids.end());

  // One event object per line: the newline after each element is
  // whitespace to JSON and keeps the file greppable.
  json::Writer w(out);
  w.begin_object().key("traceEvents").begin_array();
  out << '\n';
  w.begin_object()
      .kv("ph", "M")
      .kv("pid", 1)
      .kv("tid", 0)
      .kv("name", "process_name")
      .key("args")
      .begin_object()
      .kv("name", "ensembleio")
      .end_object()
      .end_object();
  out << '\n';
  for (std::uint32_t tid : tids) {
    std::vector<Indexed> mine;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].tid == tid) mine.push_back(Indexed{&spans[i], i});
    }
    std::sort(mine.begin(), mine.end(), [](const Indexed& a, const Indexed& b) {
      if (a.s->t_begin != b.s->t_begin) return a.s->t_begin < b.s->t_begin;
      if (a.s->depth != b.s->depth) return a.s->depth < b.s->depth;
      return a.seq < b.seq;
    });
    auto emit = [&w, &out, tid](const char* ph, const std::string& name,
                                double ts_s) {
      w.begin_object()
          .kv("ph", ph)
          .kv("pid", 1)
          .kv("tid", tid)
          .kv("ts", ts_s * 1e6)
          .kv("name", name)
          .end_object();
      out << '\n';
    };
    std::vector<const NamedSpan*> stack;
    for (const Indexed& it : mine) {
      while (!stack.empty() && stack.back()->depth >= it.s->depth) {
        emit("E", stack.back()->name, stack.back()->t_end);
        stack.pop_back();
      }
      emit("B", it.s->name, it.s->t_begin);
      stack.push_back(it.s);
    }
    while (!stack.empty()) {
      emit("E", stack.back()->name, stack.back()->t_end);
      stack.pop_back();
    }
  }
  // Instant events (ph:"i") — points on the timeline next to the
  // spans; thread scope keeps Perfetto from drawing full-height bars.
  for (const NamedInstant& i : instants) {
    w.begin_object()
        .kv("ph", "i")
        .kv("s", "t")
        .kv("pid", 1)
        .kv("tid", i.tid)
        .kv("ts", i.t * 1e6)
        .kv("name", i.name)
        .end_object();
    out << '\n';
  }
  w.end_array()
      .kv("displayTimeUnit", "ms")
      .key("otherData")
      .begin_object()
      .kv("tool", "ensembleio")
      .kv("git_sha", build_info().git_sha)
      .end_object()
      .end_object();
  out << '\n';
}

void write_chrome_trace(std::ostream& out) {
  write_chrome_trace(out, Registry::instance().spans(),
                     Registry::instance().instants());
}

void write_metrics_json(std::ostream& out, const Snapshot& snap) {
  json::Writer w(out);
  w.begin_object()
      .kv("schema_version", kMetricsSchemaVersion)
      .kv("generated_at", iso8601_utc_now())
      .key("build");
  write_build_info_json(w);
  w.key("counters").begin_object();
  for (const CounterValue& c : snap.counters) w.kv(c.name, c.value);
  w.end_object().key("gauges").begin_object();
  for (const GaugeValue& g : snap.gauges) w.kv(g.name, g.value);
  w.end_object()
      .kv("spans_recorded", snap.spans_recorded)
      .kv("spans_dropped", snap.spans_dropped)
      .key("spans")
      .begin_object();
  for (const LatencySummary& s : snap.latency) {
    w.key(s.name)
        .begin_object()
        .kv("count", s.moments.count)
        .kv("total_s", s.total_s)
        .kv("mean_s", s.moments.mean)
        .kv("min_s", s.min_s)
        .kv("p50_s", s.p50_s)
        .kv("p95_s", s.p95_s)
        .kv("p99_s", s.p99_s)
        .kv("max_s", s.max_s)
        .end_object();
  }
  w.end_object().end_object();
  out << '\n';
}

void write_metrics_tsv(std::ostream& out, const Snapshot& snap) {
  out << "kind\tname\tcount\tvalue\ttotal_s\tmean_s\tp50_s\tp95_s\tmax_s\n";
  for (const CounterValue& c : snap.counters) {
    out << "counter\t" << c.name << "\t\t" << c.value << "\t\t\t\t\t\n";
  }
  for (const GaugeValue& g : snap.gauges) {
    out << "gauge\t" << g.name << "\t\t" << g.value << "\t\t\t\t\t\n";
  }
  for (const LatencySummary& s : snap.latency) {
    out << "span\t" << s.name << "\t" << s.moments.count << "\t\t"
        << fixed(s.total_s, 6) << "\t" << fixed(s.moments.mean, 9) << "\t"
        << fixed(s.p50_s, 9) << "\t" << fixed(s.p95_s, 9) << "\t"
        << fixed(s.max_s, 9) << "\n";
  }
}

void print_summary(std::ostream& out, const Snapshot& snap) {
  out << "observability summary\n";
  if (!snap.counters.empty()) {
    out << "  counters:\n";
    for (const CounterValue& c : snap.counters) {
      char line[160];
      std::snprintf(line, sizeof line, "    %-36s %14llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      out << line;
    }
  }
  if (!snap.gauges.empty()) {
    out << "  gauges:\n";
    for (const GaugeValue& g : snap.gauges) {
      char line[160];
      std::snprintf(line, sizeof line, "    %-36s %14lld\n", g.name.c_str(),
                    static_cast<long long>(g.value));
      out << line;
    }
  }
  if (!snap.latency.empty()) {
    out << "  spans:                                  count     total(s)"
           "      mean(s)       p95(s)       max(s)\n";
    for (const LatencySummary& s : snap.latency) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "    %-36s %9zu %12.4f %12.6f %12.6f %12.6f\n",
                    s.name.c_str(), s.moments.count, s.total_s, s.moments.mean,
                    s.p95_s, s.max_s);
      out << line;
    }
  }
  if (snap.spans_dropped > 0) {
    out << "  (" << snap.spans_dropped
        << " span records dropped past the per-thread cap)\n";
  }
}

void write_metrics_file(const std::string& path, const Snapshot& snap) {
  std::ofstream file(path);
  if (!file.good()) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".tsv") == 0) {
    write_metrics_tsv(file, snap);
  } else {
    write_metrics_json(file, snap);
  }
  if (!file.good()) throw std::runtime_error("write failed: " + path);
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream file(path);
  if (!file.good()) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  write_chrome_trace(file);
  if (!file.good()) throw std::runtime_error("write failed: " + path);
}

}  // namespace eio::obs
