#include "workloads/sweep.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json_writer.h"
#include "common/rng.h"
#include "workloads/scenario.h"

namespace eio::workloads {

namespace {

namespace fs = std::filesystem;

[[noreturn]] void fail(const std::string& source, const std::string& what) {
  throw std::runtime_error("sweep: " + source + ": " + what);
}

json::Value parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("sweep: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return json::parse(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("sweep: " + path + ": " + e.what());
  }
}

std::string stem_of(const std::string& path) {
  std::string stem = fs::path(path).stem().string();
  return stem.empty() ? path : stem;
}

/// Render an axis value for the run label: scalars inline, composites
/// (fault plans and the like) summarized by kind so labels stay short.
std::string label_value(const json::Value& v) {
  if (v.is_object()) return "{...}";
  if (v.is_array()) return "[...]";
  return json::dump(v);
}

/// Set (or, for null, delete) the value at a dotted path, creating
/// intermediate objects as needed. Throws when a path step traverses
/// a non-object — the axis is aimed at something that cannot hold it.
void patch_path(json::Object& root, const std::string& path,
                const json::Value& value) {
  json::Object* obj = &root;
  std::size_t start = 0;
  while (true) {
    std::size_t dot = path.find('.', start);
    std::string step = path.substr(start, dot - start);
    if (step.empty()) {
      throw std::runtime_error("empty path segment");
    }
    if (dot == std::string::npos) {
      if (value.is_null()) {
        obj->erase(step);
      } else {
        (*obj)[step] = value;
      }
      return;
    }
    json::Value& next = (*obj)[step];
    if (next.is_null()) next = json::Value(json::Object{});
    if (!next.is_object()) {
      throw std::runtime_error("path step '" + step + "' is not an object");
    }
    // Object storage is stable across the mutations below (we only
    // touch deeper levels), so holding the pointer is safe.
    obj = const_cast<json::Object*>(&next.as_object());
    start = dot + 1;
  }
}

/// Validate one expanded document as a scenario, wrapping the error
/// with the run's provenance so a bad axis points at itself.
void check_scenario(const json::Value& doc, const std::string& source,
                    const std::string& label) {
  try {
    (void)scenario_from_json(doc);
  } catch (const std::exception& e) {
    std::string where = source;
    if (!label.empty()) where += " [" + label + "]";
    fail(where, e.what());
  }
}

struct Axis {
  std::string path;
  const json::Array* values = nullptr;
};

/// Parse and validate the sweep spec's axes, in sorted-name order
/// (json::Object iterates sorted, which is exactly the order the
/// determinism contract wants).
std::vector<Axis> axes_from(const json::Value& sweep, const std::string& source) {
  if (!sweep.has("axes") || !sweep.at("axes").is_object()) {
    fail(source, "sweep requires an \"axes\" object");
  }
  std::vector<Axis> axes;
  for (const auto& [path, values] : sweep.at("axes").as_object()) {
    if (!values.is_array()) {
      fail(source, "axis '" + path + "' must be an array of values");
    }
    if (values.as_array().empty()) {
      fail(source, "axis '" + path + "' has no values");
    }
    axes.push_back(Axis{path, &values.as_array()});
  }
  if (axes.empty()) fail(source, "sweep has no axes");
  return axes;
}

/// Materialize one run from an axis assignment: patch the base
/// document, build the label, validate.
RunPlan make_run(const json::Value& base, const std::vector<Axis>& axes,
                 const std::vector<std::size_t>& choice,
                 const std::string& source) {
  json::Object doc = base.as_object();
  std::string label;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const json::Value& value = (*axes[a].values)[choice[a]];
    if (!label.empty()) label += ' ';
    label += axes[a].path + '=' + label_value(value);
    try {
      patch_path(doc, axes[a].path, value);
    } catch (const std::exception& e) {
      fail(source, "axis '" + axes[a].path + "': " + e.what());
    }
  }
  RunPlan plan;
  plan.source = source;
  plan.label = label;
  plan.scenario = json::Value(std::move(doc));
  check_scenario(plan.scenario, source, plan.label);
  return plan;
}

std::vector<RunPlan> expand_sweep(const json::Value& doc,
                                  const std::string& source,
                                  const std::string& base_dir) {
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (key != "schema_version" && key != "name" && key != "base" &&
        key != "sweep") {
      fail(source, "unknown key '" + key + "' in sweep spec");
    }
  }
  int version = static_cast<int>(doc.number_or("schema_version", -1));
  if (version != kSweepSchemaVersion) {
    fail(source, "unsupported schema_version (want " +
                     std::to_string(kSweepSchemaVersion) + ")");
  }
  std::string name = doc.string_or("name", source);

  if (!doc.has("base")) fail(source, "sweep spec requires a \"base\"");
  json::Value base;
  if (doc.at("base").is_string()) {
    fs::path base_path(doc.at("base").as_string());
    if (base_path.is_relative() && !base_dir.empty()) {
      base_path = fs::path(base_dir) / base_path;
    }
    base = parse_file(base_path.string());
  } else if (doc.at("base").is_object()) {
    base = doc.at("base");
  } else {
    fail(source, "\"base\" must be a scenario object or a file path");
  }
  if (!base.is_object()) fail(source, "base scenario is not an object");

  const json::Value& sweep = doc.at("sweep");
  if (!sweep.is_object()) fail(source, "\"sweep\" must be an object");
  for (const auto& [key, value] : sweep.as_object()) {
    (void)value;
    if (key != "mode" && key != "samples" && key != "seed" && key != "axes") {
      fail(source, "unknown key '" + key + "' in sweep");
    }
  }
  std::string mode = sweep.string_or("mode", "grid");
  std::vector<Axis> axes = axes_from(sweep, name);

  std::vector<RunPlan> plans;
  if (mode == "grid") {
    if (sweep.has("samples") || sweep.has("seed")) {
      fail(name, "\"samples\"/\"seed\" only apply to mode \"random\"");
    }
    std::size_t total = 1;
    for (const Axis& axis : axes) {
      std::size_t n = axis.values->size();
      if (total > kMaxSweepRuns / n) {
        fail(name, "grid larger than " + std::to_string(kMaxSweepRuns) +
                       " runs; shrink an axis or use mode \"random\"");
      }
      total *= n;
    }
    // Odometer over sorted axis names, last axis fastest.
    std::vector<std::size_t> choice(axes.size(), 0);
    for (std::size_t r = 0; r < total; ++r) {
      plans.push_back(make_run(base, axes, choice, name));
      for (std::size_t a = axes.size(); a-- > 0;) {
        if (++choice[a] < axes[a].values->size()) break;
        choice[a] = 0;
      }
    }
  } else if (mode == "random") {
    if (!sweep.has("samples")) fail(name, "mode \"random\" requires \"samples\"");
    double samples_raw = sweep.at("samples").as_number();
    if (samples_raw < 1 || samples_raw != static_cast<std::size_t>(samples_raw)) {
      fail(name, "\"samples\" must be a positive integer");
    }
    auto samples = static_cast<std::size_t>(samples_raw);
    if (samples > kMaxSweepRuns) {
      fail(name, "\"samples\" larger than " + std::to_string(kMaxSweepRuns));
    }
    auto seed = static_cast<std::uint64_t>(sweep.number_or("seed", 0.0));
    // Counter-based splitmix64 draws: portable across standard
    // libraries, unlike std:: distributions.
    std::uint64_t state = rng::splitmix64(seed + 0x9E3779B97F4A7C15ULL);
    std::vector<std::size_t> choice(axes.size(), 0);
    for (std::size_t r = 0; r < samples; ++r) {
      for (std::size_t a = 0; a < axes.size(); ++a) {
        state = rng::splitmix64(state);
        choice[a] = static_cast<std::size_t>(state % axes[a].values->size());
      }
      plans.push_back(make_run(base, axes, choice, name));
    }
  } else {
    fail(name, "unknown sweep mode '" + mode + "' (want grid|random)");
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    plans[i].index = i;
  }
  return plans;
}

}  // namespace

std::vector<RunPlan> expand_document(const json::Value& doc,
                                     const std::string& source,
                                     const std::string& base_dir) {
  if (!doc.is_object()) fail(source, "document is not a JSON object");
  if (doc.has("sweep")) return expand_sweep(doc, source, base_dir);
  check_scenario(doc, source, "");
  RunPlan plan;
  plan.source = source;
  plan.scenario = doc;
  return {std::move(plan)};
}

std::vector<RunPlan> expand_files(std::vector<std::string> files) {
  std::sort(files.begin(), files.end(),
            [](const std::string& a, const std::string& b) {
              std::string sa = stem_of(a);
              std::string sb = stem_of(b);
              return sa != sb ? sa < sb : a < b;
            });
  std::vector<RunPlan> all;
  for (const std::string& file : files) {
    json::Value doc = parse_file(file);
    std::string base_dir = fs::path(file).parent_path().string();
    std::vector<RunPlan> plans = expand_document(doc, stem_of(file), base_dir);
    all.insert(all.end(), std::make_move_iterator(plans.begin()),
               std::make_move_iterator(plans.end()));
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i].index = i;
  }
  return all;
}

std::vector<RunPlan> expand_manifest(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    if (files.empty()) {
      throw std::runtime_error("sweep: no *.json files in '" + path + "'");
    }
    return expand_files(std::move(files));
  }
  if (fs::is_regular_file(path, ec)) {
    return expand_files({path});
  }
  throw std::runtime_error("sweep: manifest '" + path +
                           "' is neither a file nor a directory");
}

std::string plan_to_jsonl(const RunPlan& plan) {
  std::ostringstream out;
  json::Writer w(out);
  w.begin_object()
      .kv("run", plan.index)
      .kv("source", plan.source)
      .kv("label", plan.label)
      .key("scenario");
  json::write(w, plan.scenario);
  w.end_object();
  return out.str();
}

RunPlan plan_from_jsonl(const std::string& line) {
  json::Value doc = json::parse(line);
  RunPlan plan;
  plan.index = static_cast<std::uint64_t>(doc.at("run").as_number());
  plan.source = doc.at("source").as_string();
  plan.label = doc.at("label").as_string();
  plan.scenario = doc.at("scenario");
  return plan;
}

}  // namespace eio::workloads
