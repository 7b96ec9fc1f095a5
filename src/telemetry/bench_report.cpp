#include "telemetry/bench_report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "telemetry/json.hpp"

namespace telemetry {

namespace {

void emit_fields(JsonWriter& w, const std::vector<std::pair<std::string, BenchReport::Value>>& fs) {
  w.begin_object();
  for (const auto& [key, v] : fs) {
    w.key(key);
    if (std::holds_alternative<double>(v))
      w.value(std::get<double>(v));
    else
      w.value(std::get<std::string>(v));
  }
  w.end_object();
}

}  // namespace

std::string BenchReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("nektarg-bench-v1");
  w.key("name");
  w.value(name_);
  w.key("meta");
  emit_fields(w, meta_);
  w.key("rows");
  w.begin_array();
  for (const auto& row : rows_) emit_fields(w, row);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string BenchReport::write() const {
  std::string dir = ".";
  if (const char* env = std::getenv("NEKTARG_BENCH_DIR"); env && *env) dir = env;
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench-report: cannot open %s for writing\n", path.c_str());
    return path;
  }
  out << to_json() << "\n";
  std::fprintf(stderr, "bench-report: wrote %s\n", path.c_str());
  return path;
}

BenchGate::BenchGate(const char* env, double fallback, Kind kind)
    : env_(env), kind_(kind), threshold_(fallback) {
  const char* v = std::getenv(env);
  if (!v) return;
  char* end = nullptr;
  threshold_ = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(threshold_)) {
    std::fprintf(stderr, "bench gate: %s='%s' is not a number\n", env, v);
    threshold_ = std::numeric_limits<double>::quiet_NaN();
  }
}

int BenchGate::check(const char* what, double value) const {
  if (std::isnan(threshold_)) {
    std::printf("FAIL: %s is not a number\n", env_.c_str());
    return 1;
  }
  const bool pass = kind_ == kMin ? value >= threshold_ : value <= threshold_;
  if (pass) return 0;
  std::printf("FAIL: %s %.2f %s gate %.2f (%s)\n", what, value,
              kind_ == kMin ? "below" : "above", threshold_, env_.c_str());
  return 1;
}

}  // namespace telemetry
