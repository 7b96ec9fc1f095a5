#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"

namespace bench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

const scenario::Json& field(const scenario::Json& obj, const char* key) {
  const scenario::Json* v = obj.find(key);
  if (!v) throw std::runtime_error(std::string("workload input: missing \"") + key + "\"");
  return *v;
}

std::string hex(std::uint64_t v, int digits) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%0*llx", digits, static_cast<unsigned long long>(v));
  return buf;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.dur_us * 1e-3);
  return out;
}

double SpanLog::total_s(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) t += s.dur_us * 1e-6;
  return t;
}

double phase_seconds(const telemetry::PhaseNode& node, const std::string& name) {
  double t = 0.0;
  for (const auto& c : node.children) t += c.name == name ? c.seconds : phase_seconds(c, name);
  return t;
}

std::uint64_t phase_count(const telemetry::PhaseNode& node, const std::string& name) {
  std::uint64_t n = 0;
  for (const auto& c : node.children) n += c.name == name ? c.count : phase_count(c, name);
  return n;
}

double counter(const std::map<std::string, telemetry::CounterValue>& c,
               const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second.value;
}

void Outcome::record(double setup, const std::vector<double>& intervals,
                     const std::vector<double>& probes) {
  std::vector<double> spans{setup * 1e3};
  spans.insert(spans.end(), intervals.begin(), intervals.end());
  const std::vector<double> fixed = host_corrected(spans, probes);
  setup_s.push_back(fixed[0] * 1e-3);
  interval_ms.insert(interval_ms.end(), fixed.begin() + 1, fixed.end());
  wall_s.push_back(std::accumulate(fixed.begin(), fixed.end(), 0.0) * 1e-3);
  raw_setup_s.push_back(setup);
  raw_interval_ms.insert(raw_interval_ms.end(), intervals.begin(), intervals.end());
  raw_wall_s.push_back(std::accumulate(spans.begin(), spans.end(), 0.0) * 1e-3);
  probe_ms.insert(probe_ms.end(), probes.begin(), probes.end());
}

void Outcome::check(const std::string& name, bool ok, std::string detail) {
  if (!ok) ++check_failures;
  for (Check& c : checks)
    if (c.name == name) {
      if (c.ok) {
        c.ok = ok;
        c.detail = std::move(detail);
      }
      return;
    }
  checks.push_back({name, ok, std::move(detail)});
}

}  // namespace bench
