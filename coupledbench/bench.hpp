#pragma once
// Shared pieces of the coupled-run benchmark driver: timing, the in-memory
// span log of the traced run, percentile helpers, readers for the
// telemetry registry's phase tree and counters, and the per-run outcome that
// main.cpp turns into the result JSON. See coupledbench/METRICS.md.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/json.hpp"
#include "scenario/schema.hpp"
#include "telemetry/registry.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);
/// Member `key` of a JSON object; throws naming the key when it is absent.
const scenario::Json& field(const scenario::Json& obj, const char* key);
/// Digest as fixed-width hex (`digits` nibbles).
std::string hex(std::uint64_t v, int digits);

/// One closed span of the traced run (Chrome trace "X" event).
struct Span {
  const char* name;
  int rank;
  int interval;
  double t0_us;
  double dur_us;
};

/// Spans recorded by the benchmark around its calls into the library; kept
/// in memory and written out once the run ends. One log per rank: a rank
/// only ever appends to its own.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, int rank) : epoch_(epoch), rank_(rank) {}

  void add(const char* name, int interval, Clock::time_point t0, Clock::time_point t1) {
    spans_.push_back({name, rank_, interval, us(t0), us(t1) - us(t0)});
  }
  template <class Fn>
  void time(const char* name, int interval, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    add(name, interval, t0, Clock::now());
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in ms of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Summed duration in seconds of every span called `name`.
  double total_s(const std::string& name) const;

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  int rank_;
  std::vector<Span> spans_;
};

/// Inclusive seconds / entry count of every phase called `name` anywhere in
/// the tree (a matched phase's own subtree is not searched again).
double phase_seconds(const telemetry::PhaseNode& node, const std::string& name);
std::uint64_t phase_count(const telemetry::PhaseNode& node, const std::string& name);
/// Summed value of a counter; 0 when it was never incremented.
double counter(const std::map<std::string, telemetry::CounterValue>& c,
               const std::string& name);

/// Host-speed correction (probe.cpp; METRICS.md, "Host-speed correction").
/// Time in ms of one warm sweep of a fixed reference kernel that uses nothing
/// from the library, so it moves only with the load on the host.
double probe_ms();
/// About the fastest the probe runs on the reference host: the 5th percentile
/// of 600 sweeps on each vCPU of a 4-vCPU Intel Xeon guest, Release build
/// (gcc -O3). Corrected times are those of a host that runs the probe in it.
inline constexpr double kProbeRefMs = 0.9;
/// spans[k] ran between probes[k] and probes[k + 1]. Each span is scaled by
/// kProbeRefMs over the mean of those two probes.
std::vector<double> host_corrected(const std::vector<double>& spans,
                                   const std::vector<double>& probes);

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

/// What one invocation measured. Timings are from untraced solutions only;
/// `layers` holds the per-layer metrics of the traced solutions.
struct Outcome {
  // Host-corrected timings (see host_corrected).
  std::vector<double> setup_s;      ///< per timed solution
  std::vector<double> interval_ms;  ///< every interval of every timed solution
  std::vector<double> wall_s;       ///< per timed solution: setup + all intervals
  // The same timings as measured, and every probe around them.
  std::vector<double> raw_setup_s, raw_interval_ms, raw_wall_s, probe_ms;
  std::size_t attempted = 0;        ///< solutions started (timed, traced, checking)
  std::size_t failed = 0;           ///< solutions that threw or failed a check
  std::string digest;               ///< state digest every solution must reach
  std::vector<Check> checks;        ///< one entry per check name, failed if any run failed
  std::size_t check_failures = 0;   ///< failed check() calls, for per-solution accounting
  std::map<std::string, double> layers;
  std::vector<Span> spans;  ///< traced run, for the Chrome trace

  /// Book one timed solution: its set-up, its intervals and the probes taken
  /// before the set-up, between the spans and after the last interval.
  void record(double setup_s, const std::vector<double>& interval_ms,
              const std::vector<double>& probes);
  /// Record one evaluation of a named check; the entry keeps the first
  /// failing detail, or the latest detail while it holds.
  void check(const std::string& name, bool ok, std::string detail);
};

struct RunConfig {
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< checkpoints and other scratch output
};

/// A workload input document (written by run.py) decides which driver runs.
Outcome run_coupled(const scenario::Json& input, const RunConfig& cfg);
Outcome run_closed(const scenario::Json& input, const RunConfig& cfg);

/// Final state digest of one solution, for the self-test: the coupled stack
/// driven through advance_interval (or call by call when `traced`), and the
/// decomposed box on its ranks and on one rank.
std::uint32_t coupled_digest(const scenario::Scenario& sc, const std::string& ckpt_dir,
                             bool traced);
std::uint64_t closed_digest(const scenario::Json& input);
std::uint64_t closed_single_rank_digest(const scenario::Json& input);

/// Short-length equivalence checks of the drivers against the library's own
/// entry points; returns the failed checks (empty on success).
std::vector<Check> self_test(const std::string& work_dir);

}  // namespace bench
