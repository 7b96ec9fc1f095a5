#pragma once
// Machine-readable bench output with a stable schema.
//
// Every bench binary builds a BenchReport next to its printf table, pushing
// the *same* computed values into both, and writes BENCH_<name>.json on
// exit. Consumers (CI, plotting scripts, regression tooling) parse:
//
//   {
//     "schema": "nektarg-bench-v1",
//     "name": "table4_strong_scaling",
//     "meta": {"<key>": <string|number>, ...},
//     "rows": [ {"<col>": <string|number>, ...}, ... ]
//   }
//
// Rows keep column insertion order. The file goes to $NEKTARG_BENCH_DIR when
// set (CI points this at an artifact dir), else the working directory.
//
// BenchGate is the shared pass/fail check a bench applies to its headline
// figure, with the threshold overridable from a NEKTARG_* variable.

#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace telemetry {

class BenchReport {
public:
  using Value = std::variant<double, std::string>;

  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void meta(const std::string& key, Value v) { meta_.emplace_back(key, std::move(v)); }

  /// Start a new row; subsequent set() calls fill it.
  void row() { rows_.emplace_back(); }
  void set(const std::string& key, Value v) { rows_.back().emplace_back(key, std::move(v)); }

  const std::string& name() const { return name_; }
  std::size_t row_count() const { return rows_.size(); }

  std::string to_json() const;

  /// Write BENCH_<name>.json into $NEKTARG_BENCH_DIR (or cwd) and return the
  /// path. Prints a one-line notice to stderr; I/O failure is reported there
  /// too but never aborts the bench.
  std::string write() const;

private:
  using Fields = std::vector<std::pair<std::string, Value>>;
  std::string name_;
  Fields meta_;
  std::vector<Fields> rows_;
};

/// A pass/fail gate on one bench figure. The threshold is `fallback` unless
/// the environment variable `env` is set; a set value must be a whole finite
/// number. An unparsable one fails the gate: read as 0 it would silently turn
/// a minimum gate off.
class BenchGate {
public:
  enum Kind { kMin, kMax };  ///< the figure must be >= / <= the threshold

  BenchGate(const char* env, double fallback, Kind kind);

  /// The threshold in force (NaN when the override is unparsable).
  double threshold() const { return threshold_; }

  /// The bench's exit status: 0 when `value` passes, else 1 after printing
  /// a `FAIL:` line naming `what`, the value and the gate.
  int check(const char* what, double value) const;

private:
  std::string env_;
  Kind kind_;
  double threshold_;
};

}  // namespace telemetry
