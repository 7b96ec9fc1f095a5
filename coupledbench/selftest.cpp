// The benchmark's self-test, at a short length: the drivers must be the
// program being timed.
//   1. The benchmark-built coupled stack, driven by advance_interval, reaches
//      the STATE_DIGEST of scenario::Runner::run() for the quickstart and
//      coupled3d presets at equal interval counts (checkpoints included).
//   2. The traced, call-by-call schedule reaches the untraced digest.
//   3. The decomposed closed box on 4 ranks reaches the single-rank digest.

#include <cstdio>

#include "bench.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"

namespace bench {

namespace {

void expect_equal(std::vector<Check>& failed, const std::string& name, std::uint64_t got,
                  std::uint64_t want) {
  std::printf("%-48s %s\n", name.c_str(), got == want ? "ok" : "FAILED");
  if (got != want) failed.push_back({name, false, hex(got, 16) + " != " + hex(want, 16)});
}

}  // namespace

std::vector<Check> self_test(const std::string& work_dir) {
  telemetry::set_enabled(false);
  std::vector<Check> failed;
  for (scenario::Scenario sc : {scenario::quickstart_preset(), scenario::coupled3d_preset()}) {
    sc.time.develop_steps = 20;
    sc.time.intervals = 4;
    sc.time.sample_from = 2;
    sc.checkpoint.every = 2;
    sc.checkpoint.dir = work_dir + "/selftest-runner-" + sc.name;
    const std::uint32_t runner = scenario::Runner(sc).run().digest;
    const std::string dir = work_dir + "/selftest-bench-" + sc.name;
    const std::uint32_t untraced = coupled_digest(sc, dir, false);
    const std::uint32_t traced = coupled_digest(sc, dir, true);
    expect_equal(failed, sc.name + ": advance_interval digest == Runner", untraced, runner);
    expect_equal(failed, sc.name + ": traced digest == untraced", traced, untraced);
  }

  scenario::Json box = scenario::Json::array();
  for (double x : {16.0, 8.0, 10.0}) box.push(x);
  scenario::Json checks = scenario::Json::object();
  checks.set("temperature_tol", 1.0);
  scenario::Json closed = scenario::Json::object();
  closed.set("box", std::move(box));
  closed.set("density", 3.0);
  closed.set("seed", 5);
  closed.set("body_force", 0.05);
  closed.set("ranks", 4);
  closed.set("steps_per_interval", 10);
  closed.set("intervals", 3);
  closed.set("checks", std::move(checks));
  expect_equal(failed, "dpd_closed: 4-rank digest == single-rank", closed_digest(closed),
               closed_single_rank_digest(closed));
  return failed;
}

}  // namespace bench
