// coupledbench: driver of the coupled-run benchmark (see METRICS.md).
//
//   coupledbench run --input WORKLOAD.json --seconds S --trace 0|1 --work-dir DIR
//                    [--chrome-trace FILE]
//   coupledbench self-test --work-dir DIR
//
// `run` prints one JSON object on stdout: the raw timings of the untraced
// solutions, the correctness checks, and with --trace 1 the per-layer
// metrics. coupledbench/run.py builds the workload inputs and turns this
// output into the benchmark's result line.

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

scenario::Json to_json(const std::vector<double>& v) {
  scenario::Json a = scenario::Json::array();
  for (double x : v) a.push(x);
  return a;
}

scenario::Json to_json(const std::vector<bench::Check>& checks) {
  scenario::Json a = scenario::Json::array();
  for (const auto& c : checks) {
    scenario::Json o = scenario::Json::object();
    o.set("name", c.name);
    o.set("ok", c.ok);
    o.set("detail", c.detail);
    a.push(std::move(o));
  }
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

bool write_chrome_trace(const std::string& path, const std::vector<bench::Span>& spans) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"interval\":%d}}",
                  i ? "," : "", s.name, s.rank, s.t0_us, s.dur_us, s.interval);
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

int usage() {
  std::fprintf(stderr,
               "usage: coupledbench run --input FILE --seconds S --trace 0|1 --work-dir DIR "
               "[--chrome-trace FILE]\n"
               "       coupledbench self-test --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string input_path, chrome_trace;
  bench::RunConfig cfg;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--input")
      input_path = v;
    else if (a == "--seconds")
      cfg.seconds = std::stod(v);
    else if (a == "--trace")
      cfg.trace = v == "1";
    else if (a == "--work-dir")
      cfg.work_dir = v;
    else if (a == "--chrome-trace")
      chrome_trace = v;
    else
      return usage();
  }
  if (cfg.work_dir.empty()) return usage();

  try {
    if (mode == "self-test") {
      const auto failed = bench::self_test(cfg.work_dir);
      for (const auto& c : failed)
        std::fprintf(stderr, "FAIL %s: %s\n", c.name.c_str(), c.detail.c_str());
      if (failed.empty()) std::printf("coupledbench self-test: all checks passed\n");
      return failed.empty() ? 0 : 1;
    }
    if (mode != "run" || input_path.empty()) return usage();

    std::ifstream f(input_path);
    if (!f) throw std::runtime_error("cannot read " + input_path);
    std::stringstream ss;
    ss << f.rdbuf();
    const scenario::Json input = scenario::Json::parse(ss.str());
    const std::string kind = bench::field(input, "kind").as_string();
    bench::Outcome out;
    if (kind == "coupled")
      out = bench::run_coupled(input, cfg);
    else if (kind == "dpd_closed")
      out = bench::run_closed(input, cfg);
    else
      throw std::runtime_error("unknown workload kind '" + kind + "'");

    if (!chrome_trace.empty() && !write_chrome_trace(chrome_trace, out.spans))
      throw std::runtime_error("cannot write " + chrome_trace);
    scenario::Json res = scenario::Json::object();
    res.set("attempted", out.attempted);
    res.set("failed", out.failed);
    res.set("digest", out.digest);
    res.set("checks", to_json(out.checks));
    res.set("setup_s", to_json(out.setup_s));
    res.set("interval_ms", to_json(out.interval_ms));
    res.set("wall_s", to_json(out.wall_s));
    res.set("raw_setup_s", to_json(out.raw_setup_s));
    res.set("raw_interval_ms", to_json(out.raw_interval_ms));
    res.set("raw_wall_s", to_json(out.raw_wall_s));
    res.set("probe_ms", to_json(out.probe_ms));
    scenario::Json layers = scenario::Json::object();
    for (const auto& [name, v] : out.layers) layers.set(name, v);
    res.set("layers", std::move(layers));
    res.set("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", res.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coupledbench: %s\n", e.what());
    return 1;
  }
}
