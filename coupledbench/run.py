#!/usr/bin/env python3
"""Coupled-run benchmark of NεκTαrG (see coupledbench/METRICS.md).

Builds the benchmark driver from the checkout's sources, generates the
workload input from --seed, runs it for --seconds, checks its outputs and
prints one JSON result line as the last line of stdout:

    python3 coupledbench/run.py --workload coupled2d_open --seed 1 --seconds 20 --trace 0
    python3 coupledbench/run.py --self-test

Run from anywhere inside a checkout; everything it writes stays in the
checkout: .bench_build/ (build tree), .bench_work/ (checkpoints, removed after
the run) and .bench_results/ (per-run result files, inputs, Chrome traces).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
BINARY = BUILD / "coupledbench"
SCENARIOS = ROOT / "examples" / "scenarios"

# Wall-clock limit of one invocation after the build (the contract allows 180 s).
RUN_LIMIT_S = 170.0


def seeds(seed, n):
    """n 31-bit seeds derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(n)]


def coupled2d_open(seed):
    sc = json.loads((SCENARIOS / "quickstart.json").read_text())
    sc["dpd"]["seed"], sc["flow_bc"]["seed"] = seeds(seed, 2)
    return {
        "kind": "coupled",
        "scenario": sc,
        # Seeds 11-16: max |T - kBT| 2.42-2.53 (T includes the imposed flow),
        # particles/fill 1.019-1.176, final mismatch 1.29-1.37.
        "checks": {"temperature_tol": 3.5, "count_band": [0.95, 1.3], "mismatch_max": 2.0},
    }


def coupled3d_sem(seed):
    sc = json.loads((SCENARIOS / "coupled3d.json").read_text())
    sc["dpd"]["seed"], sc["flow_bc"]["seed"] = seeds(seed, 2)
    # The hex continuum refined so SEM carries most of each interval, and the
    # DPD box halved along the flow (inflow cross-section unchanged, so FlowBc
    # still inserts and deletes every step) with its continuum region halved
    # to match. Few develop steps keep set-up short; checkpoints every 4
    # intervals.
    sc["mesh3d"].update({"nx": 8, "ny": 2, "nz": 4, "order": 5})
    sc["dpd"]["box"][0] = 8
    sc["coupling"]["region"][1] = 2.0
    sc["time"].update({"intervals": 16, "develop_steps": 5, "sample_from": 8})
    sc["checkpoint"]["every"] = 4
    return {
        "kind": "coupled",
        "scenario": sc,
        # Seeds 11-16: max |T - kBT| 3.98-4.12, particles/fill 1.026-1.248,
        # final mismatch 0.19-0.22.
        "checks": {"temperature_tol": 5.5, "count_band": [0.95, 1.4], "mismatch_max": 0.5},
    }


def dpd_closed_4r(seed):
    return {
        "kind": "dpd_closed",
        "box": [32, 16, 10],
        "density": 3,
        "seed": seeds(seed, 1)[0],
        "body_force": 0.05,
        "ranks": 4,
        # An interval is one step: about one step in three rebuilds the
        # neighbor lists, so multi-step intervals fall into two modes (3 or 4
        # rebuilds per 10 steps) and the median flips between them with the
        # seed. Per step, p50 is a reuse step and p90 a rebuild step.
        "steps_per_interval": 1,
        "intervals": 60,
        # Seeds 401-410: |T - kBT| 0.52-0.56 after the 60 steps (the random
        # fill releases its overlap energy as heat).
        "checks": {"temperature_tol": 1.0},
    }


WORKLOADS = {
    "coupled2d_open": coupled2d_open,
    "coupled3d_sem": coupled3d_sem,
    "dpd_closed_4r": dpd_closed_4r,
}

END_TO_END = {
    "setup_s": "s",
    "interval_ms.p50": "ms",
    "interval_ms.p90": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sem.step_ms": "ms",
    "sem.develop_s": "s",
    "sem.share": "fraction",
    "sem.pressure_share": "fraction",
    "cg.iters_per_solve": "count",
    "dpd.step_ms": "ms",
    "dpd.share": "fraction",
    "dpd.nlist.build_share": "fraction",
    "dpd.nlist.rebuild_frac": "fraction",
    "dpd.kernel_ms": "ms",
    "dpd.pairs_per_step": "count",
    "dpd.particle_steps_per_s": "1/s",
    "flowbc.apply_ms": "ms",
    "flowbc.churn_per_step": "count",
    "sampler.accumulate_ms": "ms",
    "coupling.interp_per_interval": "count",
    "ckpt.save_ms": "ms",
    "ckpt.bytes": "bytes",
    "exchange.share": "fraction",
    "exchange.halo_bytes_per_step": "bytes",
    "exchange.migrations_per_step": "count",
    "exchange.imbalance": "ratio",
    "exchange.wait_ms": "ms",
    "xmp.msgs_per_step": "count",
    "xmp.bytes_per_step": "bytes",
    "unattributed_share": "fraction",
    "trace_overhead": "fraction",
    "raw.setup_s": "s",
    "raw.interval_ms.p50": "ms",
    "host.probe_ms": "ms",
}


def fail(msg, code=2):
    print(f"coupledbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the driver incrementally; output goes to a log."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "a") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", str(BUILD), "--target", "coupledbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed, see {BUILD / 'build.log'}", 1)


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0 or not out.stdout:
            return None
        return out.stdout.splitlines()[0].strip()
    except OSError:
        return None


def fingerprint():
    """Host and build identity, so numbers from different hosts never mix silently."""
    cpu = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    flags = cpu.get("flags", "").split()
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            src.update(str(path.relative_to(ROOT)).encode())
            src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": (first_line(["git", "rev-parse", "HEAD"])
                       if (ROOT / ".git").exists() else None),
        "source_sha256": src.hexdigest(),
        "binary_sha256": hashlib.sha256(BINARY.read_bytes()).hexdigest(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("XMP_SCHED") or k == "XMP_CHECK"},
    }


def quantile(values, q):
    """Linear-interpolation quantile, the driver's own definition."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def digest_repeats(key, digest):
    """The state digest of one (binary, input) must repeat across runs."""
    path = RESULTS / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    previous = known.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return previous == digest, f"{digest} vs earlier run {previous}"


def run(args):
    for path in (ROOT / "src" / "scenario" / "runner.hpp", SCENARIOS / "quickstart.json"):
        if not path.exists():
            fail(f"not inside a nektarg checkout: {path} is missing")
    build()
    t0 = time.monotonic()
    RESULTS.mkdir(exist_ok=True)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inp = WORKLOADS[args.workload](args.seed)
    input_path = RESULTS / f"{stem}.input.json"
    input_path.write_text(json.dumps(inp, indent=1))
    cmd = [str(BINARY), "run", "--input", str(input_path), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    trace_path = RESULTS / f"{args.workload}-seed{args.seed}.trace.json"
    if args.trace:
        cmd += ["--chrome-trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S - (time.monotonic() - t0))
    except subprocess.TimeoutExpired:
        fail("driver timed out", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", 1)
    out = json.loads(proc.stdout)
    if not out["interval_ms"] or (args.trace and not out["layers"]):
        fail(f"every solution failed: {out['checks']}", 1)

    host = fingerprint()
    checks = out["checks"]
    input_sha = hashlib.sha256(input_path.read_bytes()).hexdigest()
    ok, detail = digest_repeats(f"{host['binary_sha256'][:16]}|{input_sha[:16]}", out["digest"])
    checks.append({"name": "digest_across_runs", "ok": ok, "detail": detail})
    correct = all(c["ok"] for c in checks) and out["failed"] == 0
    for c in checks:
        if not c["ok"]:
            print(f"coupledbench: check {c['name']} failed: {c['detail']}", file=sys.stderr)

    samples = out["interval_ms"]
    p90 = quantile(samples, 0.9)
    if args.trace:
        values = dict(out["layers"])
        values["raw.setup_s"] = statistics.median(out["raw_setup_s"])
        values["raw.interval_ms.p50"] = quantile(out["raw_interval_ms"], 0.5)
        values["host.probe_ms"] = statistics.median(out["probe_ms"])
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(out["setup_s"]),
            "interval_ms.p50": quantile(samples, 0.5),
            "interval_ms.p90": p90,
            "wall_s": statistics.median(out["wall_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    tail = sum(1 for x in samples if x > p90)
    if tail < 10 and not args.trace:
        print(f"coupledbench: only {tail} intervals above p90; lengthen the run",
              file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": host,
        "input": inp,
        "intervals_sampled": len(samples),
        "intervals_above_p90": tail,
        "chrome_trace": str(trace_path.relative_to(ROOT)) if args.trace else None,
        "driver": out,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


def self_test():
    if not (ROOT / "src" / "scenario" / "runner.hpp").exists():
        fail("not inside a nektarg checkout")
    build()
    work = WORK / "self-test"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        code = subprocess.run([str(BINARY), "self-test", "--work-dir", str(work)]).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the drivers against the library's own entry points")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    elif not args.workload:
        ap.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
