#!/usr/bin/env python3
"""Repo-specific lint rules (stdlib only; CI runs this as a hard gate).

Rules
-----
memcpy-divisibility
    A memcpy whose byte-count expression does not mention sizeof is copying
    into/out of a typed buffer with a count computed elsewhere; it must be
    preceded (within 12 lines) by a `% sizeof` divisibility check, or carry a
    `// lint: memcpy-ok (<reason>)` marker on the call or just above it.
    This is the bug class behind gatherv/recv silently truncating odd-sized
    payloads.

collective-trace
    In src/xmp, every call into the byte-collecting collective primitives
    (collect_bytes_all / collect_bytes) must either be preceded (within 25
    lines) by trace attribution (trace_transfer / trace_allreduce /
    emit_trace) or carry a `// lint: no-trace (<reason>)` marker: new
    collectives must report their logical transfers to the trace hook the
    machine model replays.

dpd-no-std-function
    Headers under src/dpd/ must not take or store `std::function` unless the
    line (or the 2 lines above it) carries a `// lint: std-function-ok
    (<reason>)` marker. std::function in a DPD interface is how an indirect
    call per pair crept into the hot loop before the Verlet-list fast path
    (see docs/PERF.md); pair iteration must stay templated. The marker is for
    setup-time callbacks (body force, coupling velocity fields) that are
    evaluated at most once per particle, never per pair.

sem-hot-alloc
    Inside `apply_*` / `elem_*` function bodies under src/sem/, constructing
    a `std::vector` or an `la::Vector` is a per-apply heap allocation in the
    operator hot path (the SEM fast path hoists all element scratch into
    persistent members; see docs/PERF.md). The point evaluation
    (`evaluate`, `point_basis`, `lagrange_basis_fill`), which the
    continuum-DPD coupler runs for every particle in the flux-BC buffer, is
    gated the same way: its bases live in fixed scratch. Lines must carry a
    `// lint: sem-alloc-ok (<reason>)` marker (on the line or the 2 lines
    above) to opt out — used by the retained `_reference` baselines, which
    deliberately keep the per-call scratch they are benchmarked against.

exchange-hot-alloc
    Inside the halo/migration fast-path bodies under src/dpd/exchange/
    (`update` and the `pack_*` / `unpack_*` packers), constructing a
    `std::vector` is a per-force-pass heap allocation; the exchangers hoist
    all pack/recv scratch into persistent members (see docs/PERF.md). Lines
    opt out with a `// lint: exchange-alloc-ok (<reason>)` marker (on the
    line or the 2 lines above). Cold paths (build, plan construction,
    migration merges) are not gated.

nlist-hot-alloc
    Inside the Verlet-list bodies of src/dpd/neighbor.{hpp,cpp} that run per
    particle or per force evaluation (`ensure`, `append`, `query`, the
    counting sort `sort_bins`, `for_each_window_cell`,
    `for_each_binned_near`, `cells_along`), constructing a `std::vector`
    allocates per call, i.e. per particle in a build. Lines opt out with a
    `// lint: nlist-alloc-ok (<reason>)` marker (on the line or the 2 lines
    above).

The three *-hot-alloc rules are rows of one table (HOT_ALLOC_RULES): a path
prefix, a hot-function regex, an opt-out marker and a rule id.

sched-context
    Rank-visible code (src/xmp/, src/telemetry/) must not introduce raw
    `thread_local` state or call `std::this_thread::get_id`: with the fiber
    backend (src/xmp/sched/) a rank migrates between OS threads at every
    blocking point, so thread identity is NOT rank identity. Use
    xmp::sched::current_rank() / rank_local_slot() instead. The scheduler's
    own context variables opt out with a `// lint: sched-context-ok
    (<reason>)` marker on the line or within 2 lines above.

scenario-schema-sync
    In src/scenario/schema.cpp, every parse_<x> / serialize_<x> function pair
    must consume and emit the same JSON key set: the parse side reads keys
    through the Fields accessors (`.req*("key")` / `.opt*("key")`), the
    serialize side writes them with `.set("key", ...)`. A key present on one
    side only means a scenario field round-trips silently wrong (parsed but
    never re-emitted, or emitted but rejected on re-parse), which breaks the
    bitwise re-emit guarantee the scenario tests pin.

pragma-once
    Every header under src/ starts with `#pragma once`.

no-using-namespace
    No `using namespace std` (headers or sources).

Usage:  python3 tools/lint.py [--self-test] [paths...]
Exit status is non-zero iff findings (or a self-test failure).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# The token-level rules (memcpy-divisibility, sched-context, the *-hot-alloc
# rules, dpd-no-std-function) match against comment/string-stripped lines
# produced by the analyzer's C++ tokenizer, so a rule name mentioned in a
# comment or a log string is never a finding. Markers, by contrast, live in
# comments and are matched on the raw lines.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "analyze"))
from tokenizer import code_only_lines  # noqa: E402

MEMCPY_BACKWINDOW = 12
TRACE_BACKWINDOW = 25
MARKER_BACKWINDOW = 2

MEMCPY_RE = re.compile(r"\bmemcpy\s*\(")
COLLECT_RE = re.compile(r"\b(collect_bytes_all|collect_bytes)\s*\(")
TRACE_RE = re.compile(r"\b(trace_transfer|trace_allreduce|emit_trace)\b")
DIVCHECK_RE = re.compile(r"%\s*sizeof")
MEMCPY_OK_RE = re.compile(r"//\s*lint:\s*memcpy-ok")
NO_TRACE_RE = re.compile(r"//\s*lint:\s*no-trace")
STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
STD_FUNCTION_OK_RE = re.compile(r"//\s*lint:\s*std-function-ok")
STD_VECTOR_CTOR_RE = re.compile(r"\bstd\s*::\s*vector\s*<")
LA_VECTOR_CTOR_RE = re.compile(r"\bla\s*::\s*Vector\s*[\w({]")
THREAD_IDENTITY_RE = re.compile(r"\bthread_local\b|\bstd\s*::\s*this_thread\s*::\s*get_id\b")
SCHED_CONTEXT_OK_RE = re.compile(r"//\s*lint:\s*sched-context-ok")
SCHEMA_FN_RE = re.compile(r"\b(parse|serialize)_(\w+)\s*\(")
SCHEMA_PARSE_KEY_RE = re.compile(r"\.(?:req|opt)\w*\(\s*\"([^\"]+)\"")
SCHEMA_SET_KEY_RE = re.compile(r"\.set\(\s*\"([^\"]+)\"")


def _hot_fn_re(names: str) -> re.Pattern:
    return re.compile(r"\b(?:\w+\s*::\s*)?(" + names + r")\s*\(")


# (path prefix, hot-function regex, opt-out marker, rule id, hot-path name
# for the message)
HOT_ALLOC_RULES = [
    ("src/sem/", _hot_fn_re(r"(?:apply_|elem_)\w*|evaluate|point_basis|lagrange_basis_fill"),
     "sem-alloc-ok", "sem-hot-alloc", "an apply_*/elem_* SEM operator or a point evaluation"),
    ("src/dpd/exchange/", _hot_fn_re(r"update|pack_\w+|unpack_\w+"), "exchange-alloc-ok",
     "exchange-hot-alloc", "a halo update/pack_*/unpack_*"),
    ("src/dpd/neighbor.",
     _hot_fn_re(r"ensure|append|query|sort_bins|for_each_window_cell|for_each_binned_near"
                r"|cells_along"),
     "nlist-alloc-ok", "nlist-hot-alloc", "a Verlet-list ensure/append/query/bin-sort/cell-walk"),
]


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def balanced_call_text(lines: list[str], line_idx: int, open_pos: int) -> str:
    """Text of a call from its opening paren to the matching close (spans lines)."""
    depth = 0
    out: list[str] = []
    i, j = line_idx, open_pos
    while i < len(lines):
        line = lines[i]
        while j < len(line):
            c = line[j]
            out.append(c)
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
            j += 1
        out.append(" ")
        i, j = i + 1, 0
    return "".join(out)  # unbalanced: return what we saw


def marker_near(lines: list[str], idx: int, marker: re.Pattern, back: int) -> bool:
    lo = max(0, idx - back)
    return any(marker.search(lines[k]) for k in range(lo, idx + 1))


def is_declaration(line: str, name_start: int) -> bool:
    """True when `name(` at name_start is a function declaration/definition,
    i.e. directly preceded by a type (identifier, `>`, `&`, `*`) rather than
    an operator or statement keyword."""
    before = line[:name_start].rstrip()
    if not before:
        return False
    # Strip a `Comm::`/`ns::detail::` qualifier chain: `Type Comm::name(` is an
    # out-of-line definition (return type precedes the qualifier) while
    # `x = ns::name(...)` is a qualified call.
    m = re.search(r"(?:\w+\s*::\s*)+$", before)
    if m:
        before = before[:m.start()].rstrip()
        if not before:
            return False
    if re.search(r"\b(return|co_return|co_yield|throw)$", before):
        return False
    return before[-1].isalnum() or before[-1] in ">&*_,"


def vector_ctor_on_line(line: str) -> bool:
    """True if the line mentions `std::vector<...>` or `la::Vector` as a
    *construction* — a value declaration or temporary that allocates — rather
    than a reference or pointer type mention (`std::vector<T>&` parameters,
    `std::vector<T>*` lane tables, `const la::Vector& field`), which
    allocates nothing. Template args that spill onto the next line are
    treated as a construction (conservative)."""
    if LA_VECTOR_CTOR_RE.search(line):
        return True
    for m in STD_VECTOR_CTOR_RE.finditer(line):
        depth = 1
        j = m.end()
        while j < len(line) and depth:
            if line[j] == "<":
                depth += 1
            elif line[j] == ">":
                depth -= 1
            j += 1
        if depth:
            return True
        while j < len(line) and line[j].isspace():
            j += 1
        if j >= len(line) or line[j] not in "&*":
            return True
    return False


def hot_fn_ranges(lines: list[str], fn_re: re.Pattern) -> list[tuple[int, int]]:
    """Line ranges (inclusive) of the BODIES of functions matching fn_re.

    A match followed by `;` before any `{` is a declaration or a call and
    opens no range; a match followed by `{` opens one that ends when the
    brace depth returns to zero. Brace counting ignores strings/comments,
    which is fine for the code this gates."""
    ranges: list[tuple[int, int]] = []
    n = len(lines)
    i = 0
    while i < n:
        m = fn_re.search(lines[i])
        if not m:
            i += 1
            continue
        j, pos = i, m.end()
        opened = False
        while j < n:
            stop = None
            for k in range(pos, len(lines[j])):
                if lines[j][k] in ";{":
                    stop = (lines[j][k], k)
                    break
            if stop:
                opened = stop[0] == "{"
                break
            j, pos = j + 1, 0
        if j >= n:
            break
        if not opened:
            i = j + 1
            continue
        depth = 0
        start = j
        k = stop[1]
        while j < n:
            for c in lines[j][k:]:
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth == 0:
                        ranges.append((start, j))
                        break
            if depth == 0:
                break
            j, k = j + 1, 0
        i = j + 1
    return ranges


def schema_sync_findings(rel: str, lines: list[str]) -> list[Finding]:
    """Pair parse_<x>/serialize_<x> bodies and compare their key sets.

    Definitions in schema.cpp sit at column 0; indented matches are call
    sites. The parse side's keys come from Fields accessors (.req*/.opt*),
    the serialize side's from .set. Key sets are unions over all branches, so
    kind-conditional sections compare correctly as long as both sides branch
    over the same keys."""
    fns: dict[str, dict[str, tuple[int, set[str]]]] = {"parse": {}, "serialize": {}}
    n = len(lines)
    i = 0
    while i < n:
        line = lines[i]
        m = SCHEMA_FN_RE.search(line)
        if not m or not line[:1].strip() or "(" not in line:
            i += 1
            continue
        # Find `{` (definition) or `;` (declaration/call statement) first.
        j, pos = i, m.end()
        opened = None
        while j < n and opened is None:
            for c in lines[j][pos:]:
                if c in ";{":
                    opened = c == "{"
                    break
            if opened is None:
                j, pos = j + 1, 0
        if not opened:
            i = j + 1
            continue
        depth, body_start = 0, j
        while j < n:
            depth += lines[j].count("{") - lines[j].count("}")
            if depth <= 0 and j >= body_start:
                break
            j += 1
        body = "\n".join(lines[body_start : j + 1])
        key_re = SCHEMA_PARSE_KEY_RE if m.group(1) == "parse" else SCHEMA_SET_KEY_RE
        keys = set(key_re.findall(body))
        prev = fns[m.group(1)].get(m.group(2))
        if prev:  # overloads merge
            keys |= prev[1]
        fns[m.group(1)][m.group(2)] = (i, keys)
        i = j + 1

    findings: list[Finding] = []
    for suffix in sorted(set(fns["parse"]) | set(fns["serialize"])):
        p = fns["parse"].get(suffix)
        s = fns["serialize"].get(suffix)
        if p is None or s is None:
            present, kind = (p, "parse") if s is None else (s, "serialize")
            missing = "serialize" if s is None else "parse"
            if present[1]:  # helpers with no keys (parse_scenario_text) are fine
                findings.append(Finding(
                    rel, present[0] + 1, "scenario-schema-sync",
                    f"{kind}_{suffix} consumes keys {sorted(present[1])} but "
                    f"{missing}_{suffix} does not exist; every schema struct needs "
                    "a parse/serialize pair over the same keys"))
            continue
        only_parse = sorted(p[1] - s[1])
        only_ser = sorted(s[1] - p[1])
        if only_parse:
            findings.append(Finding(
                rel, s[0] + 1, "scenario-schema-sync",
                f"serialize_{suffix} never emits key(s) {only_parse} that "
                f"parse_{suffix} consumes: the field would vanish on re-emit"))
        if only_ser:
            findings.append(Finding(
                rel, p[0] + 1, "scenario-schema-sync",
                f"parse_{suffix} never consumes key(s) {only_ser} that "
                f"serialize_{suffix} emits: the emitted document would fail "
                "strict re-parse"))
    return findings


def lint_file(path: pathlib.Path, repo_root: pathlib.Path) -> list[Finding]:
    rel = str(path.relative_to(repo_root))
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    # comment/string-stripped view, padded to the same length
    clines = code_only_lines(text)
    clines = (clines + [""] * len(lines))[:len(lines)]
    findings: list[Finding] = []

    in_src = rel.startswith("src/")
    in_xmp = rel.startswith("src/xmp/")
    in_dpd_header = rel.startswith("src/dpd/") and path.suffix == ".hpp"
    in_rank_visible = in_xmp or rel.startswith("src/telemetry/")

    if rel == "src/scenario/schema.cpp":
        findings.extend(schema_sync_findings(rel, lines))

    for prefix, fn_re, marker, rule, what in HOT_ALLOC_RULES:
        if not rel.startswith(prefix):
            continue
        marker_re = re.compile(r"//\s*lint:\s*" + marker)
        for lo, hi in hot_fn_ranges(clines, fn_re):
            for i in range(lo, hi + 1):
                if vector_ctor_on_line(clines[i]) and not marker_near(
                        lines, i, marker_re, MARKER_BACKWINDOW):
                    findings.append(Finding(
                        rel, i + 1, rule,
                        f"std::vector / la::Vector construction inside {what} hot path "
                        "allocates per call; use persistent member scratch, or "
                        f"mark a deliberate case with `// lint: {marker} (<reason>)`"))

    if in_src and path.suffix == ".hpp":
        head = [l.strip() for l in lines[:5]]
        if "#pragma once" not in head:
            findings.append(Finding(rel, 1, "pragma-once",
                                    "header does not start with #pragma once"))

    for i, line in enumerate(lines):
        if re.search(r"\busing\s+namespace\s+std\b", line):
            findings.append(Finding(rel, i + 1, "no-using-namespace",
                                    "do not import namespace std wholesale"))

        if in_src:
            for m in MEMCPY_RE.finditer(clines[i]):
                call = balanced_call_text(clines, i, m.end() - 1)
                if "sizeof" in call:
                    continue  # count is sizeof-derived: divisibility is structural
                if marker_near(lines, i, MEMCPY_OK_RE, MARKER_BACKWINDOW):
                    continue
                lo = max(0, i - MEMCPY_BACKWINDOW)
                if any(DIVCHECK_RE.search(clines[k]) for k in range(lo, i)):
                    continue
                findings.append(Finding(
                    rel, i + 1, "memcpy-divisibility",
                    "memcpy with a non-sizeof byte count needs a preceding `% sizeof` "
                    "divisibility check or a `// lint: memcpy-ok (<reason>)` marker"))

        if in_rank_visible and THREAD_IDENTITY_RE.search(clines[i]):
            if not marker_near(lines, i, SCHED_CONTEXT_OK_RE, MARKER_BACKWINDOW):
                findings.append(Finding(
                    rel, i + 1, "sched-context",
                    "thread_local / this_thread::get_id in rank-visible code: "
                    "fiber ranks migrate between OS threads, so thread identity "
                    "is not rank identity; use xmp::sched::current_rank() / "
                    "rank_local_slot(), or mark scheduler-internal state with "
                    "`// lint: sched-context-ok (<reason>)`"))

        if in_dpd_header and STD_FUNCTION_RE.search(clines[i]):
            if not marker_near(lines, i, STD_FUNCTION_OK_RE, MARKER_BACKWINDOW):
                findings.append(Finding(
                    rel, i + 1, "dpd-no-std-function",
                    "std::function in a DPD header puts an indirect call in "
                    "reach of the pair hot loop; template the callback, or "
                    "mark a setup-time one with `// lint: std-function-ok "
                    "(<reason>)`"))

        if in_xmp:
            for m in COLLECT_RE.finditer(line):
                if is_declaration(line, m.start()):
                    continue
                if marker_near(lines, i, NO_TRACE_RE, 3):
                    continue
                lo = max(0, i - TRACE_BACKWINDOW)
                if any(TRACE_RE.search(lines[k]) for k in range(lo, i + 1)):
                    continue
                findings.append(Finding(
                    rel, i + 1, "collective-trace",
                    f"{m.group(1)} call without nearby trace attribution "
                    "(trace_transfer/trace_allreduce) or a `// lint: no-trace "
                    "(<reason>)` marker: collectives must report their logical "
                    "transfers"))

    return findings


def collect_targets(paths: list[str], repo_root: pathlib.Path) -> list[pathlib.Path]:
    exts = {".hpp", ".cpp"}
    roots = [repo_root / p for p in paths] if paths else [
        repo_root / "src", repo_root / "tests", repo_root / "bench", repo_root / "examples"]
    out: list[pathlib.Path] = []
    for r in roots:
        if r.is_file():
            out.append(r)
        elif r.is_dir():
            out.extend(p for p in sorted(r.rglob("*")) if p.suffix in exts)
    return out


# ---- self test --------------------------------------------------------------

SELF_TEST_CASES = [
    # (pseudo-path, source, expected rule ids)
    ("src/xmp/bad.hpp",
     "int f();\n",
     {"pragma-once"}),
    ("src/xmp/good.hpp",
     "#pragma once\nint f();\n",
     set()),
    ("src/a/bad_memcpy.cpp",
     "void f(char* d, const char* s, unsigned n) {\n  std::memcpy(d, s, n);\n}\n",
     {"memcpy-divisibility"}),
    ("src/a/ok_memcpy_sizeof.cpp",
     "void f(double* d, const char* s, unsigned n) {\n"
     "  std::memcpy(d, s,\n              n * sizeof(double));\n}\n",
     set()),
    ("src/a/ok_memcpy_checked.cpp",
     "void f(double* d, const std::vector<char>& s) {\n"
     "  if (s.size() % sizeof(double)) throw 1;\n  std::memcpy(d, s.data(), s.size());\n}\n",
     set()),
    ("src/a/ok_memcpy_marker.cpp",
     "void f(char* d, const char* s, unsigned n) {\n"
     "  // lint: memcpy-ok (raw bytes)\n  std::memcpy(d, s, n);\n}\n",
     set()),
    ("src/xmp/bad_collective.cpp",
     "void f(xmp::Comm& c) {\n  auto b = c.collect_bytes_all(nullptr, 0);\n}\n",
     {"collective-trace"}),
    ("src/xmp/ok_collective_traced.cpp",
     "void f(xmp::Comm& c) {\n  c.trace_transfer(0, 1, 8, xmp::TraceKind::Bcast);\n"
     "  auto b = c.collect_bytes_all(nullptr, 0);\n}\n",
     set()),
    ("src/xmp/ok_collective_marker.cpp",
     "void f(xmp::Comm& c) {\n  // lint: no-trace (no payload)\n"
     "  auto b = c.collect_bytes_all(nullptr, 0);\n}\n",
     set()),
    ("src/xmp/ok_collective_decl.cpp",
     "std::shared_ptr<Blobs> collect_bytes(const void* p, std::size_t n);\n",
     set()),
    ("src/xmp/ok_collective_defn.cpp",
     "std::shared_ptr<Blobs> Comm::collect_bytes_all(const void* p, std::size_t n) {\n"
     "  return nullptr;\n}\n",
     set()),
    ("src/xmp/bad_collective_qualified_call.cpp",
     "void f() {\n  auto b = detail::collect_bytes(g, 0, nullptr, 0, d);\n}\n",
     {"collective-trace"}),
    ("tests/bad_using.cpp",
     "using namespace std;\n",
     {"no-using-namespace"}),
    ("src/dpd/bad_fn.hpp",
     "#pragma once\n#include <functional>\n"
     "void for_each_pair(const std::function<void(int, int)>& fn);\n",
     {"dpd-no-std-function"}),
    ("src/dpd/ok_fn_marker.hpp",
     "#pragma once\n#include <functional>\n"
     "// lint: std-function-ok (setup-time callback, not a pair-loop parameter)\n"
     "using BodyForceFn = std::function<Vec3(const Vec3&)>;\n",
     set()),
    ("src/dpd/ok_fn_source.cpp",
     "#include <functional>\n"
     "static std::function<void()> g;  // sources are out of scope\n",
     set()),
    ("src/other/ok_fn_elsewhere.hpp",
     "#pragma once\n#include <functional>\n"
     "using Cb = std::function<void()>;\n",
     set()),
    ("src/sem/bad_hot_alloc.cpp",
     "void Ops::apply_stiffness(const V& u, V& y) const {\n"
     "  std::vector<double> lu(npe), ly(npe);\n"
     "  for (std::size_t e = 0; e < ne; ++e) {}\n}\n",
     {"sem-hot-alloc"}),
    ("src/sem/ok_hot_alloc_marker.cpp",
     "void Ops::apply_stiffness_reference(const V& u, V& y) const {\n"
     "  // lint: sem-alloc-ok (reference baseline, not a hot path)\n"
     "  std::vector<double> lu(npe), ly(npe);\n}\n",
     set()),
    # the point evaluation that built two la::Vector bases per call
    ("src/sem/discretization.cpp",
     "double Discretization::evaluate(const la::Vector& field, double x, double y) const {\n"
     "  const long e = locate(x, y);\n"
     "  const la::Vector lx = lagrange_basis_at(rule_, xi);\n"
     "  const la::Vector ly = lagrange_basis_at(rule_, eta);\n"
     "  return contract(lx, ly, field, e);\n}\n",
     {"sem-hot-alloc"}),
    # ... and the one that fills fixed scratch once per point
    ("src/sem/discretization.cpp",
     "Discretization::PointBasis Discretization::point_basis(double x, double y) const {\n"
     "  PointBasis pb;\n"
     "  lagrange_basis_fill(rule_, std::clamp(xi, -1.0, 1.0), pb.lx.data());\n"
     "  return pb;\n}\n"
     "double Discretization::evaluate(const la::Vector& field, const PointBasis& pb) const {\n"
     "  const std::size_t* map = elem_map(pb.e);\n"
     "  return contract(pb, field, map);\n}\n",
     set()),
    # the two-level pressure preconditioner with per-apply coarse vectors ...
    ("src/sem/hex3d.cpp",
     "void HelmholtzSolver3D::apply_two_level(const double* r, double* z) {\n"
     "  la::Vector vert(nv), rhs(nc), sol(nc);\n"
     "  restrict_axis(v0, w, lx, vx, ly * lz, 1, r, vert.data());\n"
     "  la::cholesky_solve(coarse_chol_, rhs, sol);\n}\n",
     {"sem-hot-alloc"}),
    # ... and the one that runs in fixed member scratch
    ("src/sem/hex3d.cpp",
     "void HelmholtzSolver3D::apply_two_level(const double* r, double* z) {\n"
     "  restrict_axis(v0, w, lx, vx, ly * lz, 1, r, stage_a_.data());\n"
     "  la::cholesky_solve(coarse_chol_, coarse_rhs_, coarse_sol_);\n}\n",
     set()),
    ("src/sem/ok_alloc_cold_fn.cpp",
     "void Ops::build_tables() {\n  std::vector<double> tmp(n);\n}\n",
     set()),
    ("src/sem/ok_call_is_not_definition.cpp",
     "void Solver::solve(V& u) {\n  ops_->apply_helmholtz(l, nu, u, y_);\n"
     "  std::vector<double> bc(nb);\n}\n",
     set()),
    ("src/other/ok_sem_rule_scoped.cpp",
     "void Ops::apply_stiffness(const V& u, V& y) const {\n"
     "  std::vector<double> lu(npe);\n}\n",
     set()),
    ("src/dpd/exchange/bad_hot_alloc.cpp",
     "void HaloExchanger::update(DpdSystem& sys) {\n"
     "  std::vector<double> buf(send_.size() * 6);\n"
     "  comm_.send(0, 1, buf);\n}\n",
     {"exchange-hot-alloc"}),
    ("src/dpd/exchange/bad_hot_alloc_pack.cpp",
     "void pack_posvel(const SoA3& a, const SoA3& b, const Idx& idx, Buf& out) {\n"
     "  std::vector<double> tmp(6 * idx.size());\n}\n",
     {"exchange-hot-alloc"}),
    ("src/dpd/exchange/bad_hot_alloc_unpack.cpp",
     "void unpack_posvel(SoA3& a, SoA3& b, const Idx& idx, const Buf& in) {\n"
     "  std::vector<double> tmp(in);\n}\n",
     {"exchange-hot-alloc"}),
    ("src/dpd/exchange/ok_param_types.cpp",
     "void pack_posvel(const SoA3& a, const SoA3& b, const std::vector<std::uint32_t>& idx,\n"
     "                 std::vector<double>& out) {\n"
     "  out.resize(6 * idx.size());\n"
     "  const std::vector<double>* lanes[6] = {&a.xs(), &a.ys(), &a.zs(),\n"
     "                                         &b.xs(), &b.ys(), &b.zs()};\n"
     "}\n",
     set()),
    ("src/dpd/exchange/ok_hot_alloc_marker.cpp",
     "void HaloExchanger::update(DpdSystem& sys) {\n"
     "  // lint: exchange-alloc-ok (diagnostic copy outside the benchmarked path)\n"
     "  std::vector<double> snapshot(recv_buf_);\n}\n",
     set()),
    ("src/dpd/exchange/ok_cold_build.cpp",
     "std::vector<ParticleRecord> HaloExchanger::build(const std::vector<ParticleRecord>& o) {\n"
     "  std::vector<ParticleRecord> merged = o;\n  return merged;\n}\n",
     set()),
    ("src/dpd/exchange/ok_call_not_definition.cpp",
     "void DistributedDpd::refresh(DpdSystem& sys) {\n"
     "  halo_.update(sys);\n  std::vector<double> disp(n);\n}\n",
     set()),
    ("src/dpd/ok_exchange_rule_scoped.cpp",
     "void HaloExchanger::update(DpdSystem& sys) {\n"
     "  std::vector<double> buf(n);\n}\n",
     set()),
    # the allocating cells_along that the range-returning one replaced
    ("src/dpd/neighbor.hpp",
     "#pragma once\n"
     "class NeighborList {\n"
     "  static std::vector<int> cells_along(int base, double pad, double cell_size, int n, bool per) {\n"
     "    const int reach = static_cast<int>(std::ceil(pad / cell_size));\n"
     "    std::vector<int> out;\n"
     "    for (int d = -reach; d <= reach; ++d) out.push_back(base + d);\n"
     "    return out;\n"
     "  }\n"
     "};\n",
     {"nlist-hot-alloc"}),
    ("src/dpd/neighbor.cpp",
     "void NeighborList::append(const SoA3& pos) {\n"
     "  std::vector<std::size_t> cursor(pos.size());\n}\n",
     {"nlist-hot-alloc"}),
    # a counting sort that builds its cursors per call instead of reusing
    # the cell_fill_ member
    ("src/dpd/neighbor.cpp",
     "void NeighborList::sort_bins(std::size_t n_binned) {\n"
     "  std::vector<std::uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);\n"
     "  for (std::size_t i = 0; i < n_binned; ++i) slot_idx_[fill[cell_of_[i]]++] = i;\n}\n",
     {"nlist-hot-alloc"}),
    ("src/dpd/neighbor.cpp",
     "void NeighborList::on_remap(const std::vector<long>& new_index) {\n"
     "  std::vector<long> cold(new_index);\n}\n"
     "bool NeighborList::ensure(const SoA3& pos) {\n"
     "  // lint: nlist-alloc-ok (diagnostic copy outside the benchmarked path)\n"
     "  std::vector<double> snapshot(pos.xs());\n"
     "  build(pos);\n  return true;\n}\n",
     set()),
    ("src/dpd/ok_nlist_rule_scoped.cpp",
     "void Sampler::query(const SoA3& pos) {\n"
     "  std::vector<double> tmp(pos.size());\n}\n",
     set()),
    ("src/xmp/bad_thread_local.cpp",
     "thread_local int cached_rank = -1;\n",
     {"sched-context"}),
    ("src/telemetry/bad_get_id.cpp",
     "void f() {\n  auto id = std::this_thread::get_id();\n}\n",
     {"sched-context"}),
    ("src/xmp/ok_thread_local_marker.cpp",
     "// lint: sched-context-ok (scheduler-internal worker state)\n"
     "thread_local Worker* tl_worker = nullptr;\n",
     set()),
    ("src/telemetry/ok_get_id_comment.cpp",
     "// never key on std::this_thread::get_id() here\nint f();\n",
     set()),
    ("src/other/ok_thread_local_elsewhere.cpp",
     "thread_local int scratch = 0;\n",
     set()),
    # --- tokenizer-backed rules: mentions inside comments/strings are not code ---
    ("src/a/ok_memcpy_in_comment.cpp",
     "void f(char* d, const char* s, unsigned n) {\n"
     "  // the old code did memcpy(d, s, n) without a check\n"
     "  copy_checked(d, s, n);\n}\n",
     set()),
    ("src/a/ok_memcpy_in_string.cpp",
     "void f() {\n  log(\"memcpy(dst, src, nbytes) failed\");\n}\n",
     set()),
    ("src/a/bad_memcpy_string_sizeof.cpp",
     # the only sizeof is inside the logged string: must still be flagged
     "void f(char* d, const char* s, unsigned n) {\n"
     "  std::memcpy(d, s, n /* \"n * sizeof(double)\" */);\n}\n",
     {"memcpy-divisibility"}),
    ("src/xmp/ok_thread_local_in_string.cpp",
     "void f() {\n  die(\"thread_local state is forbidden here\");\n}\n",
     set()),
    ("src/dpd/ok_fn_in_comment.hpp",
     "#pragma once\n"
     "// callbacks must NOT be std::function<void(int,int)>; keep them templated\n"
     "template <class F> void for_each_pair(F&& fn);\n",
     set()),
    ("src/sem/ok_hot_alloc_in_comment.cpp",
     "void Ops::apply_stiffness(const V& u, V& y) const {\n"
     "  // scratch was once a std::vector<double> per call; now member-owned\n"
     "  run(lu_, ly_);\n}\n",
     set()),
    ("src/sem/ok_hot_name_in_string.cpp",
     "void report() {\n"
     "  log(\"apply_stiffness(n) took too long\");\n"
     "  std::vector<double> tmp(3);\n}\n",
     set()),
    ("src/scenario/schema.cpp",
     "MeshSpec parse_mesh(const Json& v, const std::string& path) {\n"
     "  Fields f(v, path);\n  MeshSpec s;\n  s.nx = f.req_int(\"nx\");\n"
     "  s.length = f.opt_num(\"length\", s.length);\n  f.finish();\n  return s;\n}\n"
     "Json serialize_mesh(const MeshSpec& s) {\n  Json o = Json::object();\n"
     "  o.set(\"length\", Json(s.length));\n  o.set(\"nx\", Json(s.nx));\n  return o;\n}\n",
     set()),
    ("src/scenario/schema.cpp",
     "MeshSpec parse_mesh(const Json& v, const std::string& path) {\n"
     "  Fields f(v, path);\n  MeshSpec s;\n  s.nx = f.req_int(\"nx\");\n"
     "  s.length = f.opt_num(\"length\", s.length);\n  return s;\n}\n"
     "Json serialize_mesh(const MeshSpec& s) {\n  Json o = Json::object();\n"
     "  o.set(\"length\", Json(s.length));\n  return o;\n}\n",
     {"scenario-schema-sync"}),  # serialize drops "nx"
    ("src/scenario/schema.cpp",
     "SemSpec parse_sem(const Json& v, const std::string& path) {\n"
     "  Fields f(v, path);\n  SemSpec s;\n  s.nu = f.opt_num(\"nu\", s.nu);\n"
     "  return s;\n}\n",
     {"scenario-schema-sync"}),  # no serialize_sem at all
    ("src/scenario/schema.cpp",
     "Scenario parse_scenario_text(std::string_view text) {\n"
     "  return parse_scenario(Json::parse(text));\n}\n",
     set()),  # keyless helper needs no pair
    ("src/other/schema.cpp",
     "SemSpec parse_sem(const Json& v, const std::string& path) {\n"
     "  Fields f(v, path);\n  SemSpec s;\n  s.nu = f.opt_num(\"nu\", s.nu);\n"
     "  return s;\n}\n",
     set()),  # rule is scoped to src/scenario/schema.cpp
]


def self_test() -> int:
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td)
        for rel, src, expected in SELF_TEST_CASES:
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(src, encoding="utf-8")
            got = {f.rule for f in lint_file(p, root)}
            if got != expected:
                print(f"self-test FAIL: {rel}: expected {sorted(expected)}, got {sorted(got)}")
                failures += 1
    if failures:
        return 1
    print(f"self-test OK ({len(SELF_TEST_CASES)} cases)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files or directories (default: src tests bench examples)")
    ap.add_argument("--self-test", action="store_true", help="run the linter's own test cases")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    findings: list[Finding] = []
    for path in collect_targets(args.paths, repo_root):
        findings.extend(lint_file(path, repo_root))
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
