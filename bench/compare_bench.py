#!/usr/bin/env python3
"""Perf-regression gate for the checked-in BENCH_*.json baselines.

Each gated bench prints its BENCH section as JSON on stdout:

  kind      bench (arguments as CI passes them)        BENCH file
  kernel    fig12_decode_rate --quick --json            BENCH_kernel.json
  parallel  parallel_exec                               BENCH_parallel.json
  noc       fig17_noc_contention --quick --json         BENCH_noc.json
  sim       fig18_sim_speedup --quick                   BENCH_sim.json
  serve     fig19_serve_load --quick                    BENCH_serve.json

``capture`` runs a bench and stamps its JSON with the machine
fingerprint and wall seconds. ``compare --kind K`` applies RULES[K], a
list of (cell path pattern, rule); the rules are documented at RULES.

Usage:
  compare_bench.py capture --bench PATH --out FRESH.json [--arg=X ...]
  compare_bench.py compare --kind {kernel,parallel,noc,sim,serve} \\
      --baseline BASE.json --fresh FRESH.json [--tolerance 0.15]
  compare_bench.py determinism --a RUN1.json --b RUN2.json
  compare_bench.py trace --file TRACE.json [--schema SCHEMA.json] \\
      [--diff OTHER_TRACE.json]
  compare_bench.py selftest

``determinism`` diffs the ``fig17_quick`` sections of two captures
exactly; ``trace`` schema-checks a flight-recorder Chrome trace and,
with --diff, byte-compares two; ``selftest`` proves every rule and
check still catches its violation."""

import argparse
import copy
import fnmatch
import json
import os
import platform
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)

# A cell path joins its keys with "."; list rows are keyed by their
# ROW_KEYS field; "*" matches one key. Rules: exact; lower_within_tol /
# higher_within_tol (fresh within --tolerance of the baseline, in the
# good direction); advisory (printed, never fails: wall time); positive
# (every matching *fresh* cell > 0 or true). A gated baseline cell
# missing from the fresh capture fails, as does a gated pattern that
# matches nothing. Both files must carry the machine fingerprint, and
# noc re-checks the fig17 acceptance shape.
WALL = ("*_wall_seconds", "advisory")
RULES = {
    "kernel": [
        ("fig12_quick_decode_rates.*.*", "exact"),
        WALL,
    ],
    "parallel": [
        # sim_speedup is measured on the relocated trace, so it is
        # deterministic; the 15% band predates the relocation.
        ("graph_mode.*.sim_speedup", "higher_within_tol"),
        ("graph_mode.*.wall_speedup", "advisory"),
        ("replay_mode.sim_speedup", "higher_within_tol"),
        WALL,
    ],
    "noc": [
        ("fig17_quick.sweep.*.decode_cy", "lower_within_tol"),
        ("fig17_quick.sweep.*.messages", "lower_within_tol"),
        ("fig17_quick.ticket.*.decode_real_cy", "lower_within_tol"),
        ("fig17_quick.real_sweep.*.*.decode_cy", "lower_within_tol"),
        ("fig17_quick.real_sweep.*.*.messages", "lower_within_tol"),
        ("fig17_quick.real_ticket.*.*.decode_real_cy",
         "lower_within_tol"),
        # Each --relocate-seed layout is deterministic, but timing
        # legitimately follows the layout.
        ("fig17_quick.relocate_sweep.*.*.decode_cy", "advisory"),
        # The pinned minimum-safe OVT bound (tests/ovt_bound.hh):
        # re-pinning it is a deliberate act that re-baselines both.
        ("fig17_quick.ovt_min_safe_slots_per_slice", "exact"),
        WALL,
    ],
    "sim": [
        ("determinism.*", "exact"),
        # SimEngine::WindowStats: pure functions of simulated state.
        ("windows.*", "exact"),
        ("sim_scaling.*.bit_identical", "positive"),
        ("sim_scaling.*.events_per_sec", "advisory"),
        ("sim_scaling.*.speedup", "advisory"),
        WALL,
    ],
    "serve": [
        ("closed_loop.tenants.*.completed", "exact"),
        ("closed_loop.tenants.*.simulated_tasks", "exact"),
        ("closed_loop.tenants.*.carve_base", "exact"),
        ("closed_loop.tenants.*.sim_makespan_cycles.*", "exact"),
        # The bench saturates capacity-1 stages on purpose: zero Busy
        # responses means the admission bound stopped engaging.
        ("open_loop.busy_rejections", "positive"),
        ("open_loop.tasks_per_sec", "advisory"),
        ("open_loop.wall_latency_seconds.p95", "advisory"),
        WALL,
    ],
}

ROW_KEYS = ("threads", "sim_threads", "name")
REQUIRED_FINGERPRINT = ("hardware_concurrency", "platform", "machine")


def machine_fingerprint():
    info = {
        "hardware_concurrency": os.cpu_count() or 0,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def row_key(row, index):
    for key in ROW_KEYS:
        if isinstance(row, dict) and key in row:
            return str(row[key])
    return str(index)


def flatten(value, prefix=()):
    """JSON -> {path tuple: leaf}. List rows are keyed by their id
    field, so a shorter or re-ordered list still lines up by row."""
    if isinstance(value, list):
        items = [(row_key(v, i), v) for i, v in enumerate(value)]
    elif isinstance(value, dict):
        items = [(str(k), v) for k, v in value.items()]
    else:
        return {prefix: value}
    out = {}
    for key, child in items:
        out.update(flatten(child, prefix + (key,)))
    return out


def matches(pattern, path):
    parts = pattern.split(".")
    return len(parts) == len(path) and all(
        fnmatch.fnmatchcase(key, part) for part, key in zip(parts, path))


def run_bench(argv):
    """Run a benchmark; on failure, surface its own diagnostics (e.g.
    parallel_exec's differential-oracle divergence message) instead of
    a bare CalledProcessError."""
    result = subprocess.run(argv, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.stderr.write(result.stderr)
        sys.exit(f"{' '.join(argv)} failed "
                 f"(exit {result.returncode}); output above")
    return result


def capture(bench, out, extra):
    begin = time.monotonic()
    result = run_bench([bench, *extra])
    wall = time.monotonic() - begin
    fresh = json.loads(result.stdout)
    fresh["machine"] = {**fresh.get("machine", {}),
                        **machine_fingerprint()}
    fig = os.path.basename(bench).split("_")[0]
    quick = "_quick" if "--quick" in extra else ""
    fresh[f"{fig}{quick}_wall_seconds"] = round(wall, 3)
    with open(out, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    print(f"captured {os.path.basename(bench)} in {wall:.1f}s -> {out}")


def fingerprint_failures(data, label):
    """A gated file without provenance makes its advisory wall numbers
    uninterpretable, and historically meant a hand-edited file."""
    machine = data.get("machine")
    if not isinstance(machine, dict):
        return [f"{label}: no machine fingerprint"]
    return [f"{label}: machine fingerprint missing '{field}'"
            for field in REQUIRED_FINGERPRINT if field not in machine]


def noc_shape_failures(fresh):
    """The sweep's acceptance shape, re-checked on the recorded
    numbers (the bench also exits non-zero on it)."""
    sweep = fresh.get("fig17_quick", {}).get("sweep", {})
    ticket = fresh.get("fig17_quick", {}).get("ticket", {})
    try:
        adjacent = sweep["ring/adjacent/solo"]["decode_cy"]
        spread = sweep["ring/spread/solo"]["decode_cy"]
        spread_b = sweep["ring/spread/batch"]["decode_cy"]
        multi = max(ticket, key=int)
        real = ticket[multi]["decode_real_cy"]
        ideal = ticket[multi]["decode_ideal_cy"]
    except KeyError as missing:
        return [f"shape: cell {missing} missing"]
    except ValueError:
        return ["shape: ticket section empty"]
    failures = []
    if not spread > adjacent:
        failures.append(f"shape: spread ({spread}) did not degrade "
                        f"decode vs adjacent ({adjacent})")
    if not spread_b < spread:
        failures.append(f"shape: batching ({spread_b}) did not recover "
                        f"decode vs spread ({spread})")
    if not real >= ideal:
        failures.append(f"shape: ordered admission ({real}) beat its "
                        f"zero-cost oracle ({ideal}) at {multi}p")
    return failures


def check_cell(rule, base, new, tolerance):
    """-> (passed, limit text) for one cell under @p rule."""
    if rule == "positive":
        return isinstance(new, (int, float)) and new > 0, "> 0"
    if rule == "exact":
        return new == base, f"== {base}"
    if rule == "higher_within_tol":
        limit = base * (1 - tolerance)
        return new >= limit, f">= {limit:g}"
    if rule == "lower_within_tol":
        limit = base * (1 + tolerance)
        return new <= limit, f"<= {limit:g}"
    return True, f"baseline {base}"  # advisory


def compare(kind, baseline, fresh, tolerance, log=print):
    """Apply RULES[kind]; log every failing or advisory cell and
    return the list of failures."""
    failures = (fingerprint_failures(baseline, "baseline")
                + fingerprint_failures(fresh, "fresh"))
    base_cells, fresh_cells = flatten(baseline), flatten(fresh)
    for pattern, rule in RULES[kind]:
        # positive checks the fresh run on its own; every other rule
        # walks the baseline's cells.
        side = "fresh" if rule == "positive" else "baseline"
        cells = fresh_cells if rule == "positive" else base_cells
        paths = [p for p in cells if matches(pattern, p)]
        if not paths and rule != "advisory":
            failures.append(f"{pattern}: no {side} cell matches")
        for path in paths:
            name = ".".join(path)
            if path not in fresh_cells:
                if rule != "advisory":
                    failures.append(f"{name}: missing from fresh")
                continue
            new = fresh_cells[path]
            ok, limit = check_cell(rule, base_cells.get(path), new,
                                   tolerance)
            if rule == "advisory":
                log(f"  [ADVISORY] {name}: fresh {new} ({limit})")
            elif not ok:
                log(f"  [FAIL] {name}: fresh {new}, want {limit}")
                failures.append(f"{name} ({rule})")
    if kind == "noc":
        failures += noc_shape_failures(fresh)
    return failures


def check_determinism(a, b):
    """Exact (zero-tolerance) diff of two noc captures' fig17_quick
    sections; every simulated metric must be identical."""
    cells_a = flatten(a["fig17_quick"])
    cells_b = flatten(b["fig17_quick"])
    diverged = [
        f"  {'.'.join(key)}: {cells_a.get(key, '<missing>')} != "
        f"{cells_b.get(key, '<missing>')}"
        for key in sorted(set(cells_a) | set(cells_b))
        if cells_a.get(key) != cells_b.get(key)]
    if diverged:
        print(f"{len(diverged)} cell(s) diverged between runs:")
        print("\n".join(diverged))
        return 1
    real_rows = sum(1 for k in cells_a if k[0].startswith("real_"))
    print(f"determinism check passed: {len(cells_a)} cells identical "
          f"({real_rows} relocated real-kernel cells)")
    return 0


def validate_trace(text, schema):
    """Validate a flight-recorder Chrome trace JSON against the
    checked-in schema (bench/trace_schema.json). Hand-rolled on
    purpose: no jsonschema dependency, and the checks are stricter
    than JSON Schema conveniently expresses (exact top-level shape,
    integers-only timestamps, per-phase required fields)."""
    errors = []
    if not text.endswith("\n]}\n"):
        errors.append("document does not end with '\\n]}\\n' "
                      "(the splice contract of appendChromeEvents)")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"not valid JSON: {err}"]

    top = schema["top_level_key"]
    if not isinstance(doc, dict) or list(doc.keys()) != [top]:
        errors.append(f"top level must be an object with the single "
                      f"key '{top}'")
        return errors
    events = doc[top]
    if not isinstance(events, list):
        return [f"'{top}' is not an array"]

    phases = schema["phases"]
    categories = set(schema["categories"])
    int_fields = schema["integer_fields"]
    counts = {}
    for i, ev in enumerate(events):
        where = f"event {i}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in phases:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        counts[ph] = counts.get(ph, 0) + 1
        for field in phases[ph]["required"]:
            if field not in ev:
                errors.append(f"{where} (ph={ph}): missing '{field}'")
        for field in int_fields:
            if field in ev and not isinstance(ev[field], int):
                errors.append(f"{where} (ph={ph}): '{field}' is "
                              f"{ev[field]!r}, not an integer")
        if "cat" in ev and ev["cat"] not in categories:
            errors.append(f"{where}: unknown category {ev['cat']!r}")
        if ph == "f" and ev.get("bp") != schema["flow_end_bp"]:
            errors.append(f"{where}: flow end without bp="
                          f"'{schema['flow_end_bp']}'")
        if len(errors) >= 20:
            errors.append("(stopping after 20 errors)")
            break
    if not errors:
        by_phase = ", ".join(f"{ph}:{n}"
                             for ph, n in sorted(counts.items()))
        print(f"trace schema ok: {len(events)} events ({by_phase})")
    return errors


def check_trace(path, schema_path, diff_path=None):
    """The ``trace`` subcommand: schema-validate @p path and, with
    --diff, require the two trace files to be byte-identical (the
    cross---sim-threads determinism gate)."""
    with open(schema_path) as f:
        schema = json.load(f)
    with open(path, "rb") as f:
        a = f.read()
    errors = validate_trace(a.decode(), schema)
    for err in errors:
        print(f"  [FAIL] {path}: {err}")
    if diff_path is not None:
        with open(diff_path, "rb") as f:
            b = f.read()
        if a != b:
            print(f"  [FAIL] {path} and {diff_path} differ "
                  f"({len(a)} vs {len(b)} bytes)")
            errors.append("trace byte-diff")
        else:
            print(f"trace determinism ok: {path} == {diff_path} "
                  f"({len(a)} bytes)")
    return 1 if errors else 0


DELETE = object()

# (kind, label, side, path, edit, should_fail): each edit of a
# checked-in baseline either must or must not fail the compare.
CASES = [
    ("kernel", "exact: grid cell drift", "fresh",
     "fig12_quick_decode_rates.Cholesky.1x2", lambda v: v + 0.1, True),
    ("kernel", "missing fresh cell", "fresh",
     "fig12_quick_decode_rates.H264.64x8", DELETE, True),
    ("kernel", "advisory: 10x wall time", "fresh",
     "fig12_quick_wall_seconds", lambda v: v * 10, False),
    ("noc", "lower_within_tol: decode +20%", "fresh",
     "fig17_quick.real_sweep.cholesky.ring/adjacent/solo.decode_cy",
     lambda v: v * 1.2, True),
    ("noc", "lower_within_tol: decode +5%", "fresh",
     "fig17_quick.real_sweep.cholesky.ring/adjacent/solo.decode_cy",
     lambda v: v * 1.05, False),
    ("noc", "OVT-bound metadata drift", "fresh",
     "fig17_quick.ovt_min_safe_slots_per_slice", lambda v: v + 1, True),
    ("noc", "shape: spread no longer degrades decode", "fresh",
     "fig17_quick.sweep.ring/spread/solo.decode_cy", lambda v: 1.0,
     True),
    ("noc", "shape: ordered admission beats its oracle", "fresh",
     "fig17_quick.ticket", lambda t: {
         p: {**row, "decode_ideal_cy": row["decode_real_cy"] * 2}
         for p, row in t.items()}, True),
    ("parallel", "higher_within_tol: sim_speedup -20%", "fresh",
     "graph_mode.4.sim_speedup", lambda v: v * 0.8, True),
    ("parallel", "no graph_mode rows in common", "fresh", "graph_mode",
     lambda rows: [{**r, "threads": r["threads"] + 100} for r in rows],
     True),
    ("sim", "exact: determinism drift", "fresh",
     "determinism.makespan", lambda v: v + 1, True),
    ("sim", "exact: window-counter drift", "fresh", "windows.fused",
     lambda v: v + 1, True),
    ("sim", "positive: sim row not bit_identical", "fresh",
     "sim_scaling.2.bit_identical", lambda v: False, True),
    ("sim", "baseline without a determinism section", "baseline",
     "determinism", DELETE, True),
    ("sim", "advisory: sim throughput drop", "fresh",
     "sim_scaling.4.events_per_sec", lambda v: 1.0, False),
    ("serve", "exact: sim percentile drift", "fresh",
     "closed_loop.tenants.tenant0.sim_makespan_cycles.p95",
     lambda v: v + 1, True),
    ("serve", "positive: no busy_rejections", "fresh",
     "open_loop.busy_rejections", lambda v: 0, True),
    ("serve", "fingerprint missing", "fresh", "machine", DELETE, True),
    ("serve", "fingerprint field missing", "baseline",
     "machine.platform", DELETE, True),
]


def edit_cell(data, path, edit):
    *parents, last = path.split(".")
    node = data
    for key in parents:
        node = (node[key] if isinstance(node, dict) else
                next(r for i, r in enumerate(node)
                     if row_key(r, i) == key))
    if edit is DELETE:
        del node[last]
    else:
        node[last] = edit(node[last])


def selftest():
    """Run the gate on edited copies of the checked-in baselines;
    exits non-zero if the gate itself has regressed (CI runs it before
    any real comparison, so a broken gate cannot pass vacuously)."""
    checks = []

    def expect(name, cond):
        checks.append((name, cond))
        print(f"  [{'ok' if cond else 'FAIL'}] {name}")

    def quiet_compare(kind, baseline, fresh):
        return compare(kind, baseline, fresh, 0.15, log=lambda _: None)

    baselines = {}
    for kind in RULES:
        with open(os.path.join(REPO, f"BENCH_{kind}.json")) as f:
            baselines[kind] = json.load(f)
        failures = quiet_compare(kind, baselines[kind], baselines[kind])
        expect(f"BENCH_{kind}.json passes against itself {failures}",
               failures == [])

    for kind, label, side, path, edit, should_fail in CASES:
        files = {"baseline": baselines[kind],
                 "fresh": copy.deepcopy(baselines[kind])}
        files[side] = copy.deepcopy(files[side])
        edit_cell(files[side], path, edit)
        failed = quiet_compare(kind, files["baseline"], files["fresh"])
        expect(f"{kind} {label} "
               f"{'fails' if should_fail else 'passes'}",
               bool(failed) == should_fail)

    # The pinned minimum-safe OVT bound: the constant the OvtCapacity
    # tests assert and the metadata the noc baseline carries must
    # agree, or a re-pin touched one but not the other.
    with open(os.path.join(REPO, "tests", "ovt_bound.hh")) as f:
        match = re.search(r"kMinSafeOvtSlotsPerSlice\s*=\s*(\d+)",
                          f.read())
    recorded = baselines["noc"]["fig17_quick"].get(
        "ovt_min_safe_slots_per_slice")
    expect(f"pinned OVT bound consistent (header "
           f"{match and match.group(1)}, baseline {recorded})",
           match is not None and recorded == int(match.group(1)))

    # The trace schema validator: a well-formed exporter document
    # passes; each corruption class is caught.
    good_events = [
        {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name",
         "args": {"name": "core0"}},
        {"name": "task.start", "cat": "task", "ph": "X", "ts": 10,
         "dur": 1, "pid": 0, "tid": 1, "args": {"a": 0, "b": 1}},
        {"name": "task", "cat": "task", "ph": "s", "id": 0, "ts": 10,
         "pid": 0, "tid": 1},
        {"name": "task", "cat": "task", "ph": "f", "bp": "e", "id": 0,
         "ts": 20, "pid": 0, "tid": 1},
    ]

    with open(os.path.join(BENCH_DIR, "trace_schema.json")) as f:
        schema = json.load(f)

    def trace_errors(events, cut=0):
        body = ",\n".join(json.dumps(e) for e in events)
        text = '{"traceEvents": [\n' + body + "\n]}\n"
        return validate_trace(text[:len(text) - cut], schema)

    expect("good trace validates", trace_errors(good_events) == [])
    corruptions = [
        ("unknown phase", 1, "ph", "Z"),
        ("unknown category", 1, "cat", "mystery"),
        ("float timestamp", 1, "ts", 10.5),
        ("missing required field", 1, "dur", DELETE),
        ("flow end without bp", 3, "bp", DELETE),
    ]
    for label, index, field, value in corruptions:
        bad = copy.deepcopy(good_events)
        if value is DELETE:
            del bad[index][field]
        else:
            bad[index][field] = value
        expect(f"{label} rejected", trace_errors(bad) != [])
    expect("truncated document rejected", trace_errors(good_events, 3))

    # Exact determinism diff on noc captures.
    changed = copy.deepcopy(baselines["noc"])
    edit_cell(changed, "fig17_quick.sweep.ring/adjacent/solo.decode_cy",
              lambda v: v + 0.001)
    expect("identical captures deterministic",
           check_determinism(baselines["noc"], baselines["noc"]) == 0)
    expect("changed cell detected",
           check_determinism(baselines["noc"], changed) == 1)

    failed = [name for name, cond in checks if not cond]
    if failed:
        print(f"selftest: {len(failed)} check(s) failed: "
              + "; ".join(failed))
        return 1
    print(f"selftest: all {len(checks)} checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("capture")
    p.add_argument("--bench", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arg", action="append", default=[],
                   help="argument passed to the bench (repeatable), "
                        "e.g. --arg=--quick --arg=--json")

    p = sub.add_parser("compare")
    p.add_argument("--kind", choices=sorted(RULES), required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--fresh", required=True)
    p.add_argument("--tolerance", type=float, default=0.15)

    p = sub.add_parser("determinism")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("trace")
    p.add_argument("--file", required=True,
                   help="Chrome trace JSON to schema-validate")
    p.add_argument("--schema",
                   default=os.path.join(BENCH_DIR, "trace_schema.json"))
    p.add_argument("--diff", default=None,
                   help="second trace that must be byte-identical "
                        "(e.g. the same run at another --sim-threads)")

    sub.add_parser("selftest")

    args = parser.parse_args()
    if args.cmd == "selftest":
        return selftest()
    if args.cmd == "determinism":
        with open(args.a) as a, open(args.b) as b:
            return check_determinism(json.load(a), json.load(b))
    if args.cmd == "trace":
        return check_trace(args.file, args.schema, args.diff)
    if args.cmd == "capture":
        capture(args.bench, args.out, args.arg)
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)
    print(f"comparing {args.kind} against {args.baseline} "
          f"(tolerance +/-{args.tolerance:.0%})")
    failures = compare(args.kind, baseline, fresh, args.tolerance)
    if failures:
        print(f"{len(failures)} regression(s): " + "; ".join(failures))
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
