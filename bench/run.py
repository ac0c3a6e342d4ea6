"""biorder benchmark: eight seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload word_sort --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all                # every workload, one table

Run it from a checkout of the repository; it imports the package from
``src/`` of that checkout.  Each in-process workload repeats one round in a
fresh interpreter (bench/worker.py) until ``--seconds`` have passed, so every
round starts with cold caches; the cli workload is a closed loop of
``python3 -m biorder.cli ... --json`` processes.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  The metrics and their units are those BENCHMARK.json
lists.  Full results go to ``.bench_out/`` in the checkout.
See bench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (bench/ is on the path only from here on)

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # never used while tuning; check gains on it too
DEFAULT_SECONDS = 10
MIN_SETUPS = 5  # set-up samples per run, topped up with set-up-only processes
WORKER_TIMEOUT = 170
CLI_TIMEOUT = 60
# The cli workload's gauge: a fresh interpreter that imports numpy and the
# standard-library modules the CLI uses, but not the package, and its time
# at the machine's usual speed.  The reference kernel, run in this process
# while it mostly waits on its children, does not follow the speed at which
# they start and import.
CLI_GAUGE = "import argparse, fractions, json, numpy"
CLI_GAUGE_NOMINAL_S = 0.15
# A traced phase's operations, timed by the benchmark, may differ from the
# spans inside them (layer self times plus trace time) by this share plus
# this much per operation: the call into the outermost wrapper.
ACCOUNTING_SHARE = 0.005
ACCOUNTING_PER_OP_S = 5e-7

perf = time.perf_counter

LCS_BUCKETS = (6, 8, 10, 12, 14)
CLI_SUBCOMMANDS = ("compare", "comb", "expand", "invariants", "singular-sum", "holonomy", "verify")

# Points of the scaling curves that are left out, each with its reason.
EXCLUDED = [
    ("freegroup.lcs_depth.s.len16..len22",
     "lcs_depth on a 22-letter weight-4 commutator exhausted the memory of a probe "
     "process; depth is measured on words of at most 14 letters"),
    ("freegroup.lcs_depth.s.len38",
     "lcs_depth on [[[[x1,x2],x2],x2],x2] (38 letters) did not finish in about 5 min"),
    ("braid.*.s.n3..6.L16",
     "one braid_equal at L = 12 already takes up to 3 s; L = 16 does not fit a run"),
    ("chen.series.s.rank2..3.trunc5+",
     "holonomy_series refuses trunc > 4 without allow_deep; the CLI caps it too"),
]

# The named figure each workload's phases stand for, for the readable report.
# A one-phase workload's ops_per_s is its named figure.
NAMED = {
    "word_sort": {"magnus_per_s": "sort"},
    "word_magnus": {"magnus_per_s": "magnus"},
    "word_classes": {"classes_per_s": "classes"},
    "word_depth": {"depth_per_s": "depth"},
    "word_holonomy": {"holonomy_per_s": "holonomy"},
    "braid_comb": {"braid_cmp_per_s": "cmp", "ft_sums_per_s": "ft"},
    "braid_equal": {"braid_equal_per_s": "equal"},
    "cli": {},
}


def load_spec() -> dict[str, dict[str, str]]:
    """Metric names and units of BENCHMARK.json, the one list of them."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path.name} at the root of the checkout")
    spec = json.loads(path.read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Statistics.


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 or fewer samples
    there is no such percentile and the maximum is returned with 0 beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def phase_stats(times: list[float]) -> dict:
    total = sum(times)
    value, pct, beyond = tail(times)
    return {
        "ops": len(times),
        "seconds": total,
        "per_s": len(times) / total if total > 0 else 0.0,
        "p50_ms": 1e3 * statistics.median(times),
        "p90_ms": 1e3 * sorted(times)[math.ceil(0.9 * len(times)) - 1],
        "tail_ms": 1e3 * value,
        "tail_pct": pct,
        "tail_beyond": beyond,
    }


def end_to_end(setups: list[float], rss: float, phases: dict[str, dict]) -> dict:
    """The gated metrics.  ``ops_per_s`` is operations over their total time,
    so costly operations weigh their cost.  Every workload but braid_comb
    has one phase, which gives it directly; braid_comb combines its two by
    geometric mean."""
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "ops_per_s": geomean(s["per_s"] for s in phases.values()),
    }


# ---------------------------------------------------------------------------
# Processes.


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("BIORDER_DEGREE", None)  # the CLI's default degree must be its own
    return env


def worker(*args: str, stdin: str | None = None) -> dict:
    """Run bench/worker.py in a fresh interpreter and parse its last line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT, input=stdin)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out after {WORKER_TIMEOUT} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def interpreter(code: str = "pass") -> float:
    """Wall time of ``python3 -c CODE``."""
    t0 = perf()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
    return perf() - t0


def floor_ms(samples: int = 3) -> float:
    """Median wall time of a bare ``python3 -c pass``."""
    return 1e3 * statistics.median(interpreter() for _ in range(samples))


def source_digest() -> str:
    """Hash of the package and the benchmark, so stored counts match the code."""
    h = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload: str, seed: int, mode: str, counts: dict, problems: list[str]) -> None:
    """Counts must repeat exactly across runs of one seed on the same code."""
    path = OUT / "counts" / f"{workload}-seed{seed}-{mode}-{source_digest()}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        for key in sorted(set(stored) | set(counts)):
            if stored.get(key) != counts.get(key):
                problems.append(f"count drift across runs: {key} was {stored.get(key)}, "
                                f"now {counts.get(key)}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))


def same_counts(rounds: list[dict], key, problems: list[str]) -> dict:
    """Counts of every round must equal the first round's."""
    first = key(rounds[0])
    for i, r in enumerate(rounds[1:], start=1):
        if key(r) != first:
            changed = sorted(k for k in set(first) | set(key(r)) if first.get(k) != key(r).get(k))
            problems.append(f"count drift between rounds 0 and {i}: {changed}")
    return first


# ---------------------------------------------------------------------------
# In-process workloads.


def run_inprocess(workload: str, seed: int, seconds: float) -> dict:
    rounds = []
    t0 = perf()
    while not rounds or perf() - t0 < seconds:
        rounds.append(worker("round", workload, str(seed), "0"))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(worker("setup")["setup_s"])
    problems: list[str] = []
    counts = same_counts(rounds, lambda r: r["counts"], problems)
    check_counts(workload, seed, "plain", counts, problems)
    times = {name: [t for r in rounds for t in r["times"][name]] for name in rounds[0]["times"]}
    norm = {name: [t for r in rounds for t in r["normalized"][name]] for name in times}
    factor = sum(map(sum, norm.values())) / sum(map(sum, times.values()))
    phases = {name: phase_stats(t) for name, t in times.items()}
    norm_phases = {name: phase_stats(t) for name, t in norm.items()}
    rss = statistics.median(r["rss_mb"] for r in rounds)
    metrics = end_to_end([s * factor for s in setups], rss, norm_phases)
    named = {name: norm_phases[phase]["per_s"] for name, phase in NAMED[workload].items()}
    if workload == "word_holonomy":
        named["holonomy_undecided_share"] = counts["holonomy_undecided"] / counts["holonomy_compared"]
    return {
        "workload": workload, "seed": seed, "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds) + len(problems),
        "failures": [f for r in rounds for f in r["failures"]][:10] + problems,
        "metrics": metrics, "raw": end_to_end(setups, rss, phases), "speed_factor": factor,
        "named": named, "phases": phases, "counts": counts,
        "setups": setups, "inputs_s": statistics.median(r["inputs_s"] for r in rounds),
    }


def _median_self(traced: list[dict], layer: str) -> float:
    return statistics.median(r["trace"]["self_s"].get(layer, 0.0) for r in traced)


def _ratio(caches: dict, layer: str):
    pair = caches.get(layer)
    if pair is None:
        return None
    hits, misses = pair
    return hits / (hits + misses) if hits + misses else 0.0


def _group(traced: list[dict], span: str, phase: str, reduce) -> dict[str, float]:
    """Per-tag figure of one span name in one phase, median over rounds."""
    per_tag: dict[str, list[float]] = {}
    for r in traced:
        for key, durations in r["trace"]["groups"].get(span, {}).items():
            root, _, tag = key.split("|", 2)
            if root == phase:
                per_tag.setdefault(tag, []).append(reduce(durations))
    return {tag: statistics.median(v) for tag, v in per_tag.items()}


def layer_metrics(traced: list[dict], names) -> dict:
    """Per-layer metrics from traced rounds: self times are medians over the
    rounds, counts come from the first round (they repeat exactly).  A
    layer the workload does not run reads 0."""
    first = traced[0]["trace"]
    c = first["counts"]
    caches = first["caches"]
    m = {name: 0.0 for name in names}
    for name in names:
        if name.endswith(".self_s"):
            m[name] = _median_self(traced, name[: -len(".self_s")])
        elif name in c:
            m[name] = c[name]

    def mean(total, count):
        return c.get(total, 0.0) / c[count] if c.get(count) else 0.0

    m["freegroup.magnus.deciding_degree_mean"] = mean("freegroup.magnus.deciding_degree_sum",
                                                      "freegroup.magnus.decided")
    m["ordtools.classes.deciding_class_mean"] = mean("ordtools.classes.deciding_class_sum",
                                                     "ordtools.classes.decided")
    m["braid.compare.deciding_level_mean"] = mean("braid.compare.deciding_level_sum",
                                                  "braid.compare.decided")
    for layer in ("freegroup.expand", "braid.comb", "braid.artin"):
        m[f"{layer}.cache_hit_ratio"] = _ratio(caches, layer)

    by_len: dict[int, list[float]] = {}
    for tag, value in _group(traced, "freegroup.lcs_depth", "depth", statistics.median).items():
        length = int(tag)
        bucket = length + length % 2
        if bucket in LCS_BUCKETS:
            by_len.setdefault(bucket, []).append(value)
    for bucket, values in by_len.items():
        m[f"freegroup.lcs_depth.s.len{bucket:02d}"] = statistics.median(values)
    for tag, value in _group(traced, "braid.comb", "cmp", sum).items():
        n, length = json.loads(tag)
        m[f"braid.comb.s.n{n}.L{length}"] = value / workloads.BRAIDS_PER_GROUP[length]
    for tag, value in _group(traced, "braid.equal", "equal", statistics.median).items():
        n, length = json.loads(tag)
        m[f"braid.equal.s.n{n}.L{length}"] = value
    for tag, value in _group(traced, "chen.series", "curves", statistics.median).items():
        rank, trunc = json.loads(tag)
        m[f"chen.series.s.rank{rank}.trunc{trunc}"] = value
    return m


def merge_traces(traces: list[dict]) -> dict:
    """One summary for many traced CLI calls: self times, counts and cache
    lookups add up; maxima take the maximum; curve groups concatenate."""
    merged = {"self_s": {}, "counts": {}, "caches": {}, "groups": {}}
    for t in traces:
        for layer, value in t["self_s"].items():
            merged["self_s"][layer] = merged["self_s"].get(layer, 0.0) + value
        for name, value in t["counts"].items():
            old = merged["counts"].get(name, 0.0)
            merged["counts"][name] = max(old, value) if name.endswith("_max") else old + value
        for layer, pair in t["caches"].items():
            old = merged["caches"].get(layer, [0, 0])
            merged["caches"][layer] = (None if pair is None or old is None
                                       else [old[0] + pair[0], old[1] + pair[1]])
        for span, groups in t["groups"].items():
            for key, durations in groups.items():
                merged["groups"].setdefault(span, {}).setdefault(key, []).extend(durations)
    return merged


def accounting_problems(traced: list[dict]) -> tuple[float, list[str]]:
    """Layer self times + trace time + the benchmark's own time must add up
    to each traced phase's wall time, and no self time may be negative.

    The benchmark's own time is the phase wall time minus its operations,
    both on the benchmark's clock, so the check compares that clock with
    the spans: time spent inside an operation but in no span (a function
    the tracer failed to wrap) shows as a gap.  Returns the largest gap as
    a share of its phase's operation time, and the problems."""
    worst = 0.0
    problems = []
    for r in traced:
        t = r["trace"]
        if t["negative_self"]:
            problems.append(f"{t['negative_self']} spans with negative self time")
        for name, a in t["accounting"].items():
            ops = len(r["times"][name]) if "times" in r else 1
            gap = a["ops_s"] - a["layers_s"] - a["trace_s"]
            worst = max(worst, abs(gap) / a["ops_s"])
            if abs(gap) > ACCOUNTING_SHARE * a["ops_s"] + ACCOUNTING_PER_OP_S * ops:
                problems.append(
                    f"phase {name}: layers {a['layers_s']:.4f} s + trace {a['trace_s']:.4f} s "
                    f"+ benchmark {a['bench_s']:.4f} s != wall {a['wall_s']:.4f} s")
    return worst, problems


def import_probe(samples: int = 3) -> tuple[float, bool]:
    """Median in-process time to import biorder.cli, and whether numpy came along."""
    runs = [worker("cli", "0", "--", "--help") for _ in range(samples)]
    return 1e3 * statistics.median(r["import_s"] for r in runs), runs[0]["numpy_loaded"]


def trace_inprocess(workload: str, seed: int, seconds: float, names) -> dict:
    plain, traced = [], []
    spans = OUT / "trace" / f"{workload}-seed{seed}.jsonl.gz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    t0 = perf()
    while not traced or perf() - t0 < seconds:
        plain.append(worker("round", workload, str(seed), "0"))
        traced.append(worker("round", workload, str(seed), "1", str(spans)))
    problems: list[str] = []
    counts = same_counts(traced, lambda r: {**r["counts"], **r["trace"]["counts"]}, problems)
    check_counts(workload, seed, "traced", counts, problems)
    metrics = layer_metrics(traced, names)
    worst, acc_problems = accounting_problems(traced)
    problems += acc_problems
    shared = list(plain[0]["walls"])  # "curves" runs traced only

    def wall(r):
        """The round's phase wall time, scaled by its speed factor."""
        factor = (sum(sum(r["normalized"][p]) for p in shared)
                  / sum(sum(r["times"][p]) for p in shared))
        return factor * sum(r["walls"][p] for p in shared)

    metrics["trace.overhead"] = (statistics.median(map(wall, traced))
                                 / statistics.median(map(wall, plain)))
    metrics["cli.interp_floor_ms"] = floor_ms()
    metrics["cli.import_ms"], numpy_loaded = import_probe()
    metrics["cli.numpy_loaded"] = float(numpy_loaded)
    return {
        "workload": workload, "seed": seed, "rounds": len(traced),
        "attempted": sum(r["attempted"] for r in plain + traced),
        "failed": sum(r["failed"] for r in plain + traced) + len(problems),
        "failures": [f for r in plain + traced for f in r["failures"]][:10] + problems,
        "metrics": metrics, "counts": counts, "accounting_error": worst,
        "accounting": traced[-1]["trace"]["accounting"], "spans_file": str(spans.relative_to(ROOT)),
        "excluded": EXCLUDED,
    }


# ---------------------------------------------------------------------------
# The cli workload: a closed loop with one client.


def cli_call(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    cmd = [sys.executable, "-m", "biorder.cli", *argv]
    t0 = perf()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"cli call timed out: {argv}") from exc
    return perf() - t0, proc


def check_cli(calls: list[dict]) -> list[str]:
    """Problems found in recorded CLI calls.  A separate process checks them,
    so that this one never imports the package: a child started from a
    process inherits its peak RSS, and the CLI calls' peak is measured."""
    result = worker("clicheck", stdin=json.dumps(calls))
    return [p for p in result["problems"] if p]


def run_cli(seed: int, seconds: float) -> dict:
    rng = workloads.rng_for("cli", seed)
    walls: list[float] = []
    references: list[float] = []
    calls: list[dict] = []
    kinds = workloads.CLI_KINDS
    t0 = perf()
    # whole cycles only, so that every run has the same mix of request kinds
    while not walls or perf() - t0 < seconds or len(walls) % len(kinds):
        req = workloads.cli_request(rng, kinds[len(walls) % len(kinds)])
        if len(walls) % 2 == 0:  # a gauge costs about as much as a call
            references.append(interpreter(CLI_GAUGE))
        wall, proc = cli_call(req["argv"])
        walls.append((wall, len(references) - 1))
        calls.append({"req": req, "code": proc.returncode, "stdout": proc.stdout})
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # the CLI calls only
    failures = check_cli(calls)
    setups = []
    for _ in range(MIN_SETUPS):
        references.append(interpreter(CLI_GAUGE))
        setups.append((worker("setup")["setup_s"], len(references) - 1))
    references.append(interpreter(CLI_GAUGE))
    norm = workloads.normalized(walls, references, CLI_GAUGE_NOMINAL_S)
    walls = [w for w, _ in walls]
    factor = sum(norm) / sum(walls)
    phases = {"call": phase_stats(walls)}
    p = phase_stats(norm)
    metrics = end_to_end(workloads.normalized(setups, references, CLI_GAUGE_NOMINAL_S), rss,
                         {"call": p})
    setups = [s for s, _ in setups]
    named = {"cli_p50_ms": p["p50_ms"], "cli_tail_ms": p["tail_ms"]}
    return {
        "workload": "cli", "seed": seed, "rounds": 1, "attempted": len(walls),
        "failed": len(failures), "failures": failures[:10], "metrics": metrics,
        "raw": end_to_end(setups, rss, phases), "speed_factor": factor,
        "named": named, "phases": phases, "counts": {"calls": len(walls)}, "setups": setups,
    }


def trace_cli(seed: int, seconds: float, names) -> dict:
    """Each request twice: as a plain process and traced in-process."""
    rng = workloads.rng_for("cli", seed)
    kinds = workloads.CLI_KINDS
    plain, traced, calls = [], [], []
    main_ms: dict[str, list[float]] = {}
    t0 = perf()
    while not traced or perf() - t0 < seconds:
        req = workloads.cli_request(rng, kinds[len(traced) % len(kinds)])
        wall, proc = cli_call(req["argv"])
        plain.append(wall)
        t1 = perf()
        r = worker("cli", "1", "--", *req["argv"])
        traced.append((perf() - t1, r))
        calls += [{"req": req, "code": proc.returncode, "stdout": proc.stdout},
                  {"req": req, "code": r["code"], "stdout": r["stdout"]}]
        acc = r["trace"]["accounting"]["cli"]
        main_ms.setdefault(req["argv"][0], []).append(1e3 * (r["main_s"] - acc["trace_s"]))
    failures = check_cli(calls)
    runs = [r for _, r in traced]
    metrics = layer_metrics([{"trace": merge_traces([r["trace"] for r in runs])}], names)
    worst, problems = accounting_problems(runs)
    problems += [f"tracer: {target} does not exist" for target in runs[0]["missing"]]
    for kind in CLI_SUBCOMMANDS:
        metrics[f"cli.main_ms.{kind}"] = statistics.median(main_ms.get(kind, [0.0]))
    metrics["cli.interp_floor_ms"] = floor_ms()
    metrics["cli.import_ms"] = 1e3 * statistics.median(r["import_s"] for r in runs)
    metrics["cli.numpy_loaded"] = float(runs[0]["numpy_loaded"])
    metrics["trace.overhead"] = (statistics.median(w for w, _ in traced)
                                 / statistics.median(plain))
    return {
        "workload": "cli", "seed": seed, "rounds": len(traced),
        "attempted": len(plain) + len(traced), "failed": len(failures) + len(problems),
        "failures": (failures + problems)[:10], "metrics": metrics,
        "accounting_error": worst,
    }


# ---------------------------------------------------------------------------
# Output.


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result: dict, trace: bool, units: dict[str, str]) -> None:
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  rounds {result['rounds']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for f in result["failures"]:
        print(f"   FAIL {f}")
    if trace:
        for name, unit in units.items():
            print(f"   {name:<42} {_fmt(result['metrics'][name]):>14} {unit}")
        print(f"   accounting: largest gap {result['accounting_error']:.2e} of a phase's operation time")
        for name, reason in EXCLUDED:
            print(f"   excluded {name}: {reason}")
        return
    for name, unit in units.items():
        print(f"   {name:<28} {_fmt(result['metrics'][name]):>14} {unit:<5} "
              f"(raw wall clock {_fmt(result['raw'][name])})")
    print(f"   {'speed_factor':<28} {_fmt(result['speed_factor']):>14} ratio")
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_share':<28} {_fmt(float(share)):>14} ratio")
    for name, value in result["named"].items():
        unit = "ratio" if name.endswith("share") else ("ms" if name.endswith("_ms") else "1/s")
        print(f"   {name:<28} {_fmt(value):>14} {unit}")
    for name, p in result["phases"].items():
        print(f"   phase {name:<8} raw wall clock: ops {p['ops']:>6}  {p['per_s']:>10.4g} /s"
              f"  p50 {p['p50_ms']:.4g} ms"
              f"  p90 {p['p90_ms']:.4g} ms"
              f"  p{p['tail_pct']:.1f} {p['tail_ms']:.4g} ms ({p['tail_beyond']} beyond)")


def final_line(result: dict, units: dict[str, str]) -> str:
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics the benchmark does not compute: {missing}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


def run_one(workload: str, seed: int, seconds: float, trace: bool, names) -> dict:
    if workload == "cli":
        return trace_cli(seed, seconds, names) if trace else run_cli(seed, seconds)
    if trace:
        return trace_inprocess(workload, seed, seconds, names)
    return run_inprocess(workload, seed, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biorder" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'biorder'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    # cli goes first: its peak_rss_mb is the children's peak, which must not
    # include the in-process workloads' rounds
    names = workloads.WORKLOADS[-1:] + workloads.WORKLOADS[:-1] if args.workload == "all" \
        else (args.workload,)
    try:
        spec = load_spec()
        units = spec["per_layer" if trace else "end_to_end"]
        results = [run_one(w, args.seed, args.seconds, trace, spec["per_layer"]) for w in names]
        lines = [final_line(r, units) for r in results]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    for result in results:
        report(result, trace, units)
        path = OUT / "results" / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    if len(results) == 1:
        print(lines[0])
    else:
        combined = {"failed": sum(r["failed"] for r in results),
                    "attempted": sum(r["attempted"] for r in results)}
        print(json.dumps({"correct": combined["failed"] == 0, **combined,
                          "workloads": {r["workload"]: json.loads(line)["metrics"]
                                        for r, line in zip(results, lines)}}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
