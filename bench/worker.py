"""One fresh interpreter of the benchmark: set-up, then one round of work.

run.py starts this file once per round, so every round begins with cold
caches and pays its own import, exactly as a user process does:

    python3 bench/worker.py round WORKLOAD SEED TRACE [SPANS_FILE]
    python3 bench/worker.py setup
    python3 bench/worker.py cli TRACE -- ARGV...
    python3 bench/worker.py clicheck < CALLS.json

It prints one JSON object as its last line of standard output.  Only
``sys`` and ``time`` are imported before the set-up clock starts, so the
import of the package is timed from a clean interpreter.
"""

import sys
import time

perf = time.perf_counter


def set_up():
    """Import the package and the CLI, then one tiny call per route."""
    t0 = perf()
    import biorder
    import biorder.cli  # noqa: F401  (the CLI is a route too)

    fg, ot, br, ch = biorder.freegroup, biorder.ordtools, biorder.braid, biorder.chen
    x, y = fg.FreeWord(2, (1,)), fg.FreeWord(2, (2,))
    fg.magnus_compare(x, y)
    ot.iterated_extension_compare(x, y, 2)
    fg.lcs_depth(fg.FreeWord(2, (1, 2)))
    ch.holonomy_compare(x, y, trunc=2)
    a, b = br.PureBraidWord(3, ((1, 2, 1),)), br.PureBraidWord(3, ((1, 3, 1),))
    br.braid_compare(a, b)
    br.braid_equal(a, b)
    br.singular_alternating_sum(br.SingularBraid(b, (0,)),
                                lambda w: br.ft_invariant(2, (1,), w))
    return perf() - t0, biorder


def clear_data_caches(package) -> None:
    """Empty every bounded lru_cache of the package.

    Bounded caches hold per-input results (expansions, images, combings).
    Unbounded ones and single-entry ones hold tables built once per process
    (generator images, collocation, calibration, relators); those stay warm,
    as the set-up phase built them.
    """
    for name in ("series", "freegroup", "ordtools", "braid", "chen", "cli"):
        for value in vars(getattr(package, name)).values():
            params = getattr(value, "cache_parameters", None)
            if callable(params) and (params()["maxsize"] or 0) > 1:
                value.cache_clear()


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(workload: str, seed: int, trace: bool, spans_file: str | None) -> dict:
    setup_s, package = set_up()
    import contextlib

    import tracing
    import workloads

    lib = workloads.library(package)
    t0 = perf()
    inputs = workloads.make_inputs(workload, seed, lib)
    inputs_s = perf() - t0
    clear_data_caches(package)
    out = workloads.Outcome()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        for target in tracer.install(package):
            out.fail(f"tracer: {target} does not exist")

    walls: dict[str, float] = {}  # per phase, summed over its stretches
    roots: dict[str, list[int]] = {}
    cache_deltas: dict[str, list[int]] = {}

    @contextlib.contextmanager
    def phase(name):
        out.gauge(force=True)
        before = tracing.cache_counts(package)
        t_phase = perf()
        if tracer is None:
            yield
        else:
            with tracer.root(name) as root:
                yield
            roots.setdefault(name, []).append(root.idx)
        walls[name] = walls.get(name, 0.0) + perf() - t_phase
        after = tracing.cache_counts(package)
        for layer, counts in after.items():
            if counts is not None:
                acc = cache_deltas.setdefault(layer, [0, 0])
                acc[0] += counts[0] - before[layer][0]
                acc[1] += counts[1] - before[layer][1]

    times: dict[str, list[float]] = {}
    counts = workloads.run(workload, lib, inputs, phase, times, out)
    rss = peak_rss_mb()
    out.gauge(force=True)
    for layer, (hits, misses) in cache_deltas.items():
        counts[f"{layer}.cache_hits"] = hits
        counts[f"{layer}.cache_misses"] = misses
    for name, t in times.items():
        counts[f"{name}.operations"] = len(t)
    result = {
        "setup_s": setup_s, "inputs_s": inputs_s, "rss_mb": rss,
        "times": {name: [s for s, _ in t] for name, t in times.items()},
        "normalized": {name: workloads.normalized(t, out.references) for name, t in times.items()},
        "walls": walls,
        "attempted": out.attempted, "failed": out.failed,
        "failures": out.failures, "counts": counts, "trace": None,
    }
    if tracer is not None:
        summary = tracing.summarize(
            tracer, {p: (roots[p], walls[p], sum(result["times"][p])) for p in roots})
        summary["caches"] = {layer: list(cache_deltas[layer]) if layer in cache_deltas else None
                             for layer in tracing.CACHES}
        if workload == "word_holonomy":  # after the summary: its counts stay out
            curve = times.setdefault("curves", [])
            _holonomy_curve(lib, seed, phase, curve, out, workloads)
            curves = tracing.summarize(tracer, {"curves": (roots["curves"], walls["curves"],
                                                           sum(s for s, _ in curve))})
            result["times"]["curves"] = [s for s, _ in curve]
            summary["groups"].setdefault("chen.series", {}).update(
                curves["groups"].get("chen.series", {}))
            summary["accounting"].update(curves["accounting"])
        result["trace"] = summary
        result["attempted"], result["failed"] = out.attempted, out.failed
        if spans_file:
            tracer.dump(spans_file)
    return result


CURVE_RANKS = (2, 3)
CURVE_TRUNCS = (2, 3, 4)
CURVE_LOOPS = 4
CURVE_LETTERS = 6


def _holonomy_curve(lib, seed, phase, times, out, workloads):
    """holonomy_series along (rank, trunc), in its own traced phase "curves"."""
    rng = workloads.rng_for("curves", seed)
    loops = [lib.ch.LoopModel(rank, workloads.random_letters(rng, rank, CURVE_LETTERS))
             for rank in CURVE_RANKS for _ in range(CURVE_LOOPS)]
    with phase("curves"):
        for trunc in CURVE_TRUNCS:
            for loop in loops:
                workloads.timed(out, times, "curves", lib.ch.holonomy_series, loop, trunc)


def run_cli(trace: bool, argv: list[str]) -> dict:
    """One CLI call in-process: import time, main() time, optionally traced."""
    t0 = perf()
    import biorder
    import biorder.cli

    import_s = perf() - t0
    numpy_loaded = "numpy" in sys.modules
    import contextlib
    import io

    import tracing

    tracer = tracing.Tracer() if trace else None
    missing = tracer.install(biorder) if tracer is not None else []
    buf = io.StringIO()
    before = tracing.cache_counts(biorder)
    with contextlib.redirect_stdout(buf), \
            (tracer.root("cli") if tracer is not None else contextlib.nullcontext()) as root:
        t1 = perf()
        code = biorder.cli.main(argv)
        main_s = perf() - t1
    summary = None
    if tracer is not None:
        summary = tracing.summarize(tracer, {"cli": ([root.idx], main_s, main_s)})
        after = tracing.cache_counts(biorder)
        summary["caches"] = {layer: None if after[layer] is None else
                             [a - b for a, b in zip(after[layer], before[layer])]
                             for layer in after}
    return {"import_s": import_s, "numpy_loaded": numpy_loaded, "main_s": main_s,
            "code": code, "stdout": buf.getvalue(), "trace": summary,
            "missing": missing}


def check_cli_calls(calls: list[dict]) -> dict:
    """Check recorded CLI calls ({req, code, stdout}) against the library."""
    import biorder
    import biorder.cli  # noqa: F401

    import workloads

    lib = workloads.library(biorder)
    return {"problems": [workloads.check_cli_output(lib, c["req"], c["code"], c["stdout"])
                         for c in calls]}


def main(argv: list[str]) -> int:
    import json

    mode = argv[0] if argv else ""
    if mode == "round":
        workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
        result = run_round(workload, seed, trace, argv[4] if len(argv) > 4 else None)
    elif mode == "setup":
        setup_s, _ = set_up()
        result = {"setup_s": setup_s, "rss_mb": peak_rss_mb()}
    elif mode == "cli" and len(argv) > 2 and argv[2] == "--":
        result = run_cli(argv[1] == "1", argv[3:])
    elif mode == "clicheck":
        result = check_cli_calls(json.load(sys.stdin))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
