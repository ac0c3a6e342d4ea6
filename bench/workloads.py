"""Seeded inputs, timed phases and verdict checks of the eight workloads.

Inputs come from ``random.Random(f"{family}:{seed}")`` and this file's own
generators, so the same seed gives the same inputs whatever the library's
sampling helpers do.  The exception is the "anchored" cells, whose cost in
today's code is exponential in size and spans orders of magnitude between
inputs of one size: braids of L = 8 and 12, the singular braids, and words c
of 11 or more letters.
They come from ``random.Random(f"{family}:anchor")`` and are the same for
every seed.  Drawn per seed, one input in them swings a run's time tenfold
and its peak memory twofold; anchored, every run measures them at the same
size.  Library calls go through module attributes (``lib.fg.magnus_compare``),
which is where the tracer binds its wrappers.

Each workload times one route, so that a change to that route moves the
workload's throughput at full strength; only ``braid_comb`` has two phases.
Every operation is timed on its own.  The verdict checks run after the
phase clock has stopped.  A check that fails or an operation that raises is
one failure; nothing is dropped.
"""

from __future__ import annotations

import functools
import gc
import random
import time

perf = time.perf_counter

WORKLOADS = ("word_sort", "word_magnus", "word_classes", "word_depth",
             "word_holonomy", "braid_comb", "braid_equal", "cli")

# word_sort: distinct reduced words per rank, lengths 1..12.
SORT_RANKS = (2, 3)
SORT_WORDS_PER_RANK = 1500
SORT_MAX_LETTERS = 12

# The word-route workloads share one generator of one-off pairs (a, a*c).
# One block has this many index slots per family of c; "random" gets four
# words per (rank, length) cell and "commutator" four per (rank, |u|, |v|),
# except that anchored cells get two.  Cheap routes run more blocks, so
# that the timed share of a round is large against its start-up.
ROUTE_FAMILIES = {"random": 112, "commutator": 128, "lnc3": 96, "lnc4": 96}
ROUTE_BLOCKS = {"word_magnus": 4, "word_classes": 8, "word_depth": 1, "word_holonomy": 1}
HOLONOMY_PAIRS_PER_FAMILY = 24
HOLONOMY_TRUNC = 4
DEPTH_MAX_LETTERS = 14  # longer words: see EXCLUDED in run.py
ANCHORED_LETTERS = 11  # cells of at least this many letters are anchored

# braid_comb and braid_equal: (n, L) groups, spliced copies and singular
# sums.  Cheaper lengths get more braids, so each length weighs about the
# same in the run's spread.
BRAID_STRANDS = (3, 4, 5, 6)
BRAID_LENGTHS = (4, 8, 12)
ANCHORED_LENGTH = 8  # braids of at least this length are anchored
BRAIDS_PER_GROUP = {4: 32, 8: 16, 12: 8}
EQUAL_PER_GROUP = {4: 32, 8: 16, 12: 6}
FT_DEGREES = (1, 2, 3)
FT_PER_KIND = 16  # per degree: this many witnesses and this many vanishing sums

# Gauge the machine's speed at least this often during a phase.
GAUGE_EVERY_S = 0.1
REFERENCE_LOOPS = 20_000
# reference_kernel() at the machine's usual speed (see bench/README.md)
REFERENCE_NOMINAL_S = 0.006


def reference_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work: tuple-keyed dictionary
    updates and a sort, the kind of work series arithmetic does.  It runs
    between timed operations and gauges the machine's current speed.

    The garbage collector is off meanwhile: its tuples would trigger
    collections whose cost grows with the workload's heap, not with the
    machine's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf()
        acc: dict[tuple[int, int, int], int] = {}
        for i in range(REFERENCE_LOOPS):
            key = (i % 7, i % 11, i % 13)
            acc[key] = acc.get(key, 0) + i
        sorted(acc.items(), key=lambda kv: (kv[1] % 101, kv[0]))
        return perf() - t0
    finally:
        if enabled:
            gc.enable()


def normalized(times: list[tuple[float, int]], references: list[float],
               nominal: float = REFERENCE_NOMINAL_S) -> list[float]:
    """Operation times at the machine's usual speed.

    Each entry of ``times`` is (seconds, index of the last gauge before the
    operation).  Each time is scaled by the gauge's nominal time over the
    mean of the gauges just before and just after the operation: this
    machine's speed switches between two levels in stretches of about a
    second, and a gauge next to an operation sees the level it ran at."""
    last = len(references) - 1
    return [t * 2 * nominal / (references[g] + references[min(g + 1, last)])
            for t, g in times]


class Outcome:
    """Attempted operations, failed checks and speed gauges of one worker."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.references: list[float] = []
        self._last_gauge = -1e9

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def record(self, times: list, seconds: float) -> None:
        """One operation's time, tagged with the gauge taken just before it."""
        times.append((seconds, len(self.references) - 1))

    def gauge(self, force: bool = False) -> None:
        """Time the reference kernel if one is due; never inside an operation."""
        if force or perf() - self._last_gauge >= GAUGE_EVERY_S:
            self.references.append(reference_kernel())
            self._last_gauge = perf()


def library(package):
    """The package's modules under the short names the phases use."""
    from types import SimpleNamespace

    return SimpleNamespace(pkg=package, series=package.series, fg=package.freegroup,
                           ot=package.ordtools, br=package.braid, ch=package.chen)


def rng_for(family: str, seed: int | str) -> random.Random:
    return random.Random(f"{family}:{seed}")


def random_letters(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """A freely reduced word of exactly ``length`` letters."""
    letters: list[int] = []
    while len(letters) < length:
        letter = rng.choice((1, -1)) * rng.randint(1, rank)
        if not letters or letters[-1] != -letter:
            letters.append(letter)
    return tuple(letters)


def _inverse(letters):
    return tuple(-l for l in reversed(letters))


def _commutator(lib, rank, u, v):
    """[u, v] = u^-1 v^-1 u v as a reduced FreeWord."""
    return lib.fg.FreeWord.from_letters(rank, _inverse(u) + _inverse(v) + u + v)


FAILED = object()  # what timed() returns for an operation that raised


def timed(out: Outcome, times: list[float], label: str, fn, *args):
    """Run one operation, append its wall time, and count an exception as failed."""
    out.gauge()
    out.attempted += 1
    t0 = perf()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed operation is reported, not fatal
        out.record(times, perf() - t0)
        out.fail(f"{label}: {type(exc).__name__}: {exc}")
        return FAILED
    out.record(times, perf() - t0)
    return result


def _sorted(seq, compare, times: list[float], out: Outcome, label: str):
    """Sort by ``compare``, timing each comparison; a raise fails the sort."""
    sign = {"LESS": -1, "EQUAL": 0, "GREATER": 1}

    def cmp(a, b):
        out.gauge()
        out.attempted += 1
        t0 = perf()
        verdict = compare(a, b)
        out.record(times, perf() - t0)
        return sign[verdict.name]

    try:
        return sorted(seq, key=functools.cmp_to_key(cmp))
    except Exception as exc:  # a failed operation is reported, not fatal
        out.fail(f"{label}: {type(exc).__name__}: {exc}")
        return list(seq)


# ---------------------------------------------------------------------------
# Inputs.


def make_inputs(workload: str, seed: int, lib) -> dict:
    if workload == "word_sort":
        return _sort_inputs(rng_for(workload, seed), lib)
    if workload in ROUTE_BLOCKS:
        return _route_inputs(rng_for("word_routes", seed), rng_for("word_routes", "anchor"),
                             lib, ROUTE_BLOCKS[workload])
    if workload in ("braid_comb", "braid_equal"):
        return _braid_inputs(rng_for("braids", seed), rng_for("braids", "anchor"), lib)
    raise ValueError(f"no in-process inputs for workload {workload!r}")


def _sort_inputs(rng, lib) -> dict:
    words = {}
    for rank in SORT_RANKS:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < SORT_WORDS_PER_RANK:
            seen.add(random_letters(rng, rank, rng.randint(1, SORT_MAX_LETTERS)))
        group = [lib.fg.FreeWord(rank, letters) for letters in sorted(seen)]
        rng.shuffle(group)
        words[rank] = group
    return {"words": words}


def left_normed(lib, rank: int, indices: tuple[int, ...]):
    """[[..[x_i1, x_i2], ..], x_ik] for generator indices with i1 != i2."""
    w = lib.fg.FreeWord.generator(rank, indices[0])
    for i in indices[1:]:
        w = _commutator(lib, rank, w.letters, (i,))
    return w


def _route_inputs(seeded, anchor, lib, blocks: int) -> dict:
    """Pairs (a, a*c), stratified: rank and lengths follow the pair index and
    only the letters are drawn, so every seed has the same mix of sizes.  The
    first block is the same for every workload of one seed."""
    FreeWord = lib.fg.FreeWord
    pairs = []
    for _ in range(blocks):
        for family, count in ROUTE_FAMILIES.items():
            for i in range(count):
                rank = 2 + i % 2
                weight = None
                length = 1 + (i // 2) % DEPTH_MAX_LETTERS
                lu, lv = divmod((i // 2) % 16, 4)
                if family == "random":
                    heavy = length >= ANCHORED_LETTERS
                else:
                    heavy = family == "commutator" and 2 * (lu + lv + 2) >= ANCHORED_LETTERS
                if heavy and i >= count // 2:
                    continue  # anchored cells keep two words each: they set peak memory
                rng = anchor if heavy else seeded
                while True:
                    if family == "random":
                        c = FreeWord(rank, random_letters(rng, rank, length))
                    elif family == "commutator":
                        c = _commutator(lib, rank, random_letters(rng, rank, lu + 1),
                                        random_letters(rng, rank, lv + 1))
                    else:
                        weight = int(family[-1])
                        first = rng.randint(1, rank)
                        second = rng.choice([g for g in range(1, rank + 1) if g != first])
                        rest = tuple(rng.randint(1, rank) for _ in range(weight - 2))
                        c = left_normed(lib, rank, (first, second) + rest)
                    if not c.is_identity:  # [u, v] = 1 when u and v commute
                        break
                a = FreeWord(rank, random_letters(rng, rank, 1 + (i // 2) % 8))
                pairs.append({"family": family, "a": a, "b": a * c, "c": c, "weight": weight})
    first_block = pairs[:len(pairs) // blocks]
    holonomy = []
    for family in ROUTE_FAMILIES:
        members = [i for i, p in enumerate(first_block) if p["family"] == family]
        step = len(members) / HOLONOMY_PAIRS_PER_FAMILY
        holonomy += [members[int(j * step)] for j in range(HOLONOMY_PAIRS_PER_FAMILY)]
    depth = [i for i, p in enumerate(pairs) if len(p["c"]) <= DEPTH_MAX_LETTERS]
    return {"pairs": pairs, "holonomy": holonomy, "depth": depth}


def _random_braid_letters(rng, n: int, length: int):
    gens = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    return tuple((*rng.choice(gens), rng.choice((1, -1))) for _ in range(length))


def _singular(rng, d: int, witness: bool, index: int | None = None):
    """A singular braid (as plain data), its factor, a degree-d monomial and
    the expected sum.  With an ``index``, the strand count and the factor
    follow it and only the letters are drawn.

    Witness: d marks A_{i,k+1} in the monomial's order, with unmarked letters
    around them; the degree-d combing coefficient's alternating sum is 2^d.
    Vanishing: d+1 marks anywhere; a degree-d invariant sums to 0.
    """
    if index is None:
        n = rng.choice(BRAID_STRANDS)
        k = rng.randint(1, n - 1)
    else:
        n = BRAID_STRANDS[index % len(BRAID_STRANDS)]
        k = 1 + index // len(BRAID_STRANDS) % (n - 1)
    mono = tuple(rng.randint(1, k) for _ in range(d))
    letters: list[tuple[int, int, int]] = []
    marks: list[int] = []
    if witness:
        for i in mono:
            letters += _random_braid_letters(rng, n, rng.randint(0, 2))
            marks.append(len(letters))
            letters.append((i, k + 1, 1))
        letters += _random_braid_letters(rng, n, rng.randint(0, 2))
        expected = 2**d
    else:
        letters = list(_random_braid_letters(rng, n, 4))
        gens = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
        inserted: list[int] = []
        for _ in range(d + 1):
            pos = rng.randint(0, len(letters))
            letters.insert(pos, (*rng.choice(gens), 1))
            inserted = [p + (p >= pos) for p in inserted] + [pos]
        marks = sorted(inserted)
        expected = 0
    return {"n": n, "letters": letters, "marks": marks, "factor": k,
            "monomial": mono, "expected": expected}


def singular_braid(lib, s: dict):
    return lib.br.SingularBraid(lib.br.PureBraidWord(s["n"], tuple(map(tuple, s["letters"]))),
                                tuple(s["marks"]))


def _braid_inputs(seeded, anchor, lib) -> dict:
    br = lib.br
    groups = []
    for n in BRAID_STRANDS:
        relators = br.conjugation_relators(n)
        for length in BRAID_LENGTHS:
            rng = anchor if length >= ANCHORED_LENGTH else seeded
            seen = set()
            braids = []
            while len(braids) < BRAIDS_PER_GROUP[length]:
                b = br.PureBraidWord(n, _random_braid_letters(rng, n, length))
                normal = tuple(f.letters for f in br.comb(b).factors)
                if normal not in seen:  # distinct group elements, so a sort is strict
                    seen.add(normal)
                    braids.append(b)
            equal = []
            for b in braids[:EQUAL_PER_GROUP[length]]:
                rel = rng.choice(relators)
                pos = rng.randint(0, length)
                equal.append((b, br.PureBraidWord(n, b.letters[:pos] + rel.letters + b.letters[pos:])))
            rng.shuffle(braids)
            groups.append({"n": n, "L": length, "braids": braids, "equal": equal})
    singular = [_singular(anchor, d, witness, i)
                for d in FT_DEGREES for witness in (True, False)
                for i in range(FT_PER_KIND)]
    for s in singular:
        s["singular"] = singular_braid(lib, s)
    return {"groups": groups, "singular": singular}


# ---------------------------------------------------------------------------
# Phases.  ``phase(name)`` is a context manager from the worker that times one
# stretch of a phase (and opens a root span when tracing); a phase may run in
# several stretches.  ``times[name]`` gets one entry per operation in a fixed
# order.  Each runner returns the round's exact counts.


def run(workload: str, lib, inputs: dict, phase, times: dict, out: Outcome) -> dict:
    runners = {
        "word_sort": _run_word_sort, "word_magnus": _run_word_magnus,
        "word_classes": _run_word_classes, "word_depth": _run_word_depth,
        "word_holonomy": _run_word_holonomy, "braid_comb": _run_braid_comb,
        "braid_equal": _run_braid_equal,
    }
    if workload not in runners:
        raise ValueError(f"no in-process phases for workload {workload!r}")
    return runners[workload](lib, inputs, phase, times, out)


def _run_word_sort(lib, inputs, phase, times, out) -> dict:
    fg, ot = lib.fg, lib.ot
    t = times.setdefault("sort", [])
    ordered = {}
    with phase("sort"):
        for rank, words in inputs["words"].items():
            ordered[rank] = _sorted(words, fg.magnus_compare, t, out, f"sort rank {rank}")
    for rank, seq in ordered.items():
        for a, b in zip(seq, seq[1:]):
            if ot.iterated_extension_compare(a, b, len(a) + len(b)).name != "LESS":
                out.fail(f"sort rank {rank}: {a} !< {b} under the class ladder")
    return {"comparisons": len(t)}


def _classes(lib, a, b):
    return lib.ot.iterated_extension_compare(a, b, len(a) + len(b))


def _check_exact_routes(lib, pairs, magnus: list, classes: list, out: Outcome) -> None:
    """The magnus and class-ladder verdicts agree, and neither is EQUAL on a
    pair that differs by c != 1."""
    for p, vm, vc in zip(pairs, magnus, classes):
        if vm is FAILED or vc is FAILED:
            continue  # already counted
        if vm is not vc:
            out.fail(f"magnus {vm.name} != classes {vc.name} on {p['a']} vs {p['b']}")
        elif vm.name == "EQUAL":
            out.fail(f"EQUAL on distinct words {p['a']} and {p['b']}")


def _run_word_magnus(lib, inputs, phase, times, out) -> dict:
    pairs, t = inputs["pairs"], times.setdefault("magnus", [])
    with phase("magnus"):
        magnus = [timed(out, t, "magnus", lib.fg.magnus_compare, p["a"], p["b"]) for p in pairs]
    _check_exact_routes(lib, pairs, magnus, [_classes(lib, p["a"], p["b"]) for p in pairs], out)
    return {}


def _run_word_classes(lib, inputs, phase, times, out) -> dict:
    pairs, t = inputs["pairs"], times.setdefault("classes", [])
    with phase("classes"):
        classes = [timed(out, t, "classes", lib.ot.iterated_extension_compare,
                         p["a"], p["b"], len(p["a"]) + len(p["b"])) for p in pairs]
    _check_exact_routes(lib, pairs, [lib.fg.magnus_compare(p["a"], p["b"]) for p in pairs],
                        classes, out)
    return {}


def _run_word_depth(lib, inputs, phase, times, out) -> dict:
    """lcs_depth(c); checked against the weight of a commutator of generators
    and against the degree at which the expansions of a and a*c first differ."""
    pairs, t = inputs["pairs"], times.setdefault("depth", [])
    chosen = [pairs[i] for i in inputs["depth"]]
    with phase("depth"):
        depths = [timed(out, t, "depth", lib.fg.lcs_depth, p["c"]) for p in chosen]
    for p, depth in zip(chosen, depths):
        if depth is FAILED:
            continue
        if p["weight"] is not None and depth != p["weight"]:
            out.fail(f"lcs_depth {depth} != weight {p['weight']} for {p['c']}")
        key = lib.fg.magnus_witness(p["a"], p["b"])[1]
        if len(key) != depth:
            out.fail(f"lcs_depth {depth} != deciding degree {len(key)} for {p['c']}")
    return {}


def _run_word_holonomy(lib, inputs, phase, times, out) -> dict:
    pairs, t = inputs["pairs"], times.setdefault("holonomy", [])
    chosen = [pairs[i] for i in inputs["holonomy"]]
    compare = functools.partial(lib.ch.holonomy_compare, trunc=HOLONOMY_TRUNC)
    with phase("holonomy"):
        verdicts = [timed(out, t, "holonomy", compare, p["a"], p["b"]) for p in chosen]
    undecided = 0
    for p, verdict in zip(chosen, verdicts):
        if verdict is None:
            undecided += 1
        elif verdict is not FAILED and verdict is not lib.fg.magnus_compare(p["a"], p["b"]):
            out.fail(f"holonomy {verdict.name} != magnus on {p['a']} vs {p['b']}")
    return {"holonomy_undecided": undecided, "holonomy_compared": len(verdicts)}


def _first_factor_verdict(lib, ca, cb):
    """Braid order by the class ladder on the first differing combing factor."""
    for fa, fb in zip(ca.factors, cb.factors):
        if fa.letters != fb.letters:
            return lib.ot.iterated_extension_compare(fa, fb, len(fa) + len(fb)).name
    return "EQUAL"


def _run_braid_comb(lib, inputs, phase, times, out) -> dict:
    """Sort each (n, L) group by braid_compare, and sum ft invariants over
    singular resolutions; the two phases alternate group by group."""
    br = lib.br
    groups = inputs["groups"]
    ordered, sums = [], []
    per_group = len(inputs["singular"]) / len(groups)
    for k, g in enumerate(groups):
        with phase("cmp"):
            ordered.append(_sorted(g["braids"], br.braid_compare, times.setdefault("cmp", []),
                                   out, f"braid sort n={g['n']} L={g['L']}"))
        with phase("ft"):
            for s in inputs["singular"][int(k * per_group):int((k + 1) * per_group)]:
                factor, mono = s["factor"], s["monomial"]
                sums.append(timed(out, times.setdefault("ft", []), "ft",
                                   br.singular_alternating_sum, s["singular"],
                                   lambda w, f=factor, m=mono: br.ft_invariant(f, m, w)))

    for seq in ordered:
        combs = [br.comb(b) for b in seq]
        for a, b, ca, cb in zip(seq, seq[1:], combs, combs[1:]):
            if _first_factor_verdict(lib, ca, cb) != "LESS":
                out.fail(f"braid sort: {br.format_braid(a)} !< {br.format_braid(b)}")
    for s, total in zip(inputs["singular"], sums):
        if total is not FAILED and total != s["expected"]:
            out.fail(f"singular sum {total} != {s['expected']} (factor {s['factor']}, "
                     f"monomial {s['monomial']})")
    return {"comparisons": len(times.get("cmp", []))}


def _run_braid_equal(lib, inputs, phase, times, out) -> dict:
    br = lib.br
    pairs = [pair for g in inputs["groups"] for pair in g["equal"]]
    t = times.setdefault("equal", [])
    with phase("equal"):
        equal = [timed(out, t, "equal", br.braid_equal, b, copy) for b, copy in pairs]
    for (b, copy), same in zip(pairs, equal):
        if same is FAILED:
            continue
        if same is not True:
            out.fail(f"relator splice not equal: {br.format_braid(b)}")
        elif br.braid_compare(b, copy).name != "EQUAL":
            out.fail(f"braid_compare not EQUAL on a spliced copy of {br.format_braid(b)}")
    for g in inputs["groups"]:
        for (b, _), (other, _) in zip(g["equal"], g["equal"][1:]):
            if br.braid_equal(b, other) or br.braid_compare(b, other).name == "EQUAL":
                out.fail(f"distinct braids reported equal: {br.format_braid(b)}")
    return {}


# ---------------------------------------------------------------------------
# cli: one request per call, cycling through CLI_KINDS with seeded inputs.

CLI_KINDS = (
    "compare-magnus", "compare-classes", "compare-holonomy", "compare-braid", "comb",
    "expand", "invariants", "singular-sum", "holonomy", "verify",
)


def word_text(letters) -> str:
    return " ".join(f"x{l}" if l > 0 else f"x{-l}^-1" for l in letters) or "1"


def braid_text(letters, marks=()) -> str:
    marked = set(marks)
    return " ".join(
        ("*" if pos in marked else "") + f"A{i}{j}" + ("" if s > 0 else "^-1")
        for pos, (i, j, s) in enumerate(letters)
    ) or "1"


def cli_request(rng: random.Random, kind: str) -> dict:
    """argv (without the program name) and the inputs needed to check the
    answer, as plain data: the client process does not import the package."""
    rank = rng.choice((2, 3))
    n = rng.choice((3, 4))
    if kind.startswith("compare-") and kind != "compare-braid":
        longest = 4 if kind == "compare-holonomy" else 6
        a = random_letters(rng, rank, rng.randint(1, longest))
        b = random_letters(rng, rank, rng.randint(1, longest))
        argv = ["compare", word_text(a), word_text(b), "--rank", str(rank)]
        method = kind.split("-", 1)[1]
        if method == "classes":
            argv += ["--method", "classes", "--max-class", str(len(a) + len(b))]
        elif method == "holonomy":
            argv += ["--method", "holonomy"]
        return {"kind": kind, "argv": argv + ["--json"], "rank": rank, "a": a, "b": b}
    if kind == "compare-braid":
        a = _random_braid_letters(rng, n, rng.randint(2, 4))
        b = _random_braid_letters(rng, n, rng.randint(2, 4))
        argv = ["compare", braid_text(a), braid_text(b), "--braid", "--strands", str(n)]
        return {"kind": kind, "argv": argv + ["--json"], "n": n, "a": a, "b": b}
    if kind in ("comb", "invariants"):
        w = _random_braid_letters(rng, n, rng.randint(3, 5))
        argv = [kind, braid_text(w), "--strands", str(n)]
        factor = rng.randint(1, n - 1)
        if kind == "invariants":
            argv += ["--factor", str(factor), "--degree", "2"]
        return {"kind": kind, "argv": argv + ["--json"], "n": n, "w": w, "factor": factor}
    if kind in ("expand", "holonomy"):
        w = random_letters(rng, rank, rng.randint(1, 6))
        degree = "3" if kind == "expand" else "2"
        argv = [kind, word_text(w), "--rank", str(rank), "--degree", degree]
        return {"kind": kind, "argv": argv + ["--json"], "rank": rank, "w": w,
                "degree": int(degree)}
    if kind == "singular-sum":
        s = _singular(rng, rng.choice((1, 2)), rng.random() < 0.5)
        argv = ["singular-sum", braid_text(s["letters"], s["marks"]),
                "--strands", str(s["n"]), "--factor", str(s["factor"]),
                "--monomial", ",".join(map(str, s["monomial"]))]
        return {"kind": kind, "argv": argv + ["--json"], **s}
    if kind == "verify":
        argv = ["verify", "--samples", "20", "--seed", str(rng.randint(0, 10**6)),
                "--strands", "3"]
        return {"kind": kind, "argv": argv + ["--json"]}
    raise ValueError(f"unknown cli request kind {kind!r}")


def check_cli_output(lib, req: dict, code: int, stdout: str) -> str | None:
    """None when a CLI call exited 0 and its --json answer matches the
    library's; else a message."""
    import json

    if code != 0:
        return f"{req['argv'][0]} exited {code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return f"{req['argv'][0]}: output is not JSON: {stdout[:200]!r}"
    return _cli_check(lib, req, payload)


def _tuples(value):
    """Lists back to tuples after a JSON round trip; words must be hashable."""
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _cli_check(lib, req: dict, payload: dict) -> str | None:
    from fractions import Fraction

    req = {key: _tuples(value) for key, value in req.items()}

    fg, br = lib.fg, lib.br
    kind = req["kind"]
    if kind.startswith("compare-") and kind != "compare-braid":
        a = fg.FreeWord(req["rank"], req["a"])
        b = fg.FreeWord(req["rank"], req["b"])
        if kind == "compare-magnus":
            expected = fg.magnus_compare(a, b).name
        elif kind == "compare-classes":
            expected = lib.ot.iterated_extension_compare(a, b, len(a) + len(b)).name
        else:
            verdict = lib.ch.holonomy_compare(a, b, trunc=HOLONOMY_TRUNC)
            expected = verdict.name if verdict is not None else None
        got = payload.get("verdict")
    elif kind == "compare-braid":
        a = br.PureBraidWord(req["n"], req["a"])
        b = br.PureBraidWord(req["n"], req["b"])
        expected, got = br.braid_compare(a, b).name, payload.get("verdict")
    elif kind == "comb":
        combed = br.comb(br.PureBraidWord(req["n"], req["w"]))
        expected = [list(f.letters) for f in combed.factors]
        got = payload.get("factors")
    elif kind == "invariants":
        w = br.PureBraidWord(req["n"], req["w"])
        k = req["factor"]
        expected = {}
        for key in [(i,) for i in range(1, k + 1)] + [(i, j) for i in range(1, k + 1)
                                                      for j in range(1, k + 1)]:
            value = Fraction(br.ft_invariant(k, key, w))
            expected["".join(f"Y{i}" for i in key)] = [value.numerator, value.denominator]
        got = payload.get("invariants")
    elif kind == "expand":
        series = fg.magnus_expand(fg.FreeWord(req["rank"], req["w"]), req["degree"])
        expected = {key: Fraction(v) for key, v in series.terms.items()}
        got = {tuple(row[0]): Fraction(row[1], row[2])
               for row in payload.get("series", {}).get("terms", [])}
    elif kind == "holonomy":
        loop = lib.ch.LoopModel(req["rank"], req["w"])
        series = lib.ch.holonomy_series(loop, req["degree"])
        got = payload.get("coefficients", {})
        for key, value in series.values.items():
            label = "".join(f"X{i}" for i in key) or "1"
            row = got.get(label)
            if row is None or abs(row[0] - value) > 1e-12 * max(1.0, abs(value)):
                return f"holonomy {label}: cli {row} vs library {value}"
        return None if len(got) == len(series.values) else "holonomy: key sets differ"
    elif kind == "singular-sum":
        monomial = tuple(req["monomial"])
        total = br.singular_alternating_sum(
            singular_braid(lib, req), lambda w: br.ft_invariant(req["factor"], monomial, w))
        expected, got = [int(total), 1], payload.get("sum")
        if total != req["expected"]:
            return f"singular-sum library value {total} != {req['expected']}"
    elif kind == "verify":
        expected, got = True, payload.get("passed")
    else:
        return f"unknown kind {kind}"
    if got != expected:
        return f"{kind}: cli {got!r} vs library {expected!r}"
    return None
