"""In-memory span tracer installed around biorder's public functions.

The tracer never edits the package: it replaces module attributes.  Each
wrapped function is found by (module, attribute) and its wrapper is bound
under every name any biorder module uses for the same object, so a call
from ``magnus_witness`` to ``series_compare_witness`` goes through the
wrapper exactly like a call from the benchmark does, and spans nest.

A span records its name, start, end, parent and the wall time its wrapper
took in total ("outer").  Self time is the span's duration minus the outer
time of its direct children; the difference between outer and inner time
is tracing overhead, booked to the trace and not to any layer.  Counts are
taken in the same wrappers, after the inner clock has stopped, and never
call into the package, so they leave its caches as the program left them.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

_perf = time.perf_counter

# (module, attribute, span name).  A missing attribute is a failure of the
# traced run: its time would pass unseen into no layer.
WRAPPED = (
    ("series", "series_compare_witness", "series.compare"),
    ("freegroup", "magnus_expand", "freegroup.expand"),
    ("freegroup", "magnus_compare", "freegroup.magnus"),
    ("freegroup", "magnus_witness", "freegroup.magnus"),
    ("freegroup", "lcs_depth", "freegroup.lcs_depth"),
    ("ordtools", "iterated_extension_compare", "ordtools.classes"),
    ("braid", "comb", "braid.comb"),
    ("braid", "braid_compare", "braid.compare"),
    ("braid", "braid_witness", "braid.compare"),
    ("braid", "braid_equal", "braid.equal"),
    ("braid", "_artin_images", "braid.artin"),
    ("braid", "ft_invariant", "braid.ft"),
    ("braid", "singular_alternating_sum", "braid.singular_sum"),
    ("chen", "holonomy_compare", "chen.compare"),
    ("chen", "holonomy_series", "chen.series"),
    ("chen", "iterated_integral", "chen.integral"),
    ("cli", "main", "cli.main"),
)

# Cached functions whose cache_info() feeds the hit ratios.
CACHES = {
    "freegroup.expand": ("freegroup", "_expand"),
    "braid.comb": ("braid", "_comb_cached"),
    "braid.artin": ("braid", "_artin_images"),
}


def _deglex(key):
    return (len(key), key)


class Tracer:
    """Spans in flat lists; counters in a dict; one instance per process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.outers: list[float] = []
        self.parents: list[int] = []
        self.tags: list[object] = []
        self.phase_of: list[int] = []
        self.stack: list[int] = [-1]
        self.phase = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.child_expands: dict[int, int] = defaultdict(int)
        self.child_combs: dict[int, list] = defaultdict(list)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.outers.append(0.0)
        self.parents.append(self.stack[-1])
        self.tags.append(None)
        self.phase_of.append(self.phase)
        self.stack.append(idx)
        return idx

    def root(self, name: str) -> "_Root":
        """A span of the benchmark's own, around one timed phase."""
        return _Root(self, name)

    def _close(self, idx: int, t_in: float, t0: float, post=None, args=(), result=None):
        t1 = _perf()
        self.stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1
        if post is not None:
            post(self, idx, args, result)
        self.outers[idx] = _perf() - t_in

    def wrap(self, name: str, fn, post=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase < 0:  # outside the timed phases: checks, set-up
                return fn(*args, **kwargs)
            t_in = _perf()
            idx = tracer._open(name)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, t_in, t0)
                raise
            tracer._close(idx, t_in, t0, post, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> list[str]:
        """Bind a wrapper under every name that refers to a wrapped function.

        Returns the WRAPPED and CACHES targets that do not exist."""
        modules = [package] + [
            getattr(package, m)
            for m in ("series", "freegroup", "ordtools", "braid", "chen", "cli")
            if hasattr(package, m)
        ]
        missing = [f"{mod}.{attr} (cache)" for layer, (mod, attr) in CACHES.items()
                   if cache_counts(package)[layer] is None]
        replacements = {}
        for mod_name, attr, span in WRAPPED:
            fn = getattr(getattr(package, mod_name, None), attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            if id(fn) not in replacements:
                replacements[id(fn)] = self.wrap(span, fn, _POST.get(attr))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return missing

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.outers[idx]
        return own

    def overhead_of(self, idx: int) -> float:
        return self.outers[idx] - (self.ends[idx] - self.starts[idx])

    def dump(self, path) -> None:
        """Write every span as JSON lines (gzip); the first line names the fields."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "outer", "tag"]}))
            fh.write("\n")
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.outers, self.tags):
                fh.write(json.dumps(row, default=str))
                fh.write("\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.idx = tr._open(self.name)
        tr.phase = self.idx
        tr.phase_of[self.idx] = self.idx
        tr.starts[self.idx] = _perf()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.ends[self.idx] = _perf()
        tr.outers[self.idx] = tr.ends[self.idx] - tr.starts[self.idx]
        tr.stack.pop()
        tr.phase = -1
        return False


# ---------------------------------------------------------------------------
# Counters taken in the wrappers.  Each gets (tracer, span index, args, result).


def _post_series(tr, idx, args, result):
    tr.counts["series.compare.calls"] += 1
    a, b = args[0], args[1]
    key = result[1]
    keys = set(a.terms) | set(b.terms)
    if key is None:
        scanned = len(keys)
    else:
        limit = _deglex(key)
        scanned = sum(1 for k in keys if _deglex(k) <= limit)
    tr.counts["series.compare.keys_scanned"] += scanned
    parent = tr.parents[idx]
    if parent >= 0 and tr.names[parent] == "freegroup.magnus":
        tr.counts["freegroup.magnus.escalation_steps"] += 1


def _post_expand(tr, idx, args, result):
    tr.counts["freegroup.expand.calls"] += 1
    tr.counts["freegroup.expand.terms_out"] += len(result.terms)
    parent = tr.parents[idx]
    if parent >= 0 and tr.names[parent] == "ordtools.classes":
        tr.counts["ordtools.classes.expand_calls"] += 1
        tr.child_expands[parent] += 1


def _post_witness(tr, idx, args, result):
    key = result[1]
    if key is not None:
        tr.counts["freegroup.magnus.decided"] += 1
        tr.counts["freegroup.magnus.deciding_degree_sum"] += len(key)


def _post_lcs(tr, idx, args, result):
    tr.counts["freegroup.lcs_depth.calls"] += 1
    tr.tags[idx] = len(args[0])


def _post_classes(tr, idx, args, result):
    tr.counts["ordtools.classes.calls"] += 1
    if args[0].letters != args[1].letters:
        tr.counts["ordtools.classes.decided"] += 1
        tr.counts["ordtools.classes.deciding_class_sum"] += tr.child_expands.pop(idx, 0)


def _post_comb(tr, idx, args, result):
    tr.counts["braid.comb.calls"] += 1
    letters = [len(f) for f in result.factors]
    tr.counts["braid.comb.factor_letters_sum"] += sum(letters)
    tr.counts["braid.comb.factor_letters_max"] = max(
        tr.counts["braid.comb.factor_letters_max"], max(letters, default=0)
    )
    w = args[0]
    tr.tags[idx] = (w.strands, len(w.letters))
    parent = tr.parents[idx]
    if parent >= 0 and tr.names[parent] == "braid.compare":
        tr.child_combs[parent].append(result)


def _post_compare(tr, idx, args, result):
    """The deciding level, from the two combings the compare call made."""
    tr.counts["braid.compare.calls"] += 1
    combs = tr.child_combs.pop(idx, [])
    if len(combs) != 2:
        return
    ca, cb = combs
    for level, (fa, fb) in enumerate(zip(ca.factors, cb.factors), start=1):
        if fa.letters != fb.letters:
            tr.counts["braid.compare.decided"] += 1
            tr.counts["braid.compare.deciding_level_sum"] += level
            break


def _post_equal(tr, idx, args, result):
    tr.counts["braid.equal.calls"] += 1
    w = args[0]
    tr.tags[idx] = (w.strands, len(w.letters))


def _post_artin(tr, idx, args, result):
    tr.counts["braid.artin.calls"] += 1
    tr.counts["braid.artin.image_letters_max"] = max(
        tr.counts["braid.artin.image_letters_max"], max(len(img) for img in result)
    )


def _post_singular(tr, idx, args, result):
    tr.counts["braid.singular_sum.calls"] += 1
    tr.counts["braid.singular_sum.resolutions"] += 1 << len(args[0].marked)


def _post_series_hol(tr, idx, args, result):
    tr.counts["chen.series.calls"] += 1
    tr.tags[idx] = (args[0].rank, result.trunc)


def _post_integral(tr, idx, args, result):
    tr.counts["chen.integral.calls"] += 1


_POST = {
    "series_compare_witness": _post_series,
    "magnus_expand": _post_expand,
    "magnus_witness": _post_witness,
    "lcs_depth": _post_lcs,
    "iterated_extension_compare": _post_classes,
    "comb": _post_comb,
    "braid_compare": _post_compare,
    "braid_equal": _post_equal,
    "_artin_images": _post_artin,
    "singular_alternating_sum": _post_singular,
    "holonomy_series": _post_series_hol,
    "iterated_integral": _post_integral,
}


def cache_counts(package) -> dict[str, list[int] | None]:
    """[hits, misses] of each tracked cache, or None where it does not exist."""
    out = {}
    for layer, (mod_name, attr) in CACHES.items():
        fn = getattr(getattr(package, mod_name, None), attr, None)
        if fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)  # under the tracer's wrapper
        info = getattr(fn, "cache_info", None)
        out[layer] = [info().hits, info().misses] if info is not None else None
    return out


def summarize(tr: Tracer, phases: dict[str, tuple[list[int], float, float]]) -> dict:
    """Per-layer self times, per-phase accounting, counters and curve groups.

    ``phases`` maps a phase name to (the root span indices of its stretches,
    its wall time and the summed time of its operations, both on the
    benchmark's own clock); spans of other phases are left out.  Counters
    are copied as they stand at the call.
    """
    own = tr.self_times()
    roots = {root for indices, _, _ in phases.values() for root in indices}
    layer_self: dict[str, float] = defaultdict(float)
    per_phase_self: dict[int, float] = defaultdict(float)
    per_phase_over: dict[int, float] = defaultdict(float)
    negative = 0
    for idx, name in enumerate(tr.names):
        phase = tr.phase_of[idx]
        if phase not in roots or idx == phase:
            continue
        layer_self[name] += own[idx]
        per_phase_self[phase] += own[idx]
        per_phase_over[phase] += tr.overhead_of(idx)
        if own[idx] < -1e-6:
            negative += 1
    accounting = {
        pname: {
            "wall_s": wall,
            "ops_s": ops_s,
            "bench_s": wall - ops_s,
            "layers_s": sum(per_phase_self[r] for r in indices),
            "trace_s": sum(per_phase_over[r] for r in indices),
        }
        for pname, (indices, wall, ops_s) in phases.items()
    }

    groups: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for idx, name in enumerate(tr.names):
        tag = tr.tags[idx]
        phase = tr.phase_of[idx]
        if tag is None or phase not in roots:
            continue
        key = f"{tr.names[phase]}|{name}|{json.dumps(tag)}"
        groups[name][key].append(tr.ends[idx] - tr.starts[idx])
    return {
        "self_s": dict(layer_self),
        "counts": dict(tr.counts),
        "accounting": accounting,
        "negative_self": negative,
        "spans": len(tr.names),
        "groups": {k: dict(v) for k, v in groups.items()},
    }
