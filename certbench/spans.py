"""Spans around orbicurve's public functions, recorded from outside the package.

A traced pass replaces each wrapped module attribute with a timing wrapper
and restores it afterwards.  Wrapping happens where the name is looked up:
`covers.verify_torsion_free_kernel` calls `permutation_group_order` through
the `covers` module's own binding, so that binding is wrapped as well as the
one in `cosets`.  Spans stay in memory; `Tracer.spans` is written out when
the run ends.
"""

from __future__ import annotations

import functools
import types
from time import get_clock_info, perf_counter

# span fields: name, layer, start, end, parent index (or None), certificate
# id, counters (dict or None)
NAME, LAYER, START, END, PARENT, CERT, COUNTS = range(7)


def _enum_counts(args, result):
    rows = getattr(result, "rows", None)
    if rows is None:  # Exceeded: the live-coset count reached the bound
        return {"rows": result.bound, "exceeded": 1, "enumerations": 1}
    return {"rows": rows, "completed": 1, "enumerations": 1}


def _snf_counts(args, result):
    m = args[0]
    _, u, v = result
    bits = max((abs(e).bit_length() for e in u.entries + v.entries), default=0)
    return {"cells": m.rows * m.cols, "transform_bits_max": bits}


def _closure_counts(args, result):
    return {"elements": result} if isinstance(result, int) else {"elements": 0}


def _kernel_counts(args, result):
    rejected = getattr(result, "verdict", "torsion_free_kernel") != "torsion_free_kernel"
    return {"rejections": int(rejected)}


def _wallpaper_counts(args, result):
    # "k" is not summed: layer_totals books the span's time under its k
    return {"samples": result.samples, "k": result.k}


def _triangle_counts(args, result):
    return {"powers": sum(args[0].orders), "failed": int(not result.passed)}


# (module, attribute, layer, counter)
WRAP_POINTS = (
    ("signature", "euler_characteristic", "signature", None),
    ("signature", "classify_kind", "signature", None),
    ("signature", "finite_order", "signature", None),
    ("isomorphism", "decide_isomorphism", "isomorphism", None),
    ("serre", "plane_curve_realizability", "serre", None),
    ("presentations", "presentation_of", "presentations", None),
    ("presentations", "parse_presentation", "presentations", None),
    ("covers", "presentation_of", "presentations", None),
    ("fixtures", "presentation_of", "presentations", None),
    ("abelian", "abelianization", "abelian", None),
    ("abelian", "abelianization_of_presentation", "abelian", None),
    ("abelian", "smith_normal_form", "abelian", _snf_counts),
    ("fixtures", "abelianization_of_presentation", "abelian", None),
    ("cosets", "coset_enumeration", "cosets.enum", _enum_counts),
    ("cosets", "group_order", "cosets.enum", None),
    ("fixtures", "group_order", "cosets.enum", None),
    ("cosets", "permutation_group_order", "cosets.closure", _closure_counts),
    ("covers", "permutation_group_order", "cosets.closure", _closure_counts),
    ("covers", "verify_homomorphism", "cosets.homomorphism", None),
    ("covers", "verify_torsion_free_kernel", "covers", _kernel_counts),
    ("covers", "torsion_free_subgroup_rank", "covers", None),
    ("wallpaper", "run_wallpaper_suite", "wallpaper", _wallpaper_counts),
    ("fixtures", "check_triangle_rep", "fixtures.triangle", _triangle_counts),
    ("fixtures", "verify_example", "fixtures.example", None),
)


class Tracer:
    """Records nested spans while installed; restores every attribute on
    uninstall."""

    def __init__(self, modules: dict, points=WRAP_POINTS):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._points = [
            (modules[mod], attr, f"{mod}.{attr}", layer, counter)
            for mod, attr, layer, counter in points
        ]
        self._originals = [getattr(m, attr) for m, attr, *_ in self._points]

    def install(self) -> None:
        for (module, attr, name, layer, counter), fn in zip(self._points, self._originals):
            setattr(module, attr, self._wrap(fn, name, layer, counter))

    def uninstall(self) -> None:
        for (module, attr, *_), fn in zip(self._points, self._originals):
            setattr(module, attr, fn)

    def _open(self, name, layer, cert) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            cert = self.spans[parent][CERT]
        self.spans.append([name, layer, perf_counter(), 0.0, parent, cert, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def run_certificate(self, cert_id: int, group: str, fn):
        """Call fn inside a root span for one certificate."""
        index = self._open("certificate." + group, "certificate", cert_id)
        try:
            return fn()
        finally:
            self._close(index)

    def _wrap(self, fn, name, layer, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, layer, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index][COUNTS] = counter(args, result)
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Coverage is the union of the children's intervals clipped to the parent,
    so overlapping or escaping children cannot be counted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def check_accounting(spans, resolution: float) -> list[str]:
    """Problems with the span tree: children outside their parent, or self
    times that do not add up to the root's duration."""
    problems = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p is not None and (s[START] < spans[p][START] or s[END] > spans[p][END]):
            problems.append(f"span {i} ({s[NAME]}) extends past its parent {p}")
        if s[END] < s[START]:
            problems.append(f"span {i} ({s[NAME]}) ends before it starts")
    selfs = self_times(spans)
    root_of = []
    for s in spans:
        root_of.append(len(root_of) if s[PARENT] is None else root_of[s[PARENT]])
    totals: dict[int, float] = {}
    sizes: dict[int, int] = {}
    for i, root in enumerate(root_of):
        totals[root] = totals.get(root, 0.0) + selfs[i]
        sizes[root] = sizes.get(root, 0) + 1
    for root, total in totals.items():
        duration = spans[root][END] - spans[root][START]
        if abs(total - duration) > resolution * sizes[root] + 1e-12:
            problems.append(
                f"self times under span {root} sum to {total!r}, duration {duration!r}"
            )
    return problems


def layer_totals(spans, groups: dict[int, str], scales: dict[int, float]):
    """Per layer: busy seconds and calls of its outermost spans, summed self
    time, and counters.  `groups` maps certificate ids to their group and
    `scales` to the speed scale of the certificate's interval, which every
    duration inside it is multiplied by."""
    selfs = [t * scales[s[CERT]] for t, s in zip(self_times(spans), spans)]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    group_busy: dict[tuple[str, str], float] = {}
    for i, s in enumerate(spans):
        layer = s[LAYER]
        self_s[layer] = self_s.get(layer, 0.0) + selfs[i]
        if s[COUNTS]:
            for key, value in s[COUNTS].items():
                if key == "k":
                    continue
                full = f"{layer}.{key}"
                if key.endswith("_max"):
                    counts[full] = max(counts.get(full, 0), value)
                else:
                    counts[full] = counts.get(full, 0) + value
            if "k" in s[COUNTS]:
                key = f"{layer}.k{s[COUNTS]['k']}"
                busy[key] = busy.get(key, 0.0) + (s[END] - s[START]) * scales[s[CERT]]
        p = s[PARENT]
        while p is not None and spans[p][LAYER] != layer:
            p = spans[p][PARENT]
        if p is None:  # outermost span of its layer
            duration = (s[END] - s[START]) * scales[s[CERT]]
            busy[layer] = busy.get(layer, 0.0) + duration
            calls[layer] = calls.get(layer, 0) + 1
            key = (layer, groups.get(s[CERT], ""))
            group_busy[key] = group_busy.get(key, 0.0) + duration
    return busy, calls, self_s, counts, group_busy


def wrapped_attributes(modules: dict) -> list[str]:
    """Wrap points that currently hold a wrapper instead of orbicurve's
    function."""
    return [f"{mod}.{attr}" for mod, attr, _, _ in WRAP_POINTS
            if hasattr(getattr(modules[mod], attr), "__wrapped__")]


def self_test() -> list[str]:
    """Trace a known call tree and check the accounting on it, and check
    that the accounting rejects a child that escapes its parent."""
    ns = types.SimpleNamespace()
    ns.leaf = lambda: sum(range(2000))
    ns.mid = lambda: ns.leaf() + ns.leaf()
    ns.top = lambda: ns.mid() + ns.leaf()
    originals = dict(vars(ns))
    tracer = Tracer({"ns": ns}, [("ns", f, f, None) for f in ("top", "mid", "leaf")])
    tracer.install()
    try:
        tracer.run_certificate(7, "test", lambda: ns.top())
    finally:
        tracer.uninstall()
    problems = []
    shape = [(s[NAME], s[PARENT], s[CERT]) for s in tracer.spans]
    want = [("certificate.test", None, 7), ("ns.top", 0, 7), ("ns.mid", 1, 7),
            ("ns.leaf", 2, 7), ("ns.leaf", 2, 7), ("ns.leaf", 1, 7)]
    if shape != want:
        problems.append(f"self-test span tree {shape}, expected {want}")
    if vars(ns) != originals:
        problems.append("self-test: uninstall did not restore the functions")
    resolution = get_clock_info("perf_counter").resolution
    problems += check_accounting(tracer.spans, resolution)
    escaped = [list(s) for s in tracer.spans]
    escaped[3][END] = escaped[2][END] + 1.0
    if not check_accounting(escaped, resolution):
        problems.append("self-test: a child ending after its parent went unnoticed")
    return problems
