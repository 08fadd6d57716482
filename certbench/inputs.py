"""The four workloads, each a fixed-size list of certificates made from a seed.

A certificate runs orbicurve (`run`, the timed part) and compares the
result with an answer from `oracles` or from a construction whose answer is
known (`check`, untimed; it returns None or what went wrong).  Functions are
always reached through their module, `cosets.group_order(...)`, so that a
traced pass sees every call.  The seed picks matrix entries, sample points,
Hurwitz triples and query signatures, and moves sizes only within fixed 1%
bands; it never changes how many inputs there are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Any, Callable

import oracles
from orbicurve import (
    abelian,
    cosets,
    covers,
    fixtures,
    isomorphism,
    presentations,
    serre,
    signature,
    wallpaper,
)
from orbicurve.abelian import IntMatrix
from orbicurve.cosets import Exceeded, PermutationImages
from orbicurve.signature import OrbSignature

WORKLOADS = ("enumerate", "covers", "abelianize", "exact-suites")


@dataclass(frozen=True)
class Cert:
    group: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    gap: str | None = None  # id of the known gap this input belongs to


@dataclass(frozen=True)
class CliCert:
    label: str
    argv: tuple[str, ...]
    expected: dict
    files: tuple[tuple[str, str], ...] = ()  # (name, text) written before the run
    gap = None  # no CLI answer belongs to a known gap


def _expect(got, want) -> str | None:
    return None if got == want else f"got {got!r}, expected {want!r}"


def _sig(g, r, m) -> OrbSignature:
    return OrbSignature(g, r, tuple(sorted(m)))


def _random_m(rng, lo, hi, top=12):
    return sorted(rng.randint(2, top) for _ in range(rng.randint(lo, hi)))


def _hyperbolic(rng, g_range, r_range, n_range):
    while True:
        g, r, m = rng.randint(*g_range), rng.randint(*r_range), _random_m(rng, *n_range)
        if oracles.euler_characteristic(g, r, m) < 0:
            return g, r, m


def _chi_text(chi: Fraction) -> str:
    return f"{chi.numerator}/{chi.denominator}"


def _kind_name(chi: Fraction) -> str:
    return "spherical" if chi > 0 else "euclidean" if chi == 0 else "hyperbolic"


# ---------------------------------------------------------------------------
# closed forms: signature, isomorphism, serre, cover arithmetic


def _iso_pair(rng, i):
    """A pair of signatures and the verdict their construction forces."""
    kind = i % 4
    if kind == 0:  # open, same 2g + r and m
        g, m = rng.randint(1, 2), _random_m(rng, 0, 3)
        return (g, 1, m), (0, 2 * g + 1, m), (True, "open_invariants_equal", None)
    if kind == 1:  # compact, one extra marked point
        g, m = rng.randint(1, 2), _random_m(rng, 1, 3)
        return (g, 0, m), (g, 0, sorted(m + [rng.randint(2, 12)])), (
            False, "invariant_mismatch", "m")
    if kind == 2:  # compact against open, neither finite cyclic
        return (rng.randint(1, 2), 0, _random_m(rng, 0, 3)), (
            rng.randint(0, 1), 2, _random_m(rng, 0, 3)), (False, "mixed_compact_open", None)
    p, k = rng.randint(2, 12), rng.choice(((1, 2), (2, 3), (1, 3), (3, 4), (2, 5)))
    return (0, 0, [p * k[0], p * k[1]]), (0, 1, [p]), (True, "finite_cyclic_equal_order", None)


def _serre_case(rng, i):
    """A signature and the (outcome, rule, degree) its family forces."""
    kind = i % 4
    if kind == 0:
        p = rng.randint(2, 12)
        q = rng.choice([x for x in range(2, 13) if gcd(p, x) == 1])
        return (rng.randint(0, 1), rng.randint(1, 2), [p, q]), (
            "realizable", "open_coprime_free_product", None)
    if kind == 1:
        p = rng.randint(2, 6)
        return (rng.randint(0, 1), rng.randint(1, 2), [p, p * rng.randint(1, 2)]), (
            "not_realizable", "open_coprime_free_product", None)
    if kind == 2:
        return (2, 0, _random_m(rng, 0, 3)), ("not_realizable", "hyperbolic_excluded", None)
    p, q = rng.randint(2, 12), rng.randint(2, 12)
    return (0, 0, [p, q]), ("realizable", "finite_cyclic", gcd(p, q))


def closed_form_certs(rng, per_kind: int) -> list[Cert]:
    out = []
    for i in range(per_kind):
        g, r, m = rng.randint(0, 2), rng.randint(0, 2), _random_m(rng, 0, 4)
        chi = oracles.euler_characteristic(g, r, m)
        want = (_kind_name(chi), chi > 0)
        out.append(Cert(
            "closed.kind", f"classify_kind{(g, r, m)}",
            lambda s=_sig(g, r, m): signature.classify_kind(s),
            lambda k, want=want: _expect((k.name.value, k.finite), want),
        ))

        a, b, want = _iso_pair(rng, i)
        out.append(Cert(
            "closed.iso", f"decide_isomorphism{a}{b}",
            lambda a=_sig(*a), b=_sig(*b): isomorphism.decide_isomorphism(a, b),
            lambda v, want=want: _expect((v.isomorphic, v.reason, v.detail), want),
        ))

        s, want = _serre_case(rng, i)
        out.append(Cert(
            "closed.serre", f"plane_curve_realizability{s}",
            lambda s=_sig(*s): serre.plane_curve_realizability(s),
            lambda v, want=want: _expect((v.outcome, v.rule, v.degree), want),
        ))

        compact = i % 2 == 1
        g, r, m = _hyperbolic(rng, (0, 2), (0, 0) if compact else (1, 2), (1, 3))
        chi = oracles.euler_characteristic(g, r, m)
        d = lcm(*m) * rng.randint(1, 4) * (2 if compact else 1)
        rho = 1 - d * chi / 2 if compact else 1 - d * chi
        out.append(Cert(
            "closed.rank", f"torsion_free_subgroup_rank{(g, r, m)} d={d}",
            lambda s=_sig(g, r, m), d=d: covers.torsion_free_subgroup_rank(s, d),
            lambda c, want=(d, int(rho), compact): _expect((c.d, c.rho, c.compact), want),
        ))
    return out


# ---------------------------------------------------------------------------
# abelianizations


def _presentation_text(rows, rng) -> str:
    """gens/rel text whose relator i has exponent sums rows[i], letters in a
    seeded order."""
    n = len(rows[0])
    lines = ["gens " + " ".join(f"g{j + 1}" for j in range(n))]
    for row in rows:
        cols = [j for j in range(n) if row[j]]
        rng.shuffle(cols)
        lines.append(("rel " + " ".join(f"g{j + 1}^{row[j]}" for j in cols)).rstrip())
    return "\n".join(lines) + "\n"


def _check_dense(result, rows, det, rank) -> str | None:
    ab, (D, U, V) = result
    n = len(rows)
    d = D.to_rows()
    if oracles.mat_mul(oracles.mat_mul(U.to_rows(), rows), V.to_rows()) != d:
        return "U*M*V != D"
    if any(d[i][j] for i in range(n) for j in range(n) if i != j):
        return "D is not diagonal"
    diag = [d[i][i] for i in range(n)]
    if any(x < 0 for x in diag):
        return f"negative invariant factor in {diag}"
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x):
            return f"not a divisor chain: {diag}"
    nonzero = [x for x in diag if x]
    if len(nonzero) != rank:
        return f"{len(nonzero)} nonzero invariant factors, rank is {rank}"
    if det and prod(nonzero) != abs(det):
        return f"product of invariant factors {prod(nonzero)} != |det| {abs(det)}"
    return _expect((ab.rank, ab.torsion), (n - rank, tuple(x for x in nonzero if x >= 2)))


def dense_certs(rng, counts: dict[int, int]) -> list[Cert]:
    out = []
    for n, count in counts.items():
        for _ in range(count):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det, rank = oracles.bareiss(rows)
            text = _presentation_text(rows, rng)
            matrix = IntMatrix.from_rows(rows)

            def run(text=text, matrix=matrix):
                pf = presentations.parse_presentation(text)
                return (abelian.abelianization_of_presentation(pf.presentation),
                        abelian.smith_normal_form(matrix))

            out.append(Cert(
                "dense", f"dense n={n} M={rows}", run,
                lambda res, rows=rows, det=det, rank=rank: _check_dense(res, rows, det, rank),
            ))
    return out


SIG72_M = ((), (2,), (3,), (2, 2), (2, 4), (3, 3), (2, 3, 6), (2, 4, 4))


def signature_route_certs() -> list[Cert]:
    """Formula route against presentation route against determinantal
    divisors, for the 72 signatures of the verification script."""
    out = []
    for g in range(3):
        for r in range(3):
            for m in SIG72_M:
                want = oracles.invariant_factors(
                    oracles.signature_relation_rows(g, r, m), 2 * g + len(m) + r)
                s = OrbSignature(g, r, m)

                def run(s=s):
                    return (abelian.abelianization(s),
                            abelian.abelianization_of_presentation(
                                presentations.presentation_of(s)))

                def check(res, want=want):
                    formula, route = res
                    return _expect(formula, route) or _expect((route.rank, route.torsion), want)

                out.append(Cert("sig72", f"abelianization{(g, r, m)}", run, check))
    return out


# ---------------------------------------------------------------------------
# Todd-Coxeter


def finite_grid() -> list[OrbSignature]:
    """The 102 finite signatures of the verification script."""
    sigs = [OrbSignature(0, 0, ()), OrbSignature(0, 1, ())]
    sigs += [OrbSignature(0, 0, (m,)) for m in range(2, 13)]
    sigs += [OrbSignature(0, 1, (m,)) for m in range(2, 13)]
    sigs += [OrbSignature(0, 0, (a, b)) for a in range(2, 13) for b in range(a, 13)]
    sigs += [OrbSignature(0, 0, (2, 2, n)) for n in range(2, 11)]
    sigs += [OrbSignature(0, 0, (2, 3, c)) for c in (3, 4, 5)]
    return sigs


def _grid_cert(s: OrbSignature, group="grid") -> Cert:
    return Cert(
        group, f"group_order{s}",
        lambda s=s: cosets.group_order(presentations.presentation_of(s), 10_000),
        lambda got, want=signature.finite_order(s): _expect(got, want),
    )


def _order_cert(group, label, text, order) -> Cert:
    def run():
        return cosets.group_order(presentations.parse_presentation(text).presentation, 10**6)

    return Cert(group, label, run, lambda got: _expect(got, order))


# <x, y | x^2, y^3, (xy)^7, [x,y]^8> has order 10752 and <x> has index 5376
G10752 = (
    "gens x y\nrel x^2\nrel y^3\nrel " + " ".join(["x y"] * 7)
    + "\nrel " + " ".join(["x^-1 y^-1 x y"] * 8) + "\nsub x\n"
)


def _subgroup_cert() -> Cert:
    def run():
        pf = presentations.parse_presentation(G10752)
        return cosets.coset_enumeration(pf.presentation, pf.subgroup_generators, 10**6)

    def check(t):
        if isinstance(t, Exceeded):
            return f"exceeded {t.bound}"
        return _expect((t.rows, t.complete), (5376, True))

    return Cert("sub10752", "cosets of <x> in the order-10752 group", run, check)


# (2, 2, n) bands: relator rotations and order would change the enumeration
# time several-fold from seed to seed, so the seed only moves n within 1%
DIHEDRAL_N = ((400, 404), (500, 505), (600, 606), (700, 707), (800, 808))


# factorizations of 10^4 into three cyclic orders
ABC_10K = ((10, 20, 50), (10, 25, 40), (16, 25, 25), (20, 20, 25), (8, 25, 50))


def abelian_text(orders) -> str:
    names = ("x", "y", "z")
    lines = ["gens x y z"] + [f"rel {v}^{e}" for v, e in zip(names, orders)]
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = names[i], names[j]
            lines.append(f"rel {a} {b} {a}^-1 {b}^-1")
    return "\n".join(lines) + "\n"


EXAMPLES = ("quartic-b3p1", "sextic-b4p1", "quintic-237",
            "artal(4,1,1)", "artal(5,2,1)", "artal(7,4,1)", "artal(10,7,1)")


def _example_cert(name: str) -> Cert:
    def check(report):
        bad = [f.fact for f in report.facts if not f.passed]
        return None if report.passed and not bad else f"facts failed: {bad}"

    return Cert("example", f"verify_example({name})",
                lambda: fixtures.verify_example(name), check)


# ---------------------------------------------------------------------------
# covers


SIG237 = OrbSignature(0, 0, (2, 3, 7))
# same images, a signature they do not cover faithfully: the generator whose
# image has too small an order
REJECTIONS = ((OrbSignature(0, 0, (2, 3, 14)), 3),
              (OrbSignature(0, 0, (2, 6, 7)), 2),
              (OrbSignature(0, 0, (4, 6, 7)), 1))


def hurwitz_certs(q: int, triples: int, rng) -> list[Cert]:
    """Per triple: the kernel certificate (index |PSL(2, q)| and cover genus
    1 + index/84), then two rejections from the same images: a signature
    they do not cover faithfully, and the triple with its third image
    perturbed."""
    order = oracles.psl2_order(q)
    out = []
    for t in range(triples):
        triple = oracles.hurwitz_triple(q, rng)
        images = PermutationImages(q + 1, triple)
        label = f"PSL(2,{q}) triple {[list(p) for p in triple]}"

        def kernel(im=images, d=order):
            return (covers.verify_torsion_free_kernel(SIG237, im, 10**6),
                    covers.torsion_free_subgroup_rank(SIG237, d))

        def kernel_check(res, order=order):
            check, cover = res
            if isinstance(check, Exceeded):
                return f"exceeded {check.bound}"
            return _expect((check.verdict, check.index, cover.rho, cover.compact),
                           ("torsion_free_kernel", order, 1 + order // 84, True))

        out.append(Cert("kernel", label, kernel, kernel_check))

        sig, gen = REJECTIONS[t % len(REJECTIONS)]
        out.append(Cert("rejection", f"{label} as {sig.m}",
                        lambda s=sig, im=images: covers.verify_torsion_free_kernel(s, im),
                        lambda res, gen=gen: _expect((res.verdict, res.generator),
                                                     ("torsion_in_kernel", gen))))

        i, j = rng.sample(range(q + 1), 2)
        swap = list(range(q + 1))
        swap[i], swap[j] = j, i
        broken = PermutationImages(q + 1, triple[:2] + (oracles.perm_mul(triple[2], swap),))
        out.append(Cert("rejection", f"{label} with x3 followed by ({i} {j})",
                        lambda im=broken: covers.verify_torsion_free_kernel(SIG237, im),
                        lambda res: _expect(res.verdict, "not_homomorphism")))
    return out


# ---------------------------------------------------------------------------
# exact suites


WALLPAPER_CHECKS = ("sigma_order", "pibar_invariance", "image_on_surface",
                    "generic_points_free", "total_ramification_spot",
                    "fixed_points_fixed", "h_matrix_order")


def wallpaper_cert(k: int, samples: int, seed: int) -> Cert:
    def check(report):
        names = tuple(c.name for c in report.checks)
        failed = [c.name for c in report.checks if not c.passed]
        if failed or not report.passed:
            return f"checks failed: {failed}"
        return _expect((names, report.samples), (WALLPAPER_CHECKS, samples))

    return Cert("wallpaper", f"run_wallpaper_suite(k={k}, samples={samples}, seed={seed})",
                lambda: wallpaper.run_wallpaper_suite(k, samples, seed), check)


def triangle_cert(triple, gap=None) -> Cert:
    def run():
        return fixtures.check_triangle_rep(fixtures.triangle_representation(*triple))

    return Cert("triangle", f"check_triangle_rep{triple}", run,
                lambda c: None if c.passed else (
                    f"order deviations {c.order_deviations} at tolerance 1e-9"),
                gap)


def hyperbolic_triples() -> list[tuple[int, int, int]]:
    """The first 20 hyperbolic triples with entries up to 12."""
    return [
        (a, b, c)
        for a in range(2, 13) for b in range(a, 13) for c in range(b, 13)
        if Fraction(1, a) + Fraction(1, b) + Fraction(1, c) < 1
    ][:20]


# (2, 3, m) bands: every m below 470 passes at tolerance 1e-9 and every m in
# the upper bands fails it (see the triangle_float_drift gap)
PASSING_M = ((100, 101), (200, 202), (300, 303), (400, 404))
GAP_M = ((3000, 3030), (10000, 10100), (30000, 30300), (99000, 99100))


# ---------------------------------------------------------------------------
# workloads


def light_certs(rng) -> list[Cert]:
    """One small certificate per layer, in every workload, so that every
    layer is measured on every workload."""
    return (
        closed_form_certs(rng, 1)
        + dense_certs(rng, {4: 1})
        + [_grid_cert(OrbSignature(0, 0, (2, 2, 7))),
           hurwitz_certs(7, 1, rng)[0],
           triangle_cert((2, 3, 7)),
           _example_cert("quartic-b3p1")]
        + [wallpaper_cert(k, 1, rng.randrange(2**31)) for k in (2, 3, 4, 6)]
    )


def build(workload: str, seed: int) -> list[Cert]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "enumerate":
        certs = [_grid_cert(s) for s in finite_grid()]
        certs.append(_order_cert("order10752", "order of <x,y | x^2, y^3, (xy)^7, [x,y]^8>",
                                 G10752, 10752))
        certs.append(_subgroup_cert())
        for band in DIHEDRAL_N:
            certs.append(_grid_cert(OrbSignature(0, 0, (2, 2, rng.randrange(*band))), "dihedral"))
        for _ in range(5):
            orders = list(rng.choice(ABC_10K))
            rng.shuffle(orders)
            certs.append(_order_cert("abelian3", f"Z_{orders[0]} x Z_{orders[1]} x Z_{orders[2]}",
                                     abelian_text(orders), prod(orders)))
        certs += [_example_cert(name) for name in EXAMPLES]
    elif workload == "covers":
        certs = []
        # the 25 kernels of q >= 29 are the slowest certificates, so the p75
        # tail stays on closures; the 54 rejections hold the median
        for q, triples in ((7, 1), (13, 1), (29, 21), (43, 4)):
            certs += hurwitz_certs(q, triples, rng)
    elif workload == "abelianize":
        # n = 8 carries the pass: its SNF time varies least from matrix to
        # matrix among the sizes that show coefficient growth (see the
        # dense_snf_n10_and_up gap), so the median and tail stay steady
        certs = dense_certs(rng, {4: 8, 5: 8, 6: 8, 7: 8, 8: 700, 9: 8})
        certs += signature_route_certs()
        certs += closed_form_certs(rng, 16)
    elif workload == "exact-suites":
        # many small suites rather than a few large ones, and twice as many
        # for k = 2, so that the median falls inside the k = 2 suites and the
        # p90 tail inside the k = 6 suites
        certs = [wallpaper_cert(k, 5, rng.randrange(2**31))
                 for k in (2, 2, 3, 4, 6) for _ in range(12)]
        certs += [triangle_cert(t) for t in hyperbolic_triples()]
        certs += [triangle_cert((2, 3, rng.randrange(*band))) for band in PASSING_M]
        certs += [triangle_cert((2, 3, rng.randrange(*band)), "triangle_float_drift")
                  for band in GAP_M]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return certs + light_certs(rng)


def cli_certs(workload: str, seed: int, count: int) -> list[CliCert]:
    """orbicurve processes: chi, iso, serre and abelianize --presentation in
    turn, with answers from oracles or from the construction."""
    rng = random.Random(f"{workload}/{seed}/cli")
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            g, r, m = rng.randint(0, 2), rng.randint(0, 2), _random_m(rng, 0, 4)
            chi = oracles.euler_characteristic(g, r, m)
            out.append(CliCert(f"chi {(g, r, m)}",
                               ("chi", "--sig", _sig_json(g, r, m)),
                               {"chi": _chi_text(chi), "kind": _kind_name(chi)}))
        elif kind == 1:
            a, b, (iso, reason, detail) = _iso_pair(rng, rng.randrange(4))
            want = {"isomorphic": iso, "reason": reason}
            if detail:
                want["detail"] = detail
            out.append(CliCert(f"iso {a} {b}",
                               ("iso", "--a", _sig_json(*a), "--b", _sig_json(*b)), want))
        elif kind == 2:
            s, (outcome, rule, degree) = _serre_case(rng, rng.randrange(4))
            out.append(CliCert(f"serre {s}", ("serre", "--sig", _sig_json(*s)),
                               {"verdict": outcome, "rule": rule, "degree": degree}))
        else:
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            rank, torsion = oracles.invariant_factors(rows, 5)
            name = f"cli-{workload}-{seed}-{i}.txt"
            out.append(CliCert(f"abelianize --presentation M={rows}",
                               ("abelianize", "--presentation", name),
                               {"rank": rank, "torsion": list(torsion)},
                               ((name, _presentation_text(rows, rng)),)))
    return out


def _sig_json(g, r, m) -> str:
    return f'{{"g": {g}, "r": {r}, "m": {list(m)}}}'
