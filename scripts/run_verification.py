#!/usr/bin/env python3
"""Run every verification suite in the package and print a summary.

This drives the same oracles the test suite uses: finite orders via coset
enumeration, the abelianization table, the NINF verdicts of the compact
Euclidean groups against their rotation matrices, the four exact
quotient-surface suites, the named plane-curve examples, forged word-map
certificates that must be rejected, the torsion-free cover fixture, and a
sweep of hyperbolic triangle representations.
"""

import sys
import time
from dataclasses import replace
from fractions import Fraction
from math import lcm

from orbicurve import (
    Exceeded,
    OrbSignature,
    WordMaps,
    abelianization,
    abelianization_of_presentation,
    check_triangle_rep,
    check_word_maps,
    coset_enumeration,
    example_presentation,
    finite_order,
    group_order,
    h_matrix,
    parse_presentation,
    permutation_group_order,
    presentation_of,
    projective_triangle_fixture,
    quotient_by_relators,
    run_wallpaper_suite,
    satisfies_ninf,
    torsion_free_subgroup_rank,
    triangle_representation,
    verify_example,
    verify_torsion_free_kernel,
)
from orbicurve.fixtures import QuotientPresentationFact


def banner(title):
    print(f"\n== {title}")


def main() -> int:
    t0 = time.time()
    failures = 0

    banner("finite orders: enumeration vs closed form")
    sigs = [OrbSignature(0, 0, ()), OrbSignature(0, 1, ())]
    sigs += [OrbSignature(0, 0, (m,)) for m in range(2, 13)]
    sigs += [OrbSignature(0, 1, (m,)) for m in range(2, 13)]
    sigs += [
        OrbSignature(0, 0, (m1, m2))
        for m1 in range(2, 13)
        for m2 in range(m1, 13)
    ]
    sigs += [OrbSignature(0, 0, (2, 2, n)) for n in range(2, 11)]
    sigs += [OrbSignature(0, 0, (2, 3, c)) for c in (3, 4, 5)]
    for sig in sigs:
        expected = finite_order(sig)
        got = group_order(presentation_of(sig), 10_000)
        ok = got == expected
        failures += not ok
        if not ok:
            print(f"  FAIL {sig}: enumerated {got}, formula {expected}")
    print(f"  {len(sigs)} finite signatures certified")

    banner("abelianization: formula route vs presentation route")
    count = 0
    for g in range(3):
        for r in range(3):
            for m in [(), (2,), (3,), (2, 2), (2, 4), (3, 3), (2, 3, 6), (2, 4, 4)]:
                sig = OrbSignature(g, r, m)
                ok = abelianization(sig) == abelianization_of_presentation(
                    presentation_of(sig)
                )
                failures += not ok
                count += 1
    print(f"  {count} signatures compared")

    banner("NINF on the compact Euclidean groups: fails iff h has eigenvalue +-1")
    for sig in (OrbSignature(1, 0, ()), OrbSignature(0, 0, (2, 2, 2, 2)),
                OrbSignature(0, 0, (3, 3, 3)), OrbSignature(0, 0, (2, 4, 4)),
                OrbSignature(0, 0, (2, 3, 6))):
        # G = Z^2 x|_h Z_k with k = lcm(m); h = I for the torus
        k = lcm(*sig.m)
        (a, b), (c, d) = h_matrix(k) if k > 1 else ((1, 0), (0, 1))
        eigenvalue_pm1 = ((a - 1) * (d - 1) - b * c) * ((a + 1) * (d + 1) - b * c) == 0
        verdict = satisfies_ninf(sig).verdict.value
        ok = (verdict == "fails") == eigenvalue_pm1
        failures += not ok
        print(f"  g={sig.g}, m={sig.m}: k={k}, eigenvalue +-1: {eigenvalue_pm1}, "
              f"ninf {verdict}: {'PASS' if ok else 'FAIL'}")

    banner("quotient-surface suites (exact)")
    for k in (2, 3, 4, 6):
        report = run_wallpaper_suite(k, samples=100, seed=42)
        failures += not report.passed
        print(f"  k={k}: {'PASS' if report.passed else 'FAIL'}")

    banner("named examples")
    names = ("quartic-b3p1", "sextic-b4p1", "quintic-237",
             "artal(4,1,1)", "artal(5,2,1)", "artal(7,4,1)", "artal(10,7,1)")
    for name in names:
        report = verify_example(name)
        failures += not report.passed
        print(f"  {name}: {'PASS' if report.passed else 'FAIL'}")

    banner("forged word-map certificates: each rejected with a message")
    # phi(x) = y^2 and psi(y) = x^0.5 would "prove" <x | x^2> = <y | y^4>
    z2 = parse_presentation("gens x\nrel x^2\n").presentation
    z4 = parse_presentation("gens y\nrel y^4\n").presentation
    forgeries = [("Z2 = Z4", z2, z4, WordMaps(
        (((0, 2),),), (((0, 0.5),),), ([((), 0, 1)], [((), 0, 1)], [], [])))]
    genuine = 0
    for name in names:
        example = example_presentation(name)
        for fact in example.facts:
            if not isinstance(fact, QuotientPresentationFact):
                continue
            p = quotient_by_relators(example.presentation, fact.extra)
            q = presentation_of(fact.signature)
            maps = fact.maps
            ok = check_word_maps(p, q, maps) is None
            failures += not ok
            genuine += ok
            if not ok:
                print(f"  FAIL {name}: its own word maps rejected")
            # the first image letter's exponent as a float
            g = next(g for g, image in enumerate(maps.phi) if image)
            (x, e), *letters = maps.phi[g]
            phi = maps.phi[:g] + (((x, float(e)), *letters),) + maps.phi[g + 1:]
            # the first conjugate, over a generator neither side has, or
            # with a float relator index
            k = next(k for k, proof in enumerate(maps.proofs) if proof)
            (u, i, e), *rest = maps.proofs[k]
            for label, conjugate in (
                ("foreign conjugator", (((max(p.ngens, q.ngens), 1), *u), i, e)),
                ("float relator index", (u, float(i), e)),
            ):
                proofs = maps.proofs[:k] + ((conjugate, *rest),) + maps.proofs[k + 1:]
                forgeries.append((f"{name}, {label}", p, q, replace(maps, proofs=proofs)))
            forgeries.append((f"{name}, float image exponent", p, q, replace(maps, phi=phi)))
    rejected = 0
    for label, p, q, maps in forgeries:
        try:
            verdict = check_word_maps(p, q, maps)
        except Exception as error:  # a forgery must be answered, not raised on
            verdict = error
        ok = isinstance(verdict, str)
        failures += not ok
        rejected += ok
        if not ok:
            print(f"  FAIL {label}: {verdict!r}")
    print(f"  {genuine} genuine word maps accepted, "
          f"{rejected} of {len(forgeries)} forgeries rejected")

    banner("torsion-free cover certification")
    fixture = projective_triangle_fixture()
    sig237 = OrbSignature(0, 0, (2, 3, 7))
    outcome = verify_torsion_free_kernel(sig237, fixture)
    ok = (
        not isinstance(outcome, Exceeded)
        and outcome.verdict == "torsion_free_kernel"
        and outcome.index == 168
    )
    failures += not ok
    report = torsion_free_subgroup_rank(sig237, 168)
    print(f"  (2,3,7) index-168 kernel: {'PASS' if ok else 'FAIL'}, rho = {report.rho}")
    # <x, y | x^2, y^3, (xy)^7, [x,y]^8>: its regular action, counted by the
    # enumeration's rows and again as a permutation group
    g10752 = parse_presentation(
        f"gens x y\nrel x^2\nrel y^3\nrel {'x y ' * 7}\nrel {'x^-1 y^-1 x y ' * 8}\n"
    ).presentation
    table = coset_enumeration(g10752, (), 10**6)
    order = permutation_group_order(table)
    ok = table.rows == order == 10752
    failures += not ok
    print(f"  order-10752 regular action: {'PASS' if ok else 'FAIL'}, "
          f"{table.rows} cosets, permutation group order {order}")

    banner("triangle representations")
    triples = [
        (m1, m2, m3)
        for m1 in range(2, 13)
        for m2 in range(m1, 13)
        for m3 in range(m2, 13)
        if Fraction(1, m1) + Fraction(1, m2) + Fraction(1, m3) < 1
    ][:20]
    for triple in triples:
        checks = check_triangle_rep(triangle_representation(*triple))
        failures += not checks.passed
    print(f"  {len(triples)} hyperbolic triples certified")

    print(f"\n{'ALL PASS' if failures == 0 else f'{failures} FAILURES'} "
          f"in {time.time() - t0:.1f}s")
    return 0 if failures == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
