#!/usr/bin/env python3
"""Run the acceptance criteria and the end-to-end checks no criterion makes,
and print a summary.

First the eight criteria of tests/test_acceptance.py, loaded by path and
called in order, each printing its own PASS or FAIL line: finite orders by
coset enumeration, the abelianization table, the isomorphism classification,
the realizability table, cover ranks with the certified 168-sheet kernel of
(2,3,7), the four exact quotient-surface suites, the named-example facts and
the hyperbolic triangle representations.  Then the checks that no criterion
makes: the abelianization formula against the presentation route, the NINF
verdicts of the compact Euclidean groups against their rotation matrices,
the named plane-curve examples, forged word-map certificates that must be
rejected, and the order-10752 regular action.  Standard library only.
"""

import importlib.util
import sys
import time
import traceback
from math import lcm
from pathlib import Path

from orbicurve import (
    OrbSignature,
    WordMaps,
    abelianization,
    abelianization_of_presentation,
    check_word_maps,
    coset_enumeration,
    example_presentation,
    h_matrix,
    parse_presentation,
    permutation_group_order,
    presentation_of,
    quotient_by_relators,
    satisfies_ninf,
    verify_example,
)
from orbicurve.fixtures import QuotientPresentationFact

ACCEPTANCE = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"


def banner(title):
    print(f"\n== {title}")


def acceptance_criteria():
    """The test_criterion_* functions of the acceptance suite, in order."""
    spec = importlib.util.spec_from_file_location("test_acceptance", ACCEPTANCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [test for name, test in vars(module).items() if name.startswith("test_criterion_")]


def main() -> int:
    t0 = time.time()
    failures = 0

    banner("acceptance criteria of tests/test_acceptance.py")
    for test in acceptance_criteria():
        try:
            test()
        except Exception:  # the criterion has printed its FAIL line
            failures += 1
            traceback.print_exc(file=sys.stdout)

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
                forgeries.append((f"{name}, {label}", p, q, WordMaps(maps.phi, maps.psi, proofs)))
            forgeries.append((f"{name}, float image exponent", p, q,
                              WordMaps(phi, maps.psi, maps.proofs)))
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

    banner("order-10752 regular action")
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

    print(f"\n{'ALL PASS' if failures == 0 else f'{failures} FAILURES'} "
          f"in {time.time() - t0:.1f}s")
    return 0 if failures == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
