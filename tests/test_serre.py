from itertools import combinations_with_replacement
from math import gcd

import pytest

from orbicurve import (
    OrbSignature,
    euler_characteristic,
    plane_curve_realizability,
)
from orbicurve.serre import (
    NOT_REALIZABLE,
    OPEN_PROBLEM,
    REALIZABLE,
    RULE_FINITE_CYCLIC,
    RULE_HYPERBOLIC,
    RULE_HYPERBOLIC_OPEN,
    RULE_OPEN_COPRIME,
    RULE_TWO_TORUS,
    SerreVerdict,
    open_cell_degrees,
)


@pytest.mark.parametrize(
    "sig, outcome, degree",
    [
        (OrbSignature(0, 3, (2, 5)), REALIZABLE, None),
        (OrbSignature(0, 0, (2, 3, 7)), NOT_REALIZABLE, None),
        (OrbSignature(0, 0, (2, 3, 12)), OPEN_PROBLEM, 6),
        (OrbSignature(1, 0, ()), REALIZABLE, None),
        (OrbSignature(0, 1, (2, 2)), NOT_REALIZABLE, None),
        (OrbSignature(0, 0, (2, 3, 6)), NOT_REALIZABLE, None),
    ],
)
def test_headline_cases(sig, outcome, degree):
    verdict = plane_curve_realizability(sig)
    assert verdict.outcome == outcome
    assert verdict.degree == degree


def test_smooth_curve_degrees():
    v = plane_curve_realizability(OrbSignature(0, 0, (4, 6)))
    assert v.outcome == REALIZABLE and v.rule == RULE_FINITE_CYCLIC and v.degree == 2
    v = plane_curve_realizability(OrbSignature(0, 0, ()))
    assert v.degree == 1  # line complement, trivial group
    v = plane_curve_realizability(OrbSignature(0, 1, (7,)))
    assert v.outcome == REALIZABLE and v.rule == RULE_OPEN_COPRIME


def test_open_verdict_only_from_the_triangle_cell():
    with pytest.raises(ValueError, match="only from the triangle cell"):
        SerreVerdict(OPEN_PROBLEM, RULE_HYPERBOLIC)


def test_two_torus_rule():
    assert plane_curve_realizability(OrbSignature(1, 0, ())).rule == RULE_TWO_TORUS


def test_open_cell_assignments_all_tried():
    assert open_cell_degrees((2, 3, 12)) == [6]
    # the qualifying coprime pair (4,9) is not the two smallest entries
    assert open_cell_degrees((4, 6, 9)) == [6]
    assert open_cell_degrees((2, 3, 7)) == []
    # two qualifying assignments, equal degree
    assert open_cell_degrees((5, 6, 12)) == [6, 6]


def test_open_problem_requires_negative_chi_and_degree_6():
    for m in combinations_with_replacement(range(2, 14), 3):
        sig = OrbSignature(0, 0, m)
        verdict = plane_curve_realizability(sig)
        if verdict.outcome == OPEN_PROBLEM:
            assert euler_characteristic(sig) < 0
            assert verdict.degree >= 6
            assert verdict.rule == RULE_HYPERBOLIC_OPEN


def figure_cell(sig):
    """Independent restatement of the decision table, for cross-checking."""
    chi = euler_characteristic(sig)
    if sig.r >= 1:
        # free products F_s * Z_p * Z_q with coprime torsion are the yes cell
        if sig.n == 0 or sig.n == 1:
            return REALIZABLE
        if sig.n == 2 and gcd(sig.m[0], sig.m[1]) == 1:
            return REALIZABLE
        return NOT_REALIZABLE
    if sig.g == 0 and sig.n <= 2:
        return REALIZABLE  # finite cyclic
    if sig.g == 1 and sig.n == 0:
        return REALIZABLE  # Z^2
    if chi >= 0:
        return NOT_REALIZABLE
    if sig.g == 0 and sig.n == 3:
        m = sig.m
        for k in range(3):
            i, j = [t for t in range(3) if t != k]
            if gcd(m[i], m[j]) == 1 and gcd(m[i] * m[j], m[k]) >= 6:
                return OPEN_PROBLEM
    return NOT_REALIZABLE


def test_grid_agrees_with_decision_table():
    count = 0
    for g in range(4):
        for r in range(4):
            for n in range(5):
                for m in combinations_with_replacement(range(2, 14), n):
                    sig = OrbSignature(g, r, m)
                    assert plane_curve_realizability(sig).outcome == figure_cell(sig), sig
                    count += 1
    assert count > 5000


def test_realizable_open_groups_characterized_on_signature():
    for g in range(3):
        for r in range(1, 4):
            for n in range(4):
                for m in combinations_with_replacement(range(2, 9), n):
                    sig = OrbSignature(g, r, m)
                    verdict = plane_curve_realizability(sig)
                    expected = len(m) <= 1 or (len(m) == 2 and gcd(m[0], m[1]) == 1)
                    assert (verdict.outcome == REALIZABLE) == expected


def test_hyperbolic_exclusion_rule_applies_beyond_triangles():
    v = plane_curve_realizability(OrbSignature(2, 0, (2, 2)))
    assert v.outcome == NOT_REALIZABLE and v.rule == RULE_HYPERBOLIC
    v = plane_curve_realizability(OrbSignature(0, 0, (2, 3, 7, 7)))
    assert v.outcome == NOT_REALIZABLE and v.rule == RULE_HYPERBOLIC
