"""orbicurve command line front end.

JSON mode (the default) is the stable machine interface; text mode is for
humans.  Exit codes: 0 success, 1 domain error, 2 a resource bound was hit,
3 a verification suite reported a failure.  Diagnostics go to stderr only.

Each `cmd_*` handler returns (JSON payload, text lines, passed) or raises;
`run` alone prints the result and picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

# only what parse_signature and the closed-form commands need: every other
# handler imports its own modules, so a process loads only what it runs
from .errors import DEFAULT_MAX_COSETS, OrbicurveError
from .signature import (
    INFINITE,
    MalformedSignature,
    OrbSignature,
    classify_kind,
    euler_characteristic,
    finite_order,
    satisfies_ninf,
)

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_EXCEEDED = 2
EXIT_VERIFY_FAILED = 3
# wider than any usage line, so usage never wraps: its text depends neither
# on the terminal width (COLUMNS) nor on argparse's wrapping rules, which
# differ between Python versions
USAGE_WIDTH = 10**4


class _BoundExceeded(Exception):
    """A resource bound tripped: the message goes to stderr, and the bound
    to stdout as {"bound": N, "exceeded": true} in either format."""

    def __init__(self, message: str, bound: int):
        super().__init__(message)
        self.bound = bound


def rational_str(q: Fraction) -> str:
    """Always 'p/q' with q >= 1 and the fraction reduced."""
    return f"{q.numerator}/{q.denominator}"


def parse_signature(text: str) -> OrbSignature:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedSignature(f"signature is not valid JSON: {exc}") from None
    except ValueError:  # int() refuses more than 4300 digits, in words that vary by version
        raise MalformedSignature("signature has an integer too long to read") from None
    if not isinstance(data, dict) or not {"g", "r", "m"} <= set(data):
        raise MalformedSignature('signature JSON needs keys "g", "r", "m"')
    g, r, m = data["g"], data["r"], data["m"]
    # JSON true/false load as bools, which are ints to isinstance
    if type(g) is not int or type(r) is not int or not isinstance(m, list):
        raise MalformedSignature("g and r must be ints, m a list of ints")
    if not all(type(e) is int for e in m):
        raise MalformedSignature("entries of m must be ints")
    return OrbSignature(g, r, tuple(sorted(m)))


def _default_bound() -> int:
    """ORBICURVE_MAX_COSETS when it is set, else DEFAULT_MAX_COSETS; a value
    that is not an integer >= 1 is refused."""
    env = os.environ.get("ORBICURVE_MAX_COSETS")
    try:
        bound = int(env) if env else DEFAULT_MAX_COSETS
    except ValueError:
        bound = 0  # refused below, like any value under 1
    if bound < 1:
        raise OrbicurveError(f"ORBICURVE_MAX_COSETS must be an integer >= 1, got {env!r}")
    return bound


def _check_size(what: str, size: int, bound: int | None = None) -> None:
    """Refuse work of `size` units, read from the input, above `bound` (by
    default `_default_bound()`) before any of it is done."""
    if bound is None:
        bound = _default_bound()
    if size > bound:
        # Decimal prints an int of any length; str() refuses more than 4300 digits
        raise _BoundExceeded(f"{what} {Decimal(size)} exceeds bound {bound}", bound)


def _read_presentation(path: str):
    from .presentations import parse_presentation
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, text lines, passed)


def cmd_chi(args):
    sig = parse_signature(args.sig)
    chi, kind = rational_str(euler_characteristic(sig)), classify_kind(sig).name.value
    return {"chi": chi, "kind": kind}, [f"chi = {chi} ({kind})"], True


def cmd_kind(args):
    sig = parse_signature(args.sig)
    kind = classify_kind(sig)
    ninf = satisfies_ninf(sig)
    payload = {
        "kind": kind.name.value,
        "finite": kind.finite,
        "order": kind.order,
        "ninf": ninf.verdict.value,
    }
    if ninf.witness:
        payload["ninf_witness"] = ninf.witness
    size = f"finite of order {kind.order}" if kind.finite else "infinite"
    return payload, [f"{kind.name.value}, {size}, ninf: {ninf.verdict.value}"], True


def cmd_order(args):
    order = finite_order(parse_signature(args.sig))
    order = "infinite" if order is INFINITE else order
    return {"order": order}, [f"order: {order}"], True


def cmd_abelianize(args):
    from .abelian import abelianization, abelianization_of_presentation
    if args.sig and args.presentation:
        raise OrbicurveError("abelianize takes --sig or --presentation, not both")
    if args.sig:
        ab = abelianization(parse_signature(args.sig))
    elif args.presentation:
        ab = abelianization_of_presentation(_read_presentation(args.presentation).presentation)
    else:
        raise OrbicurveError("abelianize needs --sig or --presentation")
    return ({"rank": ab.rank, "torsion": list(ab.torsion)},
            [f"rank {ab.rank}, torsion {list(ab.torsion)}"], True)


def cmd_iso(args):
    from .isomorphism import decide_isomorphism
    verdict = decide_isomorphism(parse_signature(args.a), parse_signature(args.b))
    payload = {"isomorphic": verdict.isomorphic, "reason": verdict.reason}
    if verdict.detail:
        payload["detail"] = verdict.detail
    return payload, [f"{'isomorphic' if verdict.isomorphic else 'not isomorphic'}"
                     f" ({verdict.reason}{': ' + verdict.detail if verdict.detail else ''})"], True


def cmd_serre(args):
    from .serre import plane_curve_realizability
    verdict = plane_curve_realizability(parse_signature(args.sig))
    payload = {
        "verdict": verdict.outcome,
        "rule": verdict.rule,
        "degree": verdict.degree,
    }
    return payload, [f"{verdict.outcome} ({verdict.rule}"
                     + (f", degree {verdict.degree})" if verdict.degree else ")")], True


def cmd_cover(args):
    from .covers import lcm_cover_for_free_product, torsion_free_subgroup_rank
    if args.sig is None:
        raise OrbicurveError("cover needs --sig")
    sig = parse_signature(args.sig)
    if args.lcm and args.index is not None:
        raise OrbicurveError("cover takes --index <d> or --lcm, not both")
    if args.lcm:
        report = lcm_cover_for_free_product(sig)
    elif args.index is not None:
        report = torsion_free_subgroup_rank(sig, args.index)
    else:
        raise OrbicurveError("cover needs --index <d> or --lcm")
    payload = {"d": report.d, "rho": report.rho, "compact": report.compact}
    return payload, [f"index {report.d}: rho = {report.rho}"
                     f" ({'compact' if report.compact else 'open'} cover)"], True


def _load_permutations(path: str, sig: OrbSignature, bound: int):
    """The `PermutationImages` in a file of at most one `degree N` line and
    one `name = cycles` line for each generator of the standard presentation
    of `sig`; any other line is an error.  A degree above `bound` is refused
    before a permutation is built."""
    from .cosets import PermutationImages, cycle_points, parse_cycles
    from .presentations import presentation_of
    generators = presentation_of(sig).generators
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    degree = None
    assignments: dict[str, str] = {}
    for line in filter(None, lines):
        name, equals, cycles = line.partition("=")
        name = name.strip()
        if not equals:
            words = line.split()
            if words[0] != "degree" or len(words) != 2:
                raise OrbicurveError(f"expected 'degree N' or 'name = cycles', got {line!r}")
            if degree is not None:
                raise OrbicurveError("permutation file has more than one degree line")
            try:
                degree = int(words[1])
            except ValueError:
                raise OrbicurveError(f"bad degree line: {line!r}") from None
            if degree < 1:
                raise OrbicurveError(f"degree must be >= 1, got {degree}")
        elif name not in generators:
            raise OrbicurveError(f"permutation file assigns {name!r}, which is not one of "
                                 f"the generators {' '.join(generators)}")
        elif name in assignments:
            raise OrbicurveError(f"permutation file assigns generator {name!r} twice")
        else:
            assignments[name] = cycles.strip()
    if degree is None:  # the largest point mentioned
        degree = max([1] + [x for text in assignments.values()
                            for cycle in cycle_points(text) for x in cycle])
    _check_size("permutation degree", degree, bound)
    images = []
    for name in generators:
        if name not in assignments:
            raise OrbicurveError(f"permutation file missing generator {name!r}")
        images.append(parse_cycles(assignments[name], degree))
    return PermutationImages(degree, tuple(images))


def cmd_cover_verify(args):
    from .cosets import Exceeded
    from .covers import verify_torsion_free_kernel
    # options of `cover` itself land in the same namespace; given before
    # `verify` they would be dropped without a word
    if args.index is not None or args.lcm:
        raise OrbicurveError(f"cover verify takes no {'--lcm' if args.lcm else '--index'}")
    if args.sig is not None:
        raise OrbicurveError("cover verify takes --sig after 'verify', not before it")
    sig = parse_signature(args.verify_sig)
    bound = _default_bound()
    cap = bound if args.cap is None else args.cap
    if cap < 1:
        raise OrbicurveError("cap must be >= 1")
    result = verify_torsion_free_kernel(sig, _load_permutations(args.perms, sig, bound), cap=cap)
    if isinstance(result, Exceeded):
        raise _BoundExceeded(f"group order exceeded cap {result.bound}", result.bound)
    payload: dict = {"verdict": result.verdict}
    if result.index is not None:
        payload["index"] = result.index
    if result.generator is not None:
        payload["generator"] = result.generator
    return (payload, [result.verdict + (f", index {result.index}" if result.index else "")],
            result.verdict == "torsion_free_kernel")


def cmd_todd_coxeter(args):
    from .cosets import Exceeded, coset_enumeration, format_cycles
    pf = _read_presentation(args.presentation)
    bound = _default_bound() if args.max_cosets is None else args.max_cosets
    if bound < 1:
        raise OrbicurveError("max_cosets must be >= 1")
    # enumeration scans words letter by letter: count the letters from the
    # syllables, never by spelling a word out
    words = pf.presentation.relators + pf.subgroup_generators
    _check_size("word length", max((sum(abs(e) for _, e in w) for w in words), default=0),
                bound)
    result = coset_enumeration(pf.presentation, pf.subgroup_generators, bound)
    if isinstance(result, Exceeded):
        raise _BoundExceeded(f"enumeration exceeded {result.bound} cosets", result.bound)
    payload = {"cosets": result.rows, "complete": result.complete}
    lines = [f"{result.rows} cosets (complete)"]
    if args.table:
        names = pf.presentation.generators
        payload["generators"] = list(names)
        payload["permutations"] = dict(zip(names, map(format_cycles, result.images)))
        lines += [f"  {name}: {cycles}" for name, cycles in payload["permutations"].items()]
    return payload, lines, True


def cmd_verify_wallpaper(args):
    from .wallpaper import run_wallpaper_suite
    _check_size("sample count", args.samples)
    report = run_wallpaper_suite(args.k, args.samples, args.seed)
    payload = {
        "pass": report.passed,
        "k": report.k,
        "samples": report.samples,
        "seed": report.seed,
        "checks": [
            {"name": c.name, "pass": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    lines = [f"k={report.k}: " + ("PASS" if report.passed else "FAIL")] + [
        f"  {'ok ' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in report.checks
    ]
    return payload, lines, report.passed


def cmd_verify_example(args):
    from .fixtures import artal_parameters, verify_example
    params = artal_parameters(args.name)
    if params is not None:  # artal's words grow linearly in its degree d
        _check_size("artal degree", params[0])
    report = verify_example(args.name)
    payload = {
        "pass": report.passed,
        "name": report.name,
        "facts": [
            {"fact": f.fact, "pass": f.passed, "detail": f.detail}
            for f in report.facts
        ],
        "notes": list(report.notes),
    }
    lines = [f"{report.name}: " + ("PASS" if report.passed else "FAIL")] + [
        f"  {'ok ' if f.passed else 'FAIL'} {f.fact} ({f.detail})" for f in report.facts
    ] + [f"  note: {n}" for n in report.notes]
    return payload, lines, report.passed


def cmd_triangle_rep(args):
    from .fixtures import check_triangle_rep, triangle_representation
    try:
        m = tuple(int(tok) for tok in args.m.split(","))
    except ValueError:
        m = ()  # refused below, like any count other than three
    if len(m) != 3:
        raise OrbicurveError("--m needs three comma-separated integers")
    rep = triangle_representation(*m, tolerance=args.tol)
    checks = check_triangle_rep(rep, reject_margin=args.reject_margin)
    payload = {
        "m": list(m),
        "matrices": [[list(row) for row in mat] for mat in rep.matrices],
        "pass": checks.passed,
        "product_deviation": checks.product_deviation,
        "order_deviations": list(checks.order_deviations),
        "order_resolutions": list(checks.order_resolutions),
        "premature_closeness": list(checks.premature_closeness),
    }
    return payload, [f"triangle {m}: " + ("PASS" if checks.passed else "FAIL"),
                     f"  product deviation {checks.product_deviation:.3e}"], checks.passed


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # subparsers are built by add_parser as this class too, so every parser
    # gets the fixed width
    def __init__(self, **kwargs):
        super().__init__(**kwargs, formatter_class=lambda prog: argparse.HelpFormatter(
            prog, width=USAGE_WIDTH))

    # usage errors are domain errors (exit 1); exit 2 is reserved for
    # bounded-resource outcomes
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_DOMAIN_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbicurve",
        description="exact computations with curve orbifold groups",
    )
    parser.set_defaults(format="json")
    # every parser below the top takes --format; with no default of its own,
    # a nested parser keeps a value given before its name
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)

    def add(subparsers, name, handler=None, **kwargs):
        p = subparsers.add_parser(name, parents=[fmt], **kwargs)
        p.set_defaults(handler=handler)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    p = add(sub, "chi", cmd_chi, help="orbifold Euler characteristic and kind")
    p.add_argument("--sig", required=True, help='signature JSON {"g":..,"r":..,"m":[..]}')

    p = add(sub, "kind", cmd_kind, help="kind, finiteness, order, NINF status")
    p.add_argument("--sig", required=True)

    p = add(sub, "order", cmd_order, help="group order or 'infinite'")
    p.add_argument("--sig", required=True)

    p = add(sub, "abelianize", cmd_abelianize, help="abelianization in divisor-chain form")
    p.add_argument("--sig")
    p.add_argument("--presentation", help="presentation file (gens/rel lines)")

    p = add(sub, "iso", cmd_iso, help="decide isomorphism of two signatures")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add(sub, "serre", cmd_serre, help="plane-curve-complement realizability")
    p.add_argument("--sig", required=True)

    p = add(sub, "cover", cmd_cover, help="torsion-free cover arithmetic")
    p.add_argument("--sig")
    p.add_argument("--index", type=int)
    p.add_argument("--lcm", action="store_true")
    # the dests "mode" and "what" only name the choice in usage errors
    pv = add(p.add_subparsers(dest="mode"), "verify", cmd_cover_verify,
             help="certify a permutation quotient")
    pv.add_argument("--sig", dest="verify_sig", metavar="SIG", required=True)
    pv.add_argument("--perms", required=True, help="file of 'name = (cycles)' lines")
    pv.add_argument("--cap", type=int)

    p = add(sub, "todd-coxeter", cmd_todd_coxeter, help="bounded coset enumeration")
    p.add_argument("--presentation", required=True)
    p.add_argument("--max-cosets", type=int, default=None)
    p.add_argument("--table", action="store_true", help="include generator permutations")

    suites = add(sub, "verify", help="run a verification suite").add_subparsers(
        dest="what", required=True)
    p = add(suites, "wallpaper", cmd_verify_wallpaper)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = add(suites, "example", cmd_verify_example)
    p.add_argument("--name", required=True)

    p = add(sub, "triangle-rep", cmd_triangle_rep, help="hyperbolic triangle matrices")
    p.add_argument("--m", required=True, help="comma-separated m1,m2,m3")
    p.add_argument("--tol", type=float, default=None,
                   help="default: min(1e-9, pi/(4m(m+1))) over the orders")
    p.add_argument("--reject-margin", type=float, default=1e-6)

    return parser


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            payload, lines, passed = args.handler(args)
            code = EXIT_OK if passed else EXIT_VERIFY_FAILED
        except _BoundExceeded as exc:
            print(exc, file=sys.stderr)
            payload, lines, code = {"bound": exc.bound, "exceeded": True}, None, EXIT_EXCEEDED
        out = "\n".join(lines) if args.format == "text" and lines else json.dumps(
            payload, sort_keys=True)
    except (OrbicurveError, OSError, ValueError) as exc:
        # str() and json.dumps refuse an int of more than 4300 digits, in
        # words that vary by version; every input is read before that, so
        # only a result can be too long
        too_long = isinstance(exc, ValueError) and "integer string conversion" in str(exc)
        print(f"error: {'result integer too long to print' if too_long else exc}",
              file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    print(out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
