"""orbicurve command line front end.

JSON mode (the default) is the stable machine interface; text mode is for
humans.  Exit codes: 0 success, 1 domain error, 2 a resource bound was hit,
3 a verification suite reported a failure.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .abelian import AbelianGroup, abelianization, abelianization_of_presentation
from .cosets import (
    DEFAULT_MAX_COSETS,
    Exceeded,
    coset_enumeration,
    format_cycles,
    parse_cycles,
    PermutationImages,
)
from .covers import (
    lcm_cover_for_free_product,
    torsion_free_subgroup_rank,
    verify_torsion_free_kernel,
)
from .errors import OrbicurveError
from .fixtures import (
    check_triangle_rep,
    triangle_representation,
    verify_example,
)
from .isomorphism import decide_isomorphism
from .presentations import parse_presentation, presentation_of
from .serre import plane_curve_realizability
from .signature import (
    INFINITE,
    MalformedSignature,
    OrbSignature,
    canonicalize,
    classify_kind,
    euler_characteristic,
    finite_order,
    satisfies_ninf,
)
from .wallpaper import run_wallpaper_suite

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_EXCEEDED = 2
EXIT_VERIFY_FAILED = 3


def rational_str(q: Fraction) -> str:
    """Always 'p/q' with q >= 1 and the fraction reduced."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def parse_signature(text: str) -> OrbSignature:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedSignature(f"signature is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not {"g", "r", "m"} <= set(data):
        raise MalformedSignature('signature JSON needs keys "g", "r", "m"')
    g, r, m = data["g"], data["r"], data["m"]
    # JSON true/false load as bools, which are ints to isinstance
    if type(g) is not int or type(r) is not int or not isinstance(m, list):
        raise MalformedSignature("g and r must be ints, m a list of ints")
    if not all(type(e) is int for e in m):
        raise MalformedSignature("entries of m must be ints")
    return canonicalize(OrbSignature(g, r, tuple(m)))


def signature_json(sig: OrbSignature) -> dict:
    return {"g": sig.g, "r": sig.r, "m": list(sig.m)}


def abelian_json(ab: AbelianGroup) -> dict:
    return {"rank": ab.rank, "torsion": list(ab.torsion)}


def _emit(args, payload: dict, text_lines=None) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines or [json.dumps(payload, sort_keys=True)]:
            print(line)


def _default_bound() -> int:
    env = os.environ.get("ORBICURVE_MAX_COSETS")
    return int(env) if env else DEFAULT_MAX_COSETS


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_chi(args) -> int:
    sig = parse_signature(args.sig)
    chi = euler_characteristic(sig)
    kind = classify_kind(sig)
    _emit(
        args,
        {"chi": rational_str(chi), "kind": kind.name.value},
        [f"chi = {rational_str(chi)} ({kind.name.value})"],
    )
    return EXIT_OK


def cmd_kind(args) -> int:
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
    _emit(args, payload, [f"{kind.name.value}, {size}, ninf: {ninf.verdict.value}"])
    return EXIT_OK


def cmd_order(args) -> int:
    sig = parse_signature(args.sig)
    order = finite_order(sig)
    payload = {"order": "infinite" if order is INFINITE else order}
    _emit(args, payload, [f"order: {payload['order']}"])
    return EXIT_OK


def cmd_abelianize(args) -> int:
    if args.sig and args.presentation:
        raise OrbicurveError("abelianize takes --sig or --presentation, not both")
    if args.sig:
        ab = abelianization(parse_signature(args.sig))
    elif args.presentation:
        with open(args.presentation, encoding="utf-8") as fh:
            pf = parse_presentation(fh.read())
        ab = abelianization_of_presentation(pf.presentation)
    else:
        raise OrbicurveError("abelianize needs --sig or --presentation")
    _emit(args, abelian_json(ab), [f"rank {ab.rank}, torsion {list(ab.torsion)}"])
    return EXIT_OK


def cmd_iso(args) -> int:
    verdict = decide_isomorphism(parse_signature(args.a), parse_signature(args.b))
    payload = {"isomorphic": verdict.isomorphic, "reason": verdict.reason}
    if verdict.detail:
        payload["detail"] = verdict.detail
    _emit(args, payload, [f"{'isomorphic' if verdict.isomorphic else 'not isomorphic'}"
                          f" ({verdict.reason}{': ' + verdict.detail if verdict.detail else ''})"])
    return EXIT_OK


def cmd_serre(args) -> int:
    verdict = plane_curve_realizability(parse_signature(args.sig))
    payload = {
        "verdict": verdict.outcome,
        "rule": verdict.rule,
        "degree": verdict.degree,
    }
    _emit(args, payload, [f"{verdict.outcome} ({verdict.rule}"
                          + (f", degree {verdict.degree})" if verdict.degree else ")")])
    return EXIT_OK


def cmd_cover(args) -> int:
    if args.mode == "verify":
        return cmd_cover_verify(args)
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
    _emit(args, payload, [f"index {report.d}: rho = {report.rho}"
                          f" ({'compact' if report.compact else 'open'} cover)"])
    return EXIT_OK


def _load_permutations(path: str, sig: OrbSignature) -> PermutationImages:
    p = presentation_of(sig)
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    degree = None
    assignments: dict[str, str] = {}
    for line in lines:
        if line.startswith("degree "):
            if degree is not None:
                raise OrbicurveError("permutation file has more than one degree line")
            degree = int(line.split()[1])
            if degree < 1:
                raise OrbicurveError(f"degree must be >= 1, got {degree}")
            continue
        name, _, cycles = line.partition("=")
        name = name.strip()
        if name in assignments:
            raise OrbicurveError(f"permutation file assigns generator {name!r} twice")
        assignments[name] = cycles.strip()
    if degree is None:
        # infer from the largest point mentioned
        degree = 1
        for cycles in assignments.values():
            for token in cycles.replace("(", " ").replace(")", " ").replace(",", " ").split():
                degree = max(degree, int(token))
    images = []
    for name in p.generators:
        if name not in assignments:
            raise OrbicurveError(f"permutation file missing generator {name!r}")
        images.append(parse_cycles(assignments[name], degree))
    return PermutationImages(degree, tuple(images))


def cmd_cover_verify(args) -> int:
    sig = parse_signature(args.sig)
    cap = _default_bound() if args.cap is None else args.cap
    if cap < 1:
        raise OrbicurveError("cap must be >= 1")
    images = _load_permutations(args.perms, sig)
    result = verify_torsion_free_kernel(sig, images, cap=cap)
    if isinstance(result, Exceeded):
        print(f"group order exceeded cap {result.bound}", file=sys.stderr)
        _emit(args, {"exceeded": True, "bound": result.bound})
        return EXIT_EXCEEDED
    payload: dict = {"verdict": result.verdict}
    if result.index is not None:
        payload["index"] = result.index
    if result.generator is not None:
        payload["generator"] = result.generator
    _emit(args, payload, [result.verdict + (f", index {result.index}"
                          if result.index else "")])
    return EXIT_OK if result.verdict == "torsion_free_kernel" else EXIT_VERIFY_FAILED


def cmd_todd_coxeter(args) -> int:
    with open(args.presentation, encoding="utf-8") as fh:
        pf = parse_presentation(fh.read())
    bound = _default_bound() if args.max_cosets is None else args.max_cosets
    result = coset_enumeration(pf.presentation, pf.subgroup_generators, bound)
    if isinstance(result, Exceeded):
        print(f"enumeration exceeded {result.bound} cosets", file=sys.stderr)
        _emit(args, {"exceeded": True, "bound": result.bound})
        return EXIT_EXCEEDED
    payload = {"cosets": result.rows, "complete": result.complete}
    if args.table:
        payload["generators"] = list(result.presentation.generators)
        payload["permutations"] = {
            name: format_cycles(tuple(result.action[c][2 * g] for c in range(result.rows)))
            for g, name in enumerate(result.presentation.generators)
        }
    _emit(args, payload, [f"{result.rows} cosets (complete)"])
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.what == "wallpaper":
        bound = _default_bound()
        if args.samples > bound:
            print(f"sample count {args.samples} exceeds bound {bound}", file=sys.stderr)
            _emit(args, {"exceeded": True, "bound": bound})
            return EXIT_EXCEEDED
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
        _emit(args, payload, lines)
        return EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    # named example
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
    _emit(args, payload, lines)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_triangle_rep(args) -> int:
    m = tuple(int(tok) for tok in args.m.split(","))
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
    _emit(args, payload, [f"triangle {m}: " + ("PASS" if checks.passed else "FAIL"),
                          f"  product deviation {checks.product_deviation:.3e}"])
    return EXIT_OK if checks.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
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
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(handler=handler)
        return p

    p = add("chi", cmd_chi, help="orbifold Euler characteristic and kind")
    p.add_argument("--sig", required=True, help='signature JSON {"g":..,"r":..,"m":[..]}')

    p = add("kind", cmd_kind, help="kind, finiteness, order, NINF status")
    p.add_argument("--sig", required=True)

    p = add("order", cmd_order, help="group order or 'infinite'")
    p.add_argument("--sig", required=True)

    p = add("abelianize", cmd_abelianize, help="abelianization in divisor-chain form")
    p.add_argument("--sig")
    p.add_argument("--presentation", help="presentation file (gens/rel lines)")

    p = add("iso", cmd_iso, help="decide isomorphism of two signatures")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("serre", cmd_serre, help="plane-curve-complement realizability")
    p.add_argument("--sig", required=True)

    p = add("cover", cmd_cover, help="torsion-free cover arithmetic")
    p.add_argument("--sig")
    p.add_argument("--index", type=int)
    p.add_argument("--lcm", action="store_true")
    p.set_defaults(mode=None, cap=None)
    cover_sub = p.add_subparsers(dest="mode")
    pv = cover_sub.add_parser("verify", help="certify a permutation quotient")
    pv.add_argument("--sig", required=True)
    pv.add_argument("--perms", required=True, help="file of 'name = (cycles)' lines")
    pv.add_argument("--cap", type=int)
    pv.add_argument("--format", choices=("json", "text"), default="json")
    pv.set_defaults(handler=cmd_cover, mode="verify")

    p = add("todd-coxeter", cmd_todd_coxeter, help="bounded coset enumeration")
    p.add_argument("--presentation", required=True)
    p.add_argument("--max-cosets", type=int, default=None)
    p.add_argument("--table", action="store_true", help="include generator permutations")

    p = add("verify", None, help="run a verification suite")
    verify_sub = p.add_subparsers(dest="what", required=True)
    pw = verify_sub.add_parser("wallpaper")
    pw.add_argument("--k", type=int, required=True)
    pw.add_argument("--samples", type=int, required=True)
    pw.add_argument("--seed", type=int, required=True)
    pw.add_argument("--format", choices=("json", "text"), default="json")
    pw.set_defaults(handler=cmd_verify, what="wallpaper")
    pe = verify_sub.add_parser("example")
    pe.add_argument("--name", required=True)
    pe.add_argument("--format", choices=("json", "text"), default="json")
    pe.set_defaults(handler=cmd_verify, what="example")

    p = add("triangle-rep", cmd_triangle_rep, help="hyperbolic triangle matrices")
    p.add_argument("--m", required=True, help="comma-separated m1,m2,m3")
    p.add_argument("--tol", type=float, default=None,
                   help="default: min(1e-9, pi/(4m(m+1))) over the orders")
    p.add_argument("--reject-margin", type=float, default=1e-6)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OrbicurveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
