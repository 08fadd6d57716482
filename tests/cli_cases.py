"""The golden CLI sweep: argument lists, the files they read, and a runner.

    PYTHONPATH=src python tests/cli_cases.py OUT.json

runs every case through `orbicurve.cli.run` in a fresh scratch directory and
writes {case id: [exit code, stdout, stderr]} to OUT.json.
`tests/test_cli_golden.py` compares the same runs against
`tests/cli_golden.json`.  Standard library only, so any interpreter that can
import orbicurve can produce the file and two interpreters can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SIG237 = '{"g":0,"r":0,"m":[2,3,7]}'
A4 = ("# the (2,3,3) triangle presentation\ngens x1 x2 x3\nrel x1^2\nrel x2^3\n"
      "rel x3^3\nrel x3^-1 x2^-1 x1^-1\n")
PSL27 = "degree 8\nx1 = (1 8)(2 7)(3 4)(5 6)\nx2 = (1 8 2)(3 5 7)\nx3 = (1 7 6 5 4 3 2)\n"
STRAY = PSL27.replace("(1 8)(2 7)", "(1 8) x (2 7)")  # x1's cycles with a stray token
# the cosets of <x> in <x, y | x^2, y^3, (xy)^7, [x,y]^4>, a quotient of the
# (2,3,7) triangle group of order 168
Q237_X = ("gens x y\nrel x^2\nrel y^3\nrel " + " ".join(["x y"] * 7)
          + "\nrel " + " ".join(["x^-1 y^-1 x y"] * 4) + "\nsub x\n")
# 4301 digits, one more than int() and str() take; built as text, since
# str(10**4300) is refused too
LONG = "1" + "0" * 4300
# three orders of 2001 digits, each short enough to read, whose lcm is too
# long to print
HUGE_ORDERS = ",".join(str(10**2000 + i) for i in (1, 3, 7))


def _s200() -> str:
    # (1 2) and a 200-cycle generate the symmetric group of degree 200
    from orbicurve.cosets import format_cycles, perm_inverse, perm_mul

    x1 = (1, 0) + tuple(range(2, 200))
    y1 = tuple(range(1, 200)) + (0,)
    y2 = perm_inverse(perm_mul(x1, y1))
    return "degree 200\n" + "".join(
        f"{name} = {format_cycles(p)}\n" for name, p in (("x1", x1), ("y1", y1), ("y2", y2)))


FILES = {
    "a4.txt": A4,
    "sub.txt": A4 + "sub x1\n",
    "s4.txt": "gens x y\nrel x^2\nrel y^3\nrel x y x y x y x y\n",
    "bad.txt": "gens x\nrel y\n",
    "caret-name.txt": "gens x^2 y\nrel y\n",
    "psl27.txt": PSL27,
    "trivial.txt": "degree 8\nx1 = ()\nx2 = ()\nx3 = ()\n",
    "nonhom.txt": "degree 8\nx1 = ()\nx2 = ()\nx3 = (1,2)\n",
    "s200.txt": _s200(),
    "twice.txt": "degree 8\nx1 = (1,2)\nx2 = ()\nx3 = ()\nx1 = ()\n",
    "degree0.txt": "degree 0\nx1 = ()\nx2 = ()\nx3 = ()\n",
    "missing.txt": "degree 8\nx1 = ()\nx2 = ()\n",
    "no-degree.txt": "x1 = (1 8)(2 7)(3 4)(5 6)\nx2 = (1 8 2)(3 5 7)\nx3 = (1 7 6 5 4 3 2)\n",
    "unknown-name.txt": PSL27 + "z = (1 2)\n",
    "no-equals.txt": PSL27 + "x1 (1 2)\n",
    "bare-degree.txt": PSL27 + "degree\n",
    "degree-two-numbers.txt": PSL27.replace("degree 8", "degree 8 99"),
    "degree11.txt": "degree 11\nx1 = ()\nx2 = ()\nx3 = ()\n",
    "inferred11.txt": "x1 = (1 11)\nx2 = ()\nx3 = ()\n",
    "no-parentheses.txt": "degree 8\nx1 = 1 8\nx2 = ()\nx3 = ()\n",
    "point-out-of-range.txt": "degree 8\nx1 = (1 9)\nx2 = ()\nx3 = ()\n",
    "repeated-point.txt": "degree 8\nx1 = (1 2 1)\nx2 = ()\nx3 = ()\n",
    "overlapping-cycles.txt": "degree 8\nx1 = (1 2)(2 3)\nx2 = ()\nx3 = ()\n",
    "stray-token.txt": STRAY,
    "stray-token-no-degree.txt": STRAY.replace("degree 8\n", ""),
    "fractional-point.txt": "degree 8\nx1 = (1 2.5)\nx2 = ()\nx3 = ()\n",
    "degree-word.txt": PSL27.replace("degree 8", "degree eight"),
    "q237-x.txt": Q237_X,
    "x10.txt": "gens x\nrel x^10\n",
    "huge-rel.txt": f"gens x\nrel x^{10**400}\n",
    "huge-sub.txt": f"gens x\nrel x^2\nsub x^{10**400}\n",
    "long-exponent.txt": f"gens x\nrel x^{LONG}\n",
}
DIRECTORY = "a-directory"


def _both(case_id, *argv, env=None):
    """A case in JSON and in text format."""
    return [(f"{case_id}-{fmt}", (*argv, "--format", fmt), env or {})
            for fmt in ("json", "text")]


def _one(case_id, *argv, env=None):
    return [(case_id, argv, env or {})]


BOUND10 = {"ORBICURVE_MAX_COSETS": "10"}
BOUND_ABC = {"ORBICURVE_MAX_COSETS": "abc"}
BOUND0 = {"ORBICURVE_MAX_COSETS": "0"}

CASES = [
    # closed forms
    *_both("chi", "chi", "--sig", SIG237),
    *_both("chi-zero", "chi", "--sig", '{"g":1,"r":0,"m":[]}'),
    *_one("chi-malformed", "chi", "--sig", '{"g":0,"r":0,"m":[1,2]}'),
    *_one("chi-not-json", "chi", "--sig", "{"),
    *_one("chi-bool", "chi", "--sig", '{"g":true,"r":0,"m":[2,3,7]}'),
    *_one("chi-long-integer", "chi", "--sig", '{"g":0,"r":0,"m":[2,3,' + LONG + ']}'),
    *_one("chi-long-result", "chi", "--sig", '{"g":0,"r":0,"m":[' + HUGE_ORDERS + ']}'),
    *_both("kind", "kind", "--sig", '{"g":0,"r":0,"m":[2,2,5]}'),
    *_both("kind-witness", "kind", "--sig", '{"g":1,"r":0,"m":[]}'),
    *(case for m in ("3,3,3", "2,4,4", "2,3,6", "2,2,2,2")
      for case in _both(f"kind-{m.replace(',', '')}", "kind", "--sig",
                        f'{{"g":0,"r":0,"m":[{m}]}}')),
    *_both("order-finite", "order", "--sig", '{"g":0,"r":1,"m":[9]}'),
    *_both("order-infinite", "order", "--sig", '{"g":1,"r":0,"m":[]}'),
    *_both("abelianize-sig", "abelianize", "--sig", '{"g":0,"r":0,"m":[2,4,4]}'),
    *_both("abelianize-file", "abelianize", "--presentation", "a4.txt"),
    *_one("abelianize-nothing", "abelianize"),
    *_one("abelianize-both", "abelianize", "--sig", SIG237, "--presentation", "a4.txt"),
    *_one("abelianize-no-file", "abelianize", "--presentation", "nowhere.txt"),
    *_one("abelianize-directory", "abelianize", "--presentation", DIRECTORY),
    *_one("abelianize-bad-file", "abelianize", "--presentation", "bad.txt"),
    *_both("iso-equal", "iso", "--a", '{"g":0,"r":3,"m":[]}', "--b", '{"g":1,"r":1,"m":[]}'),
    *_both("iso-detail", "iso", "--a", SIG237, "--b", '{"g":0,"r":0,"m":[2,3,8]}'),
    *_both("serre-open", "serre", "--sig", '{"g":0,"r":0,"m":[2,3,12]}'),
    *_both("serre-null-degree", "serre", "--sig", '{"g":1,"r":0,"m":[]}'),
    # cover arithmetic
    *_both("cover-index", "cover", "--sig", '{"g":0,"r":1,"m":[2,3]}', "--index", "6"),
    *_both("cover-lcm", "cover", "--sig", '{"g":0,"r":3,"m":[2,2]}', "--lcm"),
    *_both("cover-compact", "cover", "--sig", SIG237, "--index", "84"),
    *_one("cover-no-sig", "cover", "--index", "6"),
    *_one("cover-no-mode", "cover", "--sig", SIG237),
    *_one("cover-conflict", "cover", "--sig", '{"g":0,"r":3,"m":[2,2]}', "--index", "6", "--lcm"),
    *_one("cover-bad-index", "cover", "--sig", SIG237, "--index", "100"),
    *_one("cover-lcm-long-result", "cover", "--sig", '{"g":0,"r":1,"m":[' + HUGE_ORDERS + ']}',
          "--lcm"),
    # cover verify
    *_both("verify-perms", "cover", "verify", "--sig", SIG237, "--perms", "psl27.txt"),
    *_one("verify-perms-no-degree", "cover", "verify", "--sig", SIG237, "--perms",
          "no-degree.txt"),
    *_both("verify-perms-torsion", "cover", "verify", "--sig", SIG237, "--perms", "trivial.txt"),
    *_both("verify-perms-not-hom", "cover", "verify", "--sig", SIG237, "--perms", "nonhom.txt"),
    *_both("verify-perms-exceeded", "cover", "verify", "--sig", '{"g":0,"r":2,"m":[2]}',
           "--perms", "s200.txt"),
    *_one("verify-perms-small-cap", "cover", "verify", "--sig", SIG237, "--perms", "psl27.txt",
          "--cap", "100"),
    *_one("verify-perms-zero-cap", "cover", "verify", "--sig", SIG237, "--perms", "psl27.txt",
          "--cap", "0"),
    *_one("verify-perms-env-cap", "cover", "verify", "--sig", SIG237, "--perms", "psl27.txt",
          env=BOUND10),
    *_both("verify-perms-degree-above-bound", "cover", "verify", "--sig", SIG237, "--perms",
           "degree11.txt", env=BOUND10),
    *_one("verify-perms-inferred-degree-above-bound", "cover", "verify", "--sig", SIG237,
          "--perms", "inferred11.txt", env=BOUND10),
    *_one("verify-perms-twice", "cover", "verify", "--sig", SIG237, "--perms", "twice.txt"),
    *_one("verify-perms-degree0", "cover", "verify", "--sig", SIG237, "--perms", "degree0.txt"),
    *_one("verify-perms-missing", "cover", "verify", "--sig", SIG237, "--perms", "missing.txt"),
    *_one("verify-perms-no-file", "cover", "verify", "--sig", SIG237, "--perms", "nowhere.txt"),
    *_one("verify-perms-directory", "cover", "verify", "--sig", SIG237, "--perms", DIRECTORY),
    *_one("verify-perms-no-perms", "cover", "verify", "--sig", SIG237),
    *_one("verify-perms-unknown-name", "cover", "verify", "--sig", SIG237, "--perms",
          "unknown-name.txt"),
    *_one("verify-perms-no-equals", "cover", "verify", "--sig", SIG237, "--perms",
          "no-equals.txt"),
    *_one("verify-perms-bare-degree", "cover", "verify", "--sig", SIG237, "--perms",
          "bare-degree.txt"),
    *_one("verify-perms-degree-two-numbers", "cover", "verify", "--sig", SIG237, "--perms",
          "degree-two-numbers.txt"),
    # the four refusals of cycle notation
    *_one("verify-perms-no-parentheses", "cover", "verify", "--sig", SIG237, "--perms",
          "no-parentheses.txt"),
    *_one("verify-perms-point-out-of-range", "cover", "verify", "--sig", SIG237, "--perms",
          "point-out-of-range.txt"),
    *_one("verify-perms-repeated-point", "cover", "verify", "--sig", SIG237, "--perms",
          "repeated-point.txt"),
    *_one("verify-perms-overlapping-cycles", "cover", "verify", "--sig", SIG237, "--perms",
          "overlapping-cycles.txt"),
    # tokens that int() rejects, in a cycle or on the degree line
    *_one("verify-perms-stray-token", "cover", "verify", "--sig", SIG237, "--perms",
          "stray-token.txt"),
    *_one("verify-perms-stray-token-no-degree", "cover", "verify", "--sig", SIG237, "--perms",
          "stray-token-no-degree.txt"),
    *_one("verify-perms-fractional-point", "cover", "verify", "--sig", SIG237, "--perms",
          "fractional-point.txt"),
    *_one("verify-perms-degree-word", "cover", "verify", "--sig", SIG237, "--perms",
          "degree-word.txt"),
    *_one("verify-perms-format-first", "cover", "--format", "text", "verify", "--sig", SIG237,
          "--perms", "psl27.txt"),
    # options of `cover` before `verify` are refused, not dropped
    *_one("verify-perms-index-first", "cover", "--index", "6", "verify", "--sig", SIG237,
          "--perms", "psl27.txt"),
    *_one("verify-perms-lcm-first", "cover", "--lcm", "verify", "--sig", SIG237,
          "--perms", "psl27.txt"),
    *_one("verify-perms-env-abc", "cover", "verify", "--sig", SIG237, "--perms", "psl27.txt",
          env=BOUND_ABC),
    *_one("verify-perms-env-zero", "cover", "verify", "--sig", SIG237, "--perms", "psl27.txt",
          env=BOUND0),
    *_one("verify-perms-sig-first", "cover", "--sig", '{"g":0,"r":0,"m":[2,3,8]}', "verify",
          "--sig", SIG237, "--perms", "psl27.txt"),
    # Todd-Coxeter
    *_both("todd-coxeter", "todd-coxeter", "--presentation", "a4.txt"),
    *_both("todd-coxeter-sub", "todd-coxeter", "--presentation", "sub.txt"),
    *_both("todd-coxeter-table", "todd-coxeter", "--presentation", "s4.txt", "--table"),
    # the permutations spell out the coset numbering
    *_one("todd-coxeter-table-q237-x", "todd-coxeter", "--presentation", "q237-x.txt", "--table"),
    *_both("todd-coxeter-exceeded", "todd-coxeter", "--presentation", "a4.txt",
           "--max-cosets", "10"),
    *_one("todd-coxeter-env-bound", "todd-coxeter", "--presentation", "a4.txt", env=BOUND10),
    *_one("todd-coxeter-env-abc", "todd-coxeter", "--presentation", "a4.txt", env=BOUND_ABC),
    *_one("todd-coxeter-env-zero", "todd-coxeter", "--presentation", "a4.txt", env=BOUND0),
    *_one("todd-coxeter-zero-bound", "todd-coxeter", "--presentation", "a4.txt",
          "--max-cosets", "0"),
    *_one("todd-coxeter-no-file", "todd-coxeter", "--presentation", "nowhere.txt"),
    # a word with more letters than the bound is refused before it is
    # spelled out, and after the bound's own refusals
    *_one("todd-coxeter-huge-rel", "todd-coxeter", "--presentation", "huge-rel.txt"),
    *_one("todd-coxeter-huge-sub", "todd-coxeter", "--presentation", "huge-sub.txt"),
    *_one("todd-coxeter-huge-rel-zero-bound", "todd-coxeter", "--presentation", "huge-rel.txt",
          "--max-cosets", "0"),
    *_one("todd-coxeter-huge-rel-env-abc", "todd-coxeter", "--presentation", "huge-rel.txt",
          env=BOUND_ABC),
    *_one("todd-coxeter-word-at-bound", "todd-coxeter", "--presentation", "x10.txt",
          "--max-cosets", "10"),
    *_one("todd-coxeter-word-above-bound", "todd-coxeter", "--presentation", "x10.txt",
          "--max-cosets", "9"),
    *_one("todd-coxeter-long-exponent", "todd-coxeter", "--presentation", "long-exponent.txt"),
    # a generator name that no word could spell
    *_one("todd-coxeter-bad-generator-name", "todd-coxeter", "--presentation", "caret-name.txt"),
    # verification suites
    *_both("verify-wallpaper", "verify", "wallpaper", "--k", "6", "--samples", "3", "--seed", "5"),
    *_both("verify-wallpaper-exceeded", "verify", "wallpaper", "--k", "6", "--samples", "11",
           "--seed", "5", env=BOUND10),
    *_one("verify-wallpaper-env-abc", "verify", "wallpaper", "--k", "6", "--samples", "1",
          "--seed", "5", env=BOUND_ABC),
    *_one("verify-wallpaper-env-zero", "verify", "wallpaper", "--k", "6", "--samples", "1",
          "--seed", "5", env=BOUND0),
    # check names, details and key order for every k
    *(case for k in "2346" for case in _both(f"verify-wallpaper-k{k}", "verify", "wallpaper",
                                              "--k", k, "--samples", "7", "--seed", "11")),
    *_one("verify-wallpaper-bad-k", "verify", "wallpaper", "--k", "5", "--samples", "3",
          "--seed", "5"),
    *_one("verify-wallpaper-no-seed", "verify", "wallpaper", "--k", "6", "--samples", "3"),
    *_both("verify-example", "verify", "example", "--name", "quartic-b3p1"),
    *_both("verify-example-notes", "verify", "example", "--name", "artal(4,1,1)"),
    *_one("verify-example-sextic-json", "verify", "example", "--name", "sextic-b4p1",
          "--format", "json"),
    *_one("verify-example-quintic-json", "verify", "example", "--name", "quintic-237",
          "--format", "json"),
    *_one("verify-example-artal-10-7-1-json", "verify", "example", "--name", "artal(10,7,1)",
          "--format", "json"),
    *_one("verify-example-unknown", "verify", "example", "--name", "nope"),
    # artal's words grow with its degree d, so a d above the bound is refused
    # before anything is built
    *_one("verify-example-artal-above-bound", "verify", "example", "--name", "artal(14,6,6)",
          env=BOUND10),
    *_one("verify-example-artal-huge-degree", "verify", "example", "--name",
          f"artal({10**400},{10**400 - 3},1)"),
    *_one("verify-example-artal-long-degree", "verify", "example", "--name", f"artal({LONG},1,1)"),
    *_one("verify-example-artal-long-parameter", "verify", "example", "--name",
          f"artal(5,{LONG},1)"),
    *_one("verify-example-format-first", "verify", "--format", "text", "example", "--name",
          "quartic-b3p1"),
    *_one("verify-wallpaper-format-first", "verify", "--format", "text", "wallpaper", "--k", "2",
          "--samples", "3", "--seed", "5"),
    *_one("verify-no-suite", "verify"),
    *_both("triangle-rep", "triangle-rep", "--m", "2,3,7"),
    *_both("triangle-rep-fail", "triangle-rep", "--m", "2,3,1000000000"),
    *_one("triangle-rep-not-hyperbolic", "triangle-rep", "--m", "2,3,6"),
    # above 2^53 an order and its successor are one float
    *_one("triangle-rep-order-10e160", "triangle-rep", "--m", f"2,3,{10**160}"),
    *_one("triangle-rep-order-10e400", "triangle-rep", "--m", f"2,3,{10**400}"),
    *_one("triangle-rep-long-order", "triangle-rep", "--m", f"2,3,{LONG}"),
    *_one("triangle-rep-two-orders", "triangle-rep", "--m", "2,3"),
    *_one("triangle-rep-word-order", "triangle-rep", "--m", "2,3,x"),
    *_one("triangle-rep-empty-order", "triangle-rep", "--m", "2,3,"),
    *_one("triangle-rep-fractional-order", "triangle-rep", "--m", "2.5,3,7"),
    *_one("triangle-rep-bad-tol", "triangle-rep", "--m", "2,3,7", "--tol", "nan"),
    # usage errors
    *_one("no-command"),
    *_one("unknown-command", "frobnicate"),
    *_one("unknown-flag", "chi", "--bogus"),
    *_one("unrecognized-argument", "chi", "--sig", SIG237, "--bogus"),
    *_one("cover-unknown-mode", "cover", "--sig", SIG237, "frobnicate"),
    *_one("verify-unknown-suite", "verify", "frobnicate"),
    *_one("bad-int", "cover", "--sig", SIG237, "--index", "six"),
    *_one("bad-format", "chi", "--sig", SIG237, "--format", "yaml"),
]


def run_case(argv, env, directory: Path) -> list:
    """[exit code, stdout, stderr] of one in-process run inside `directory`."""
    from orbicurve.cli import run

    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / DIRECTORY).mkdir(exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd, saved = os.getcwd(), {key: os.environ.get(key) for key in env}
    os.chdir(directory)
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return [code, out.getvalue(), err.getvalue()]


def main(argv) -> int:
    results = {}
    for case_id, args, env in CASES:
        with tempfile.TemporaryDirectory() as directory:
            results[case_id] = run_case(args, env, Path(directory))
    Path(argv[0]).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
