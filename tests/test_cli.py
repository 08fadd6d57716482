"""What a fixed CLI run cannot show: unit tests of the parsers, runs that
differ from a golden case only where the output must not, runs in several
steps, and drawn integers.  Every fixed run is pinned, byte for byte, by
`tests/cli_golden.json` (see `tests/cli_cases.py`); a test here that expects
a golden case's output compares with that entry instead of a copy of it.

A test that stands for one golden case (`assert_golden`) runs it with a
trailing `--format json` left off, so it also shows that JSON is the
default format."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import BOUND0, BOUND10, CASES, DIRECTORY, FILES, PSL27, SIG237, run_case
from orbicurve.cli import (
    EXIT_DOMAIN_ERROR,
    EXIT_EXCEEDED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    parse_signature,
    rational_str,
)
from test_cli_golden import GOLDEN

_CASES = {case_id: (argv, env) for case_id, argv, env in CASES}


def assert_golden(tmp_path, case_id):
    """Golden case `case_id`, run without a trailing `--format json`, gives
    the bytes of its entry."""
    argv, env = _CASES[case_id]
    if argv[-2:] == ("--format", "json"):
        argv = argv[:-2]
    assert run_case(argv, env, tmp_path) == GOLDEN[case_id]


class TestRationalFormat:
    def test_always_p_over_q(self):
        assert rational_str(Fraction(-1, 42)) == "-1/42"
        assert rational_str(Fraction(0)) == "0/1"
        assert rational_str(Fraction(4, 2)) == "2/1"


class TestSignatureJson:
    def test_parse_and_canonicalize(self):
        sig = parse_signature('{"g":0,"r":2,"m":[5,5,2]}')
        assert (sig.g, sig.r, sig.m) == (0, 2, (2, 5, 5))

    def test_rejects_bad_shapes(self):
        for text in ('{"g":0}', "[1,2]", '{"g":0,"r":0,"m":[1]}', "notjson",
                     '{"g":"x","r":0,"m":[]}'):
            with pytest.raises(Exception):
                parse_signature(text)


class TestChi:
    def test_hyperbolic_example(self, tmp_path):
        assert_golden(tmp_path, "chi-json")

    def test_zero_chi(self, tmp_path):
        assert_golden(tmp_path, "chi-zero-json")

    def test_malformed_exits_1(self, tmp_path):
        assert_golden(tmp_path, "chi-malformed")

    @pytest.mark.parametrize("sig", [
        '{"g": true, "r": false, "m": [2, 3, 7]}',
        '{"g": 0, "r": true, "m": [2, 3, 7]}',
        '{"g": 0, "r": 0, "m": [2, true, 7]}',
    ])
    def test_json_booleans_are_not_ints(self, tmp_path, sig):
        code, out, err = run_case(("chi", "--sig", sig), {}, tmp_path)
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert "must be ints" in err


class TestOrder:
    def test_infinite(self, tmp_path):
        assert_golden(tmp_path, "order-infinite-json")

    def test_finite(self, tmp_path):
        assert_golden(tmp_path, "order-finite-json")


class TestKind:
    def test_fields(self, tmp_path):
        assert_golden(tmp_path, "kind-json")

    def test_ninf_witness(self, tmp_path):
        assert_golden(tmp_path, "kind-witness-json")


class TestAbelianize:
    def test_from_signature(self, tmp_path):
        assert_golden(tmp_path, "abelianize-sig-json")

    def test_from_presentation_file(self, tmp_path):
        (tmp_path / "p.txt").write_text("gens x\nrel x^3\n", encoding="utf-8")
        code, out, _ = run_case(("abelianize", "--presentation", "p.txt"), {}, tmp_path)
        assert (code, json.loads(out)) == (EXIT_OK, {"rank": 0, "torsion": [3]})

    def test_requires_an_input(self, tmp_path):
        assert_golden(tmp_path, "abelianize-nothing")

    def test_presentation_directory_exits_1(self, tmp_path):
        # an OSError other than FileNotFoundError is a domain error too
        assert_golden(tmp_path, "abelianize-directory")

    def test_sig_and_presentation_conflict_exits_1(self, tmp_path):
        # refused before either input is read: any signature gives the same bytes
        argv = ("abelianize", "--sig", '{"g":0,"r":0,"m":[2,4,4]}', "--presentation", "a4.txt")
        assert run_case(argv, {}, tmp_path) == GOLDEN["abelianize-both"]


class TestIso:
    def test_isomorphic_free_groups(self, tmp_path):
        assert_golden(tmp_path, "iso-equal-json")

    def test_mismatch_carries_detail(self, tmp_path):
        assert_golden(tmp_path, "iso-detail-json")


class TestSerre:
    def test_open_problem_cell(self, tmp_path):
        assert_golden(tmp_path, "serre-open-json")

    def test_realizable_null_degree(self, tmp_path):
        assert_golden(tmp_path, "serre-null-degree-json")


class TestCover:
    def test_index(self, tmp_path):
        assert_golden(tmp_path, "cover-index-json")

    def test_lcm(self, tmp_path):
        assert_golden(tmp_path, "cover-lcm-json")

    def test_bad_index_exits_1(self, tmp_path):
        assert_golden(tmp_path, "cover-bad-index")

    def test_index_and_lcm_conflict_exits_1(self, tmp_path):
        assert_golden(tmp_path, "cover-conflict")

    @pytest.mark.parametrize("mode", [("--index", "6"), ("--lcm",)])
    def test_missing_sig_exits_1(self, tmp_path, mode):
        assert run_case(("cover", *mode), {}, tmp_path) == GOLDEN["cover-no-sig"]

    def test_verify_fixture(self, tmp_path):
        assert_golden(tmp_path, "verify-perms-json")

    def test_verify_cycles_separated_by_whitespace(self, tmp_path):
        (tmp_path / "spaced.txt").write_text(PSL27.replace(")(", ") \t("), encoding="utf-8")
        argv = ("cover", "verify", "--sig", SIG237, "--perms", "spaced.txt", "--format", "json")
        assert run_case(argv, {}, tmp_path) == GOLDEN["verify-perms-json"]

    def test_verify_exceeded_exits_2(self, tmp_path):
        # (1 2) and a 200-cycle generate the symmetric group of degree 200;
        # the cap trips on a lower bound of its order, before memory grows
        assert_golden(tmp_path, "verify-perms-exceeded-json")

    def test_verify_failure_exits_3(self, tmp_path):
        assert_golden(tmp_path, "verify-perms-torsion-json")

    @pytest.mark.parametrize("text, expected", [
        (FILES["twice.txt"], GOLDEN["verify-perms-twice"]),
        ("degree 8\ndegree 9\nx1 = ()\nx2 = ()\nx3 = ()\n",
         [EXIT_DOMAIN_ERROR, "", "error: permutation file has more than one degree line\n"]),
    ], ids=["generator-twice", "degree-twice"])
    def test_verify_duplicate_line_exits_1(self, tmp_path, text, expected):
        (tmp_path / "perms.txt").write_text(text, encoding="utf-8")
        argv = ("cover", "verify", "--sig", SIG237, "--perms", "perms.txt")
        assert run_case(argv, {}, tmp_path) == expected

    def test_verify_zero_cap_exits_1(self, tmp_path):
        # a zero cap is refused, not replaced by the default
        assert_golden(tmp_path, "verify-perms-zero-cap")

    @pytest.mark.parametrize("cap", [["--cap", "0"], ["--cap", "-5"], []])
    def test_verify_bad_cap_refused_before_any_verdict(self, tmp_path, cap):
        # nonhom.txt breaks x1 x2 x3 = 1, so a verdict computed before the
        # cap check would be not_homomorphism, exit 3; the refusal is the
        # one a certifiable file gets
        argv = ("cover", "verify", "--sig", SIG237, "--perms", "nonhom.txt", *cap)
        env, case_id = ({}, "verify-perms-zero-cap") if cap else (BOUND0, "verify-perms-env-zero")
        assert run_case(argv, env, tmp_path) == GOLDEN[case_id]

    @pytest.mark.parametrize("text, expected", [
        (FILES["degree0.txt"], GOLDEN["verify-perms-degree0"]),
        ("degree -3\nx1 = ()\nx2 = ()\nx3 = ()\n",
         [EXIT_DOMAIN_ERROR, "", "error: degree must be >= 1, got -3\n"]),
    ], ids=["0", "-3"])
    def test_verify_nonpositive_degree_exits_1(self, tmp_path, text, expected):
        # identity cycles of a degree <= 0 used to be read as permutations
        # and reach the torsion_in_kernel verdict
        (tmp_path / "perms.txt").write_text(text, encoding="utf-8")
        argv = ("cover", "verify", "--sig", SIG237, "--perms", "perms.txt")
        assert run_case(argv, {}, tmp_path) == expected

    @pytest.mark.parametrize("name, case_id", [
        ("degree11.txt", "verify-perms-degree-above-bound-json"),
        ("inferred11.txt", "verify-perms-inferred-degree-above-bound"),
    ], ids=["stated", "inferred"])
    def test_verify_degree_above_bound_exit_2(self, tmp_path, name, case_id):
        # a permutation of degree N is built as N points, so N is work taken
        # from the input and is refused past the work bound, whatever the cap
        argv = ("cover", "verify", "--sig", SIG237, "--cap", "1000", "--perms")
        assert run_case((*argv, name), BOUND10, tmp_path) == GOLDEN[case_id]
        # degree 10 is within the bound and reaches a verdict
        (tmp_path / "degree10.txt").write_text(FILES[name].replace("11", "10"), encoding="utf-8")
        code, out, _ = run_case((*argv, "degree10.txt"), BOUND10, tmp_path)
        assert code == EXIT_VERIFY_FAILED
        assert "exceeded" not in out

    @pytest.mark.parametrize("line, case_id", [
        ("z = (1 2)", "verify-perms-unknown-name"),
        ("x1 (1 2)", "verify-perms-no-equals"),
        ("degree", "verify-perms-bare-degree"),
        ("degree 8 99", "verify-perms-degree-two-numbers"),
    ], ids=["unknown-generator", "no-equals", "degree-without-number", "degree-two-numbers"])
    def test_verify_unusable_line_exits_1(self, tmp_path, line, case_id):
        # each of these, after a certifiable file, used to be skipped and
        # the file certified (exit 0)
        (tmp_path / "perms.txt").write_text(PSL27 + line + "\n", encoding="utf-8")
        argv = ("cover", "verify", "--sig", SIG237, "--perms", "perms.txt")
        assert run_case(argv, {}, tmp_path) == GOLDEN[case_id]

    @pytest.mark.parametrize("text, expected", [
        ("degree 8\nx1 = (1 8) x (2 7)(3 4)(5 6)\nx2 = ()\nx3 = ()\n",
         GOLDEN["verify-perms-stray-token"]),
        ("x1 = (1 8) x (2 7)(3 4)(5 6)\nx2 = ()\nx3 = ()\n",
         GOLDEN["verify-perms-stray-token-no-degree"]),
        (FILES["fractional-point.txt"], GOLDEN["verify-perms-fractional-point"]),
        ("x1 = (1 2.5)\nx2 = ()\nx3 = ()\n", GOLDEN["verify-perms-fractional-point"]),
        ("degree eight\nx1 = ()\nx2 = ()\nx3 = ()\n", GOLDEN["verify-perms-degree-word"]),
        ("degree 8\nx1 = (1 -2)\nx2 = ()\nx3 = ()\n",
         [EXIT_DOMAIN_ERROR, "", "error: point out of range in '(1 -2)'\n"]),
        ("x1 = (1 -2)\nx2 = ()\nx3 = ()\n",
         [EXIT_DOMAIN_ERROR, "", "error: point out of range in '(1 -2)'\n"]),
    ], ids=["stray-token", "stray-token-inferred", "fractional", "fractional-inferred",
            "degree-word", "negative", "negative-inferred"])
    def test_verify_bad_token_exits_1(self, tmp_path, text, expected):
        # a token that int() rejects used to escape as int()'s own message;
        # one that it accepts meets the point checks, whether or not the
        # degree is inferred, and the other lines do not change the refusal
        (tmp_path / "perms.txt").write_text(text, encoding="utf-8")
        argv = ("cover", "verify", "--sig", SIG237, "--perms", "perms.txt")
        assert run_case(argv, {}, tmp_path) == expected

    @pytest.mark.parametrize("argv", [
        ("cover", "--format", "text", "verify"),
        ("cover", "verify", "--format", "text"),
    ], ids=["format-first", "format-last"])
    def test_verify_text_format_in_either_position(self, tmp_path, argv):
        argv = (*argv, "--sig", SIG237, "--perms", "psl27.txt")
        assert run_case(argv, {}, tmp_path) == GOLDEN["verify-perms-text"]

    def test_verify_perms_directory_exits_1(self, tmp_path):
        assert_golden(tmp_path, "verify-perms-directory")


class TestToddCoxeter:
    def test_presentation_directory_exits_1(self, tmp_path):
        code, out, err = run_case(("todd-coxeter", "--presentation", DIRECTORY), {}, tmp_path)
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_completes(self, tmp_path):
        assert_golden(tmp_path, "todd-coxeter-json")

    def test_exceeded_exits_2(self, tmp_path):
        assert_golden(tmp_path, "todd-coxeter-exceeded-json")

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_nonpositive_bound_exits_1(self, tmp_path, bound):
        # 0 is refused like any bound below 1, not replaced by the default
        argv = ("todd-coxeter", "--presentation", "a4.txt", "--max-cosets", bound)
        assert run_case(argv, {}, tmp_path) == GOLDEN["todd-coxeter-zero-bound"]

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5", "1e3"])
    def test_invalid_env_bound_exits_1(self, tmp_path, value):
        env = {"ORBICURVE_MAX_COSETS": value}
        argv = ("todd-coxeter", "--presentation", "a4.txt")
        assert run_case(argv, env, tmp_path) == [
            EXIT_DOMAIN_ERROR, "",
            f"error: ORBICURVE_MAX_COSETS must be an integer >= 1, got {value!r}\n"]
        # an explicit bound does not read the variable
        assert run_case((*argv, "--max-cosets", "100"), env, tmp_path)[0] == EXIT_OK

    def test_env_bound_override(self, tmp_path):
        assert_golden(tmp_path, "todd-coxeter-env-bound")

    def test_subgroup_lines(self, tmp_path):
        assert_golden(tmp_path, "todd-coxeter-sub-json")

    def test_missing_file_exits_1(self, tmp_path):
        code, _, _ = run_case(("todd-coxeter", "--presentation", "/nonexistent"), {}, tmp_path)
        assert code == EXIT_DOMAIN_ERROR


class TestVerify:
    def test_wallpaper_pass(self, tmp_path):
        code, out, _ = run_case(("verify", "wallpaper", "--k", "2", "--samples", "5", "--seed",
                                 "42"), {}, tmp_path)
        data = json.loads(out)
        assert code == EXIT_OK and data["pass"] is True
        assert {c["name"] for c in data["checks"]} >= {"sigma_order", "image_on_surface"}

    def test_wallpaper_samples_above_bound_exit_2(self, tmp_path):
        # the sample count is work taken from the command line, so it is
        # refused past the same bound as cosets and group orders, whatever
        # the seed
        argv = ("verify", "wallpaper", "--k", "6", "--seed", "42", "--samples")
        exceeded = GOLDEN["verify-wallpaper-exceeded-json"]
        assert run_case((*argv, "11"), BOUND10, tmp_path) == exceeded
        code, out, _ = run_case((*argv, "10"), BOUND10, tmp_path)
        assert code == EXIT_OK and json.loads(out)["samples"] == 10

    def test_example_report(self, tmp_path):
        assert_golden(tmp_path, "verify-example-json")

    @pytest.mark.parametrize("argv, case_id", [
        (("verify", "--format", "text", "example", "--name", "quartic-b3p1"),
         "verify-example-format-first"),
        (("verify", "example", "--format", "text", "--name", "quartic-b3p1"),
         "verify-example-format-first"),
        (("verify", "--format", "text", "wallpaper", "--k", "2", "--samples", "3", "--seed", "5"),
         "verify-wallpaper-format-first"),
        (("verify", "wallpaper", "--k", "2", "--samples", "3", "--seed", "5", "--format", "text"),
         "verify-wallpaper-format-first"),
    ], ids=["example-format-first", "example-format-last", "wallpaper-format-first",
            "wallpaper-format-last"])
    def test_text_format_in_either_position(self, tmp_path, argv, case_id):
        # a --format before the suite name used to be reset to json by the
        # suite's parser; before or after it, the bytes are the same
        assert run_case(argv, {}, tmp_path) == GOLDEN[case_id]

    def test_unknown_example_exits_1(self, tmp_path):
        assert_golden(tmp_path, "verify-example-unknown")

    def test_artal_degree_above_bound_exit_2(self, tmp_path):
        # artal's words grow linearly in d: a d past the bound is refused
        # before anything is built, whether or not (d, a, b) is valid
        env = {"ORBICURVE_MAX_COSETS": "13"}
        for name in ("artal(14,6,6)", "artal(14,1,1)", f"artal( {10**400} , 1, 1 )"):
            code, out, err = run_case(("verify", "example", "--name", name), env, tmp_path)
            assert (code, out) == (EXIT_EXCEEDED, '{"bound": 13, "exceeded": true}\n'), name
            assert err.startswith("artal degree ") and err.endswith(" exceeds bound 13\n")
        code, out, _ = run_case(("verify", "example", "--name", "artal(13,6,5)"), env, tmp_path)
        assert code == EXIT_OK and json.loads(out)["name"] == "artal(13,6,5)"
        code, _, err = run_case(("verify", "example", "--name", "artal(13,6,6)"), env, tmp_path)
        assert code == EXIT_DOMAIN_ERROR and err.startswith("error: need d > 3")


class TestTriangleRep:
    def test_pass(self, tmp_path):
        assert_golden(tmp_path, "triangle-rep-json")

    def test_huge_order_not_certified(self, tmp_path):
        # the tolerance cannot separate pi/m from pi/(m+1), so it cannot certify m
        assert_golden(tmp_path, "triangle-rep-fail-json")

    def test_default_tolerance_follows_the_orders(self, tmp_path):
        # 1e-9 cannot separate pi/99058 from pi/99059; the derived default can
        code, out, _ = run_case(("triangle-rep", "--m", "2,3,99058"), {}, tmp_path)
        assert code == EXIT_OK and json.loads(out)["pass"] is True
        code, _, _ = run_case(("triangle-rep", "--m", "2,3,99058", "--tol", "1e-9"), {}, tmp_path)
        assert code == EXIT_VERIFY_FAILED

    def test_large_order_certified_at_finer_tolerance(self, tmp_path):
        code, out, _ = run_case(("triangle-rep", "--m", "2,3,100000", "--tol", "1e-11"), {},
                                tmp_path)
        assert code == EXIT_OK and json.loads(out)["pass"] is True

    def test_not_hyperbolic_exits_1(self, tmp_path):
        assert_golden(tmp_path, "triangle-rep-not-hyperbolic")

    @pytest.mark.parametrize("m", [2**53 + 1, 10**160, 10**400])
    def test_order_above_float_precision_exits_1(self, tmp_path, m):
        # above 2^53, m and m + 1 are one float: refused, with no traceback
        assert run_case(("triangle-rep", "--m", f"{m},3,2"), {}, tmp_path) == [
            EXIT_DOMAIN_ERROR, "", f"error: multiplicities must be <= 2^53, got ({m}, 3, 2)\n"]

    def test_order_two_to_the_53_still_runs(self, tmp_path):
        code, out, _ = run_case(("triangle-rep", "--m", f"2,3,{2**53}"), {}, tmp_path)
        assert code == EXIT_VERIFY_FAILED and json.loads(out)["m"] == [2, 3, 2**53]

    @pytest.mark.parametrize("value, flag, name", [
        (value, flag, name) for value in ("-1", "nan", "inf")
        for flag, name in (("--tol", "tolerance"), ("--reject-margin", "reject margin"))
    ])
    def test_bad_tolerance_or_margin_exits_1(self, tmp_path, value, flag, name):
        # usage errors, not a FAIL verdict (exit 3) or, for a negative
        # margin, a PASS with the premature-closure check turned off
        code, out, err = run_case(("triangle-rep", "--m", "2,3,7", flag, value), {}, tmp_path)
        assert code == EXIT_DOMAIN_ERROR and out == ""
        assert err.startswith(f"error: {name} must be finite and >= 0")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("chi", "--sig", SIG237),
        ("verify", "wallpaper", "--k", "3", "--samples", "4", "--seed", "11"),
        ("serre", "--sig", '{"g":0,"r":0,"m":[2,3,12]}'),
    ])
    def test_byte_identical_outputs(self, tmp_path, argv):
        # two runs in one process: nothing the first leaves behind changes
        # the second
        assert run_case(argv, {}, tmp_path) == run_case(argv, {}, tmp_path)


class TestTextMode:
    def test_chi_text(self, tmp_path):
        assert_golden(tmp_path, "chi-text")


class TestUsageErrors:
    def test_unknown_flag_is_domain_error(self, tmp_path):
        assert_golden(tmp_path, "unknown-flag")

    def test_bad_index_value(self, tmp_path):
        code, _, _ = run_case(("cover", "--sig", '{"g":0,"r":1,"m":[2]}', "--index", "0"), {},
                              tmp_path)
        assert code == EXIT_DOMAIN_ERROR


# ---------------------------------------------------------------------------
# no integer an option or a file takes makes `run` raise


# digit strings, since str() and json.dumps refuse ints of more than 4300
# digits; the third kind can be read, but a product or lcm of two of them
# can be too long to print, and the last kind is past that limit
_INTS = st.one_of(
    st.integers(-1, 16).map(str),
    st.integers(-1, 10**400).map(str),
    st.integers(10**1500, 10**4300 - 1).map(str),
    st.builds(lambda sign, n: sign + "9" * n, st.sampled_from(["", "-"]), st.integers(4301, 5001)),
)
_SIGS = st.builds(lambda g, r, m: f'{{"g": {g}, "r": {r}, "m": [{", ".join(m)}]}}',
                  _INTS, _INTS, st.lists(_INTS, max_size=3))
# a presentation file whose exponents are drawn, read as drawn.txt
_DRAWN = st.tuples(_INTS, _INTS, _INTS).map(
    lambda e: f"gens x y\nrel x^{e[0]} y^{e[1]}\nsub x^{e[2]}\n")


def _argvs():
    n = _INTS
    return st.one_of(
        # "--m=", since argparse reads "-1,2,3" after a space as an option
        st.lists(n, min_size=3, max_size=3).map(lambda m: ["triangle-rep", "--m=" + ",".join(m)]),
        st.tuples(n, n, n).map(lambda d: ["verify", "example", "--name", f"artal({','.join(d)})"]),
        st.tuples(_SIGS, n).map(lambda a: ["cover", "--sig", a[0], "--index", a[1]]),
        _SIGS.map(lambda sig: ["cover", "--sig", sig, "--lcm"]),
        n.map(lambda cap: ["cover", "verify", "--sig", SIG237, "--perms", "psl27.txt", "--cap",
                           cap]),
        st.tuples(n, n, n).map(lambda a: ["verify", "wallpaper", "--k", a[0], "--samples", a[1],
                                          "--seed", a[2]]),
        n.map(lambda bound: ["todd-coxeter", "--presentation", "a4.txt", "--max-cosets", bound]),
        st.just(["todd-coxeter", "--presentation", "drawn.txt"]),
        st.tuples(st.sampled_from(["chi", "kind", "order", "serre", "abelianize"]), _SIGS).map(
            lambda a: [a[0], "--sig", a[1]]),
        st.tuples(_SIGS, _SIGS).map(lambda a: ["iso", "--a", a[0], "--b", a[1]]),
    )


def test_integer_fields_never_raise(tmp_path):
    # every run ends in an exit code (argparse's SystemExit counted, as
    # run_case does), never in an exception or in Python's own message
    # about long integers; the bound keeps sample counts, artal degrees and
    # words small
    @settings(max_examples=150, deadline=None)
    @given(_argvs(), _DRAWN)
    def check(argv, drawn):
        (tmp_path / "drawn.txt").write_text(drawn, encoding="utf-8")
        code, out, err = run_case(argv, {"ORBICURVE_MAX_COSETS": "64"}, tmp_path)
        assert code in (EXIT_OK, EXIT_DOMAIN_ERROR, EXIT_EXCEEDED, EXIT_VERIFY_FAILED), argv
        assert out.endswith("\n") or code == EXIT_DOMAIN_ERROR, argv
        assert "Traceback" not in err and "set_int_max_str_digits" not in err, argv

    check()
