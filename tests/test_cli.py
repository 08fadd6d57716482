import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import A4, PSL27
from orbicurve.cli import (
    EXIT_DOMAIN_ERROR,
    EXIT_EXCEEDED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    parse_signature,
    rational_str,
    run,
)
from fractions import Fraction

A4_PRESENTATION = """\
# the (2,3,3) triangle presentation
gens x1 x2 x3
rel x1^2
rel x2^3
rel x3^3
rel x3^-1 x2^-1 x1^-1
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = invoke(capsys, *argv)
    return code, json.loads(out)


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
    def test_hyperbolic_example(self, capsys):
        code, data = out_json(capsys, "chi", "--sig", '{"g":0,"r":0,"m":[2,3,7]}')
        assert code == EXIT_OK
        assert data == {"chi": "-1/42", "kind": "hyperbolic"}

    def test_zero_chi(self, capsys):
        code, data = out_json(capsys, "chi", "--sig", '{"g":1,"r":0,"m":[]}')
        assert data["chi"] == "0/1" and data["kind"] == "euclidean"

    def test_malformed_exits_1(self, capsys):
        code, out, err = invoke(capsys, "chi", "--sig", '{"g":0,"r":0,"m":[1,2]}')
        assert code == EXIT_DOMAIN_ERROR
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("sig", [
        '{"g": true, "r": false, "m": [2, 3, 7]}',
        '{"g": 0, "r": true, "m": [2, 3, 7]}',
        '{"g": 0, "r": 0, "m": [2, true, 7]}',
    ])
    def test_json_booleans_are_not_ints(self, capsys, sig):
        code, out, err = invoke(capsys, "chi", "--sig", sig)
        assert code == EXIT_DOMAIN_ERROR
        assert out == ""
        assert "must be ints" in err


class TestOrder:
    def test_infinite(self, capsys):
        code, data = out_json(capsys, "order", "--sig", '{"g":1,"r":0,"m":[]}')
        assert code == EXIT_OK and data == {"order": "infinite"}

    def test_finite(self, capsys):
        code, data = out_json(capsys, "order", "--sig", '{"g":0,"r":1,"m":[9]}')
        assert data == {"order": 9}


class TestKind:
    def test_fields(self, capsys):
        code, data = out_json(capsys, "kind", "--sig", '{"g":0,"r":0,"m":[2,2,5]}')
        assert data["kind"] == "spherical"
        assert data["finite"] is True and data["order"] == 10
        assert data["ninf"] == "satisfies"

    def test_ninf_witness(self, capsys):
        code, data = out_json(capsys, "kind", "--sig", '{"g":1,"r":0,"m":[]}')
        assert data["ninf"] == "fails" and "normal" in data["ninf_witness"]


class TestAbelianize:
    def test_from_signature(self, capsys):
        code, data = out_json(capsys, "abelianize", "--sig", '{"g":0,"r":0,"m":[2,4,4]}')
        assert data == {"rank": 0, "torsion": [2, 4]}

    def test_from_presentation_file(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("gens x\nrel x^3\n")
        code, data = out_json(capsys, "abelianize", "--presentation", str(path))
        assert data == {"rank": 0, "torsion": [3]}

    def test_requires_an_input(self, capsys):
        code, out, err = invoke(capsys, "abelianize")
        assert code == EXIT_DOMAIN_ERROR

    def test_presentation_directory_exits_1(self, capsys, tmp_path):
        # an OSError other than FileNotFoundError is a domain error too
        code, out, err = invoke(capsys, "abelianize", "--presentation", str(tmp_path))
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_sig_and_presentation_conflict_exits_1(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("gens x\nrel x^3\n")
        code, out, err = invoke(capsys, "abelianize", "--sig", '{"g":0,"r":0,"m":[2,4,4]}',
                                "--presentation", str(path))
        assert code == EXIT_DOMAIN_ERROR
        assert out == ""
        assert err.startswith("error:") and "not both" in err


class TestIso:
    def test_isomorphic_free_groups(self, capsys):
        code, data = out_json(
            capsys, "iso", "--a", '{"g":0,"r":3,"m":[]}', "--b", '{"g":1,"r":1,"m":[]}'
        )
        assert data["isomorphic"] is True
        assert data["reason"] == "open_invariants_equal"

    def test_mismatch_carries_detail(self, capsys):
        code, data = out_json(
            capsys, "iso", "--a", '{"g":0,"r":0,"m":[2,3,7]}',
            "--b", '{"g":0,"r":0,"m":[2,3,8]}'
        )
        assert data["isomorphic"] is False
        assert data["reason"] == "invariant_mismatch" and data["detail"] == "m"


class TestSerre:
    def test_open_problem_cell(self, capsys):
        code, data = out_json(capsys, "serre", "--sig", '{"g":0,"r":0,"m":[2,3,12]}')
        assert data == {
            "degree": 6, "rule": "hyperbolic_triangle_open", "verdict": "open"
        }

    def test_realizable_null_degree(self, capsys):
        code, data = out_json(capsys, "serre", "--sig", '{"g":1,"r":0,"m":[]}')
        assert data["verdict"] == "realizable" and data["degree"] is None


class TestCover:
    def test_index(self, capsys):
        code, data = out_json(
            capsys, "cover", "--sig", '{"g":0,"r":1,"m":[2,3]}', "--index", "6"
        )
        assert data == {"compact": False, "d": 6, "rho": 2}

    def test_lcm(self, capsys):
        code, data = out_json(capsys, "cover", "--sig", '{"g":0,"r":3,"m":[2,2]}', "--lcm")
        assert data == {"compact": False, "d": 2, "rho": 5}

    def test_bad_index_exits_1(self, capsys):
        code, out, err = invoke(
            capsys, "cover", "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--index", "100"
        )
        assert code == EXIT_DOMAIN_ERROR

    def test_index_and_lcm_conflict_exits_1(self, capsys):
        code, out, err = invoke(
            capsys, "cover", "--sig", '{"g":0,"r":3,"m":[2,2]}', "--index", "6", "--lcm"
        )
        assert code == EXIT_DOMAIN_ERROR
        assert out == ""
        assert err.startswith("error:") and "not both" in err

    @pytest.mark.parametrize("mode", [("--index", "6"), ("--lcm",)])
    def test_missing_sig_exits_1(self, capsys, mode):
        code, out, err = invoke(capsys, "cover", *mode)
        assert code == EXIT_DOMAIN_ERROR
        assert out == ""
        assert err == "error: cover needs --sig\n"

    @staticmethod
    def fixture_file(tmp_path):
        from orbicurve import projective_triangle_fixture
        from orbicurve.cosets import format_cycles

        fixture = projective_triangle_fixture()
        lines = ["degree 8"]
        for name, image in zip(("x1", "x2", "x3"), fixture.images):
            lines.append(f"{name} = {format_cycles(image)}")
        path = tmp_path / "perms.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_verify_fixture(self, capsys, tmp_path):
        code, data = out_json(
            capsys, "cover", "verify",
            "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--perms", self.fixture_file(tmp_path)
        )
        assert code == EXIT_OK
        assert data == {"index": 168, "verdict": "torsion_free_kernel"}

    def test_verify_cycles_separated_by_whitespace(self, capsys, tmp_path):
        path = Path(self.fixture_file(tmp_path))
        path.write_text(path.read_text().replace(")(", ") \t("))
        code, data = out_json(
            capsys, "cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--perms", str(path)
        )
        assert code == EXIT_OK
        assert data == {"index": 168, "verdict": "torsion_free_kernel"}

    def test_verify_exceeded_exits_2(self, capsys, tmp_path):
        # (1 2) and a 200-cycle generate the symmetric group of degree 200;
        # the cap trips on a lower bound of its order, before memory grows
        from orbicurve.cosets import format_cycles, perm_inverse, perm_mul

        x1 = (1, 0) + tuple(range(2, 200))
        y1 = tuple(range(1, 200)) + (0,)
        y2 = perm_inverse(perm_mul(x1, y1))
        path = tmp_path / "perms.txt"
        path.write_text("degree 200\n" + "".join(
            f"{name} = {format_cycles(p)}\n" for name, p in (("x1", x1), ("y1", y1), ("y2", y2))))
        code, out, _ = invoke(
            capsys, "cover", "verify",
            "--sig", '{"g":0,"r":2,"m":[2]}', "--perms", str(path)
        )
        assert code == EXIT_EXCEEDED
        assert out == '{"bound": 1000000, "exceeded": true}\n'

    def test_verify_failure_exits_3(self, capsys, tmp_path):
        path = tmp_path / "perms.txt"
        path.write_text("degree 8\nx1 = ()\nx2 = ()\nx3 = ()\n")
        code, data = out_json(
            capsys, "cover", "verify",
            "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--perms", str(path)
        )
        assert code == EXIT_VERIFY_FAILED
        assert data["verdict"] == "torsion_in_kernel" and data["generator"] == 1

    @pytest.mark.parametrize("text, duplicate", [
        ("degree 8\nx1 = (1,2)\nx2 = ()\nx3 = ()\nx1 = ()\n", "'x1' twice"),
        ("degree 8\ndegree 9\nx1 = ()\nx2 = ()\nx3 = ()\n", "more than one degree line"),
    ], ids=["generator-twice", "degree-twice"])
    def test_verify_duplicate_line_exits_1(self, capsys, tmp_path, text, duplicate):
        path = tmp_path / "perms.txt"
        path.write_text(text)
        code, out, err = invoke(
            capsys, "cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--perms", str(path)
        )
        assert code == EXIT_DOMAIN_ERROR
        assert out == ""
        assert err.startswith("error:") and duplicate in err

    def test_verify_zero_cap_exits_1(self, capsys, tmp_path):
        # a zero cap is refused, not replaced by the default
        code, out, err = invoke(
            capsys, "cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}',
            "--perms", self.fixture_file(tmp_path), "--cap", "0"
        )
        assert code == EXIT_DOMAIN_ERROR
        assert out == ""
        assert "cap must be >= 1" in err

    @pytest.mark.parametrize("cap", [["--cap", "0"], ["--cap", "-5"], []])
    def test_verify_bad_cap_refused_before_any_verdict(self, capsys, tmp_path, monkeypatch,
                                                       cap):
        # x3 = (1 2) breaks x1 x2 x3 = 1, so a verdict computed before the
        # cap check would be not_homomorphism, exit 3
        message = "cap must be >= 1"
        if not cap:
            monkeypatch.setenv("ORBICURVE_MAX_COSETS", "0")
            message = "ORBICURVE_MAX_COSETS must be an integer >= 1, got '0'"
        path = tmp_path / "perms.txt"
        path.write_text("degree 8\nx1 = ()\nx2 = ()\nx3 = (1,2)\n")
        code, out, err = invoke(
            capsys, "cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}',
            "--perms", str(path), *cap
        )
        assert (code, out, err) == (EXIT_DOMAIN_ERROR, "", f"error: {message}\n")

    @pytest.mark.parametrize("degree", [0, -3])
    def test_verify_nonpositive_degree_exits_1(self, capsys, tmp_path, degree):
        # identity cycles of a degree <= 0 used to be read as permutations
        # and reach the torsion_in_kernel verdict
        path = tmp_path / "perms.txt"
        path.write_text(f"degree {degree}\nx1 = ()\nx2 = ()\nx3 = ()\n")
        code, out, err = invoke(
            capsys, "cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--perms", str(path)
        )
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert err == f"error: degree must be >= 1, got {degree}\n"

    @pytest.mark.parametrize("text", ["degree 11\nx1 = ()\nx2 = ()\nx3 = ()\n",
                                      "x1 = (1 11)\nx2 = ()\nx3 = ()\n"],
                             ids=["stated", "inferred"])
    def test_verify_degree_above_bound_exit_2(self, capsys, tmp_path, monkeypatch, text):
        # a permutation of degree N is built as N points, so N is work taken
        # from the input and is refused past the work bound, whatever the cap
        monkeypatch.setenv("ORBICURVE_MAX_COSETS", "10")
        path = tmp_path / "perms.txt"
        argv = ("cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--perms", str(path),
                "--cap", "1000")
        path.write_text(text)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (EXIT_EXCEEDED, '{"bound": 10, "exceeded": true}\n')
        assert err == "permutation degree 11 exceeds bound 10\n"
        # degree 10 is within the bound and reaches a verdict
        path.write_text(text.replace("11", "10"))
        code, out, _ = invoke(capsys, *argv)
        assert code == EXIT_VERIFY_FAILED
        assert "exceeded" not in out

    @pytest.mark.parametrize("line, message", [
        ("z = (1 2)",
         "permutation file assigns 'z', which is not one of the generators x1 x2 x3"),
        ("x1 (1 2)", "expected 'degree N' or 'name = cycles', got 'x1 (1 2)'"),
        ("degree", "expected 'degree N' or 'name = cycles', got 'degree'"),
        ("degree 8 99", "expected 'degree N' or 'name = cycles', got 'degree 8 99'"),
    ], ids=["unknown-generator", "no-equals", "degree-without-number", "degree-two-numbers"])
    def test_verify_unusable_line_exits_1(self, capsys, tmp_path, line, message):
        # each of these used to be skipped, and the fixture certified (exit 0)
        path = self.fixture_file(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        code, out, err = invoke(
            capsys, "cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--perms", path
        )
        assert (code, out, err) == (EXIT_DOMAIN_ERROR, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("degree 8\nx1 = (1 8) x (2 7)(3 4)(5 6)\nx2 = ()\nx3 = ()\n",
         "bad cycle notation: '(1 8) x (2 7)(3 4)(5 6)'"),
        ("x1 = (1 8) x (2 7)(3 4)(5 6)\nx2 = ()\nx3 = ()\n",
         "bad cycle notation: '(1 8) x (2 7)(3 4)(5 6)'"),
        ("degree 8\nx1 = (1 2.5)\nx2 = ()\nx3 = ()\n", "bad cycle notation: '(1 2.5)'"),
        ("x1 = (1 2.5)\nx2 = ()\nx3 = ()\n", "bad cycle notation: '(1 2.5)'"),
        ("degree eight\nx1 = ()\nx2 = ()\nx3 = ()\n", "bad degree line: 'degree eight'"),
        ("degree 8\nx1 = (1 -2)\nx2 = ()\nx3 = ()\n", "point out of range in '(1 -2)'"),
        ("x1 = (1 -2)\nx2 = ()\nx3 = ()\n", "point out of range in '(1 -2)'"),
    ], ids=["stray-token", "stray-token-inferred", "fractional", "fractional-inferred",
            "degree-word", "negative", "negative-inferred"])
    def test_verify_bad_token_exits_1(self, capsys, tmp_path, text, message):
        # a token that int() rejects used to escape as int()'s own message;
        # one that it accepts meets the point checks, whether or not the
        # degree is inferred
        path = tmp_path / "perms.txt"
        path.write_text(text)
        code, out, err = invoke(
            capsys, "cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--perms", str(path)
        )
        assert (code, out, err) == (EXIT_DOMAIN_ERROR, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("cover", "--format", "text", "verify"),
        ("cover", "verify", "--format", "text"),
    ], ids=["format-first", "format-last"])
    def test_verify_text_format_in_either_position(self, capsys, tmp_path, argv):
        code, out, err = invoke(
            capsys, *argv, "--sig", '{"g":0,"r":0,"m":[2,3,7]}',
            "--perms", self.fixture_file(tmp_path)
        )
        assert (code, out, err) == (EXIT_OK, "torsion_free_kernel, index 168\n", "")

    def test_verify_perms_directory_exits_1(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}',
            "--perms", str(tmp_path)
        )
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert err.startswith("error:") and err.count("\n") == 1


# <x, y | x^2, y^3, (xy)^4>, the (2,3,4) triangle group S_4
S4_PRESENTATION = "gens x y\nrel x^2\nrel y^3\nrel x y x y x y x y\n"
# the cosets of <x> in <x, y | x^2, y^3, (xy)^7, [x,y]^4>, a quotient of
# the (2,3,7) triangle group of order 168
Q237_X_PRESENTATION = (
    "gens x y\nrel x^2\nrel y^3\nrel " + " ".join(["x y"] * 7)
    + "\nrel " + " ".join(["x^-1 y^-1 x y"] * 4) + "\nsub x\n"
)
S4_TABLE_GOLDEN = (
    '{"complete": true, "cosets": 24, "generators": ["x", "y"], "permutations": {"x": "(1 2)'
    '(3 11)(4 9)(5 6)(7 8)(10 14)(12 13)(15 16)(17 18)(19 22)(20 21)(23 24)'
    '", "y": "(1 3 4)(2 5 10)(6 7 19)(8 9 15)(11 12 18)(13 14 20)(16 17 24)'
    '(21 22 23)"}}\n'
)
Q237_X_TABLE_GOLDEN = (
    '{"complete": true, "cosets": 84, "generators": ["x", "y"], "permutations": {"x": "(2 4)'
    '(3 13)(5 6)(7 8)(9 10)(11 12)(14 15)(16 17)(19 20)(21 22)(24 25)(26 27)(28 29)'
    '(30 31)(32 33)(34 35)(36 37)(38 39)(40 41)(42 43)(44 45)(46 47)(48 49)(50 51)'
    '(52 53)(54 55)(56 57)(58 59)(60 61)(62 63)(64 65)(66 67)(68 69)(70 71)(72 73)'
    '(74 75)(76 77)(78 79)(80 81)(82 83)", "y": "(1 2 3)(4 5 19)(6 7 37)(8 9 44)'
    '(10 11 30)(12 13 14)(15 24 16)(17 18 73)(20 21 29)(22 38 23)(25 26 66)'
    '(27 28 51)(31 58 32)(33 34 52)(35 43 36)(39 40 83)(41 42 63)(45 46 57)'
    '(47 64 48)(49 50 81)(53 54 65)(55 56 69)(59 70 60)(61 62 84)(67 68 77)'
    '(71 72 74)(75 76 78)(79 80 82)"}}\n'
)


class TestToddCoxeter:
    def test_presentation_directory_exits_1(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "todd-coxeter", "--presentation", str(tmp_path))
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_completes(self, capsys, tmp_path):
        path = tmp_path / "a4.txt"
        path.write_text(A4_PRESENTATION)
        code, data = out_json(capsys, "todd-coxeter", "--presentation", str(path))
        assert code == EXIT_OK
        assert data == {"complete": True, "cosets": 12}

    def test_exceeded_exits_2(self, capsys, tmp_path):
        path = tmp_path / "a4.txt"
        path.write_text(A4_PRESENTATION)
        code, data = out_json(
            capsys, "todd-coxeter", "--presentation", str(path), "--max-cosets", "10"
        )
        assert code == EXIT_EXCEEDED
        assert data == {"bound": 10, "exceeded": True}

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_nonpositive_bound_exits_1(self, capsys, tmp_path, bound):
        # 0 is refused like any bound below 1, not replaced by the default
        path = tmp_path / "a4.txt"
        path.write_text(A4_PRESENTATION)
        code, out, err = invoke(
            capsys, "todd-coxeter", "--presentation", str(path), "--max-cosets", bound
        )
        assert code == EXIT_DOMAIN_ERROR
        assert out == ""
        assert "max_cosets must be >= 1" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5", "1e3"])
    def test_invalid_env_bound_exits_1(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv("ORBICURVE_MAX_COSETS", value)
        path = tmp_path / "a4.txt"
        path.write_text(A4_PRESENTATION)
        code, out, err = invoke(capsys, "todd-coxeter", "--presentation", str(path))
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert err == f"error: ORBICURVE_MAX_COSETS must be an integer >= 1, got {value!r}\n"
        # an explicit bound does not read the variable
        code, _, _ = invoke(capsys, "todd-coxeter", "--presentation", str(path),
                            "--max-cosets", "100")
        assert code == EXIT_OK

    def test_env_bound_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ORBICURVE_MAX_COSETS", "10")
        path = tmp_path / "a4.txt"
        path.write_text(A4_PRESENTATION)
        code, _, _ = invoke(capsys, "todd-coxeter", "--presentation", str(path))
        assert code == EXIT_EXCEEDED

    def test_subgroup_lines(self, capsys, tmp_path):
        path = tmp_path / "sub.txt"
        path.write_text(A4_PRESENTATION + "sub x1\n")
        code, data = out_json(capsys, "todd-coxeter", "--presentation", str(path))
        assert data["cosets"] == 6

    def test_missing_file_exits_1(self, capsys):
        code, _, err = invoke(capsys, "todd-coxeter", "--presentation", "/nonexistent")
        assert code == EXIT_DOMAIN_ERROR

    # exact stdout of `todd-coxeter --table`: the permutations spell out the
    # coset numbering, which enumeration must keep from release to release
    @pytest.mark.parametrize("text, stdout", [
        (S4_PRESENTATION, S4_TABLE_GOLDEN),
        (Q237_X_PRESENTATION, Q237_X_TABLE_GOLDEN),
    ])
    def test_table_golden_output(self, capsys, tmp_path, text, stdout):
        path = tmp_path / "p.txt"
        path.write_text(text)
        code, out, _ = invoke(capsys, "todd-coxeter", "--presentation", str(path), "--table")
        assert code == EXIT_OK
        assert out == stdout


class TestVerify:
    def test_wallpaper_pass(self, capsys):
        code, data = out_json(
            capsys, "verify", "wallpaper", "--k", "2", "--samples", "5", "--seed", "42"
        )
        assert code == EXIT_OK
        assert data["pass"] is True
        assert {c["name"] for c in data["checks"]} >= {"sigma_order", "image_on_surface"}

    def test_wallpaper_samples_above_bound_exit_2(self, capsys, monkeypatch):
        # the sample count is work taken from the command line, so it is
        # refused past the same bound as cosets and group orders
        monkeypatch.setenv("ORBICURVE_MAX_COSETS", "10")
        argv = ("verify", "wallpaper", "--k", "6", "--seed", "42", "--samples")
        code, out, err = invoke(capsys, *argv, "11")
        assert code == EXIT_EXCEEDED
        assert out == '{"bound": 10, "exceeded": true}\n'
        assert "sample count 11 exceeds bound 10" in err
        code, data = out_json(capsys, *argv, "10")
        assert code == EXIT_OK and data["samples"] == 10

    def test_example_report(self, capsys):
        code, data = out_json(capsys, "verify", "example", "--name", "quartic-b3p1")
        assert code == EXIT_OK and data["pass"] is True

    @pytest.mark.parametrize("argv", [
        ("verify", "--format", "text", "example", "--name", "quartic-b3p1"),
        ("verify", "example", "--format", "text", "--name", "quartic-b3p1"),
        ("verify", "--format", "text", "wallpaper", "--k", "2", "--samples", "3", "--seed", "5"),
        ("verify", "wallpaper", "--k", "2", "--samples", "3", "--seed", "5", "--format", "text"),
    ], ids=["example-format-first", "example-format-last", "wallpaper-format-first",
            "wallpaper-format-last"])
    def test_text_format_in_either_position(self, capsys, argv):
        # a --format before the suite name used to be reset to json by the suite's parser
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.split("\n")[0] in ("quartic-b3p1: PASS", "k=2: PASS")

    def test_unknown_example_exits_1(self, capsys):
        code, _, err = invoke(capsys, "verify", "example", "--name", "nope")
        assert code == EXIT_DOMAIN_ERROR

    def test_artal_degree_above_bound_exit_2(self, capsys, monkeypatch):
        # artal's words grow linearly in d: a d past the bound is refused
        # before anything is built, whether or not (d, a, b) is valid
        monkeypatch.setenv("ORBICURVE_MAX_COSETS", "13")
        for name in ("artal(14,6,6)", "artal(14,1,1)", f"artal( {10**400} , 1, 1 )"):
            code, out, err = invoke(capsys, "verify", "example", "--name", name)
            assert (code, out) == (EXIT_EXCEEDED, '{"bound": 13, "exceeded": true}\n'), name
            assert err.startswith("artal degree ") and err.endswith(" exceeds bound 13\n")
        code, data = out_json(capsys, "verify", "example", "--name", "artal(13,6,5)")
        assert code == EXIT_OK and data["name"] == "artal(13,6,5)"
        code, _, err = invoke(capsys, "verify", "example", "--name", "artal(13,6,6)")
        assert code == EXIT_DOMAIN_ERROR and err.startswith("error: need d > 3")


# exact stdout of `verify wallpaper --samples 7 --seed 11`: check names, details
# and key order are part of the CLI's output contract
WALLPAPER_GOLDEN = {
    (2, 'json'): (
        '{"checks": [{"detail": "sigma^2 = id on 7 samples", '
        '"name": "sigma_order", "pass": true}, '
        '{"detail": "7 orbits", '
        '"name": "pibar_invariance", "pass": true}, '
        '{"detail": "7 exact residuals = 0", '
        '"name": "image_on_surface", "pass": true}, '
        '{"detail": "7 free orbits", '
        '"name": "generic_points_free", "pass": true}, '
        '{"detail": "no sample hits the image of (1,1)", '
        '"name": "total_ramification_spot", "pass": true}, '
        '{"detail": "4 points", '
        '"name": "fixed_points_fixed", "pass": true}, '
        '{"detail": "order 2", '
        '"name": "h_matrix_order", "pass": true}], '
        '"k": 2, "pass": true, "samples": 7, "seed": 11}\n'
    ),
    (2, 'text'): (
        'k=2: PASS\n'
        '  ok  sigma_order: sigma^2 = id on 7 samples\n'
        '  ok  pibar_invariance: 7 orbits\n'
        '  ok  image_on_surface: 7 exact residuals = 0\n'
        '  ok  generic_points_free: 7 free orbits\n'
        '  ok  total_ramification_spot: no sample hits the image of (1,1)\n'
        '  ok  fixed_points_fixed: 4 points\n'
        '  ok  h_matrix_order: order 2\n'
    ),
    (3, 'json'): (
        '{"checks": [{"detail": "sigma^3 = id on 7 samples", '
        '"name": "sigma_order", "pass": true}, '
        '{"detail": "7 orbits", '
        '"name": "pibar_invariance", "pass": true}, '
        '{"detail": "7 exact residuals = 0", '
        '"name": "image_on_surface", "pass": true}, '
        '{"detail": "7 free orbits", '
        '"name": "generic_points_free", "pass": true}, '
        '{"detail": "no sample hits the image of (1,1)", '
        '"name": "total_ramification_spot", "pass": true}, '
        '{"detail": "3 points", '
        '"name": "fixed_points_fixed", "pass": true}, '
        '{"detail": "order 3", '
        '"name": "h_matrix_order", "pass": true}], '
        '"k": 3, "pass": true, "samples": 7, "seed": 11}\n'
    ),
    (3, 'text'): (
        'k=3: PASS\n'
        '  ok  sigma_order: sigma^3 = id on 7 samples\n'
        '  ok  pibar_invariance: 7 orbits\n'
        '  ok  image_on_surface: 7 exact residuals = 0\n'
        '  ok  generic_points_free: 7 free orbits\n'
        '  ok  total_ramification_spot: no sample hits the image of (1,1)\n'
        '  ok  fixed_points_fixed: 3 points\n'
        '  ok  h_matrix_order: order 3\n'
    ),
    (4, 'json'): (
        '{"checks": [{"detail": "sigma^4 = id on 7 samples", '
        '"name": "sigma_order", "pass": true}, '
        '{"detail": "7 orbits", '
        '"name": "pibar_invariance", "pass": true}, '
        '{"detail": "7 exact residuals = 0", '
        '"name": "image_on_surface", "pass": true}, '
        '{"detail": "7 free orbits", '
        '"name": "generic_points_free", "pass": true}, '
        '{"detail": "no sample hits the image of (1,1)", '
        '"name": "total_ramification_spot", "pass": true}, '
        '{"detail": "4 points", '
        '"name": "fixed_points_fixed", "pass": true}, '
        '{"detail": "order 4", '
        '"name": "h_matrix_order", "pass": true}], '
        '"k": 4, "pass": true, "samples": 7, "seed": 11}\n'
    ),
    (4, 'text'): (
        'k=4: PASS\n'
        '  ok  sigma_order: sigma^4 = id on 7 samples\n'
        '  ok  pibar_invariance: 7 orbits\n'
        '  ok  image_on_surface: 7 exact residuals = 0\n'
        '  ok  generic_points_free: 7 free orbits\n'
        '  ok  total_ramification_spot: no sample hits the image of (1,1)\n'
        '  ok  fixed_points_fixed: 4 points\n'
        '  ok  h_matrix_order: order 4\n'
    ),
    (6, 'json'): (
        '{"checks": [{"detail": "sigma^6 = id on 7 samples", '
        '"name": "sigma_order", "pass": true}, '
        '{"detail": "7 orbits", '
        '"name": "pibar_invariance", "pass": true}, '
        '{"detail": "7 exact residuals = 0", '
        '"name": "image_on_surface", "pass": true}, '
        '{"detail": "7 free orbits", '
        '"name": "generic_points_free", "pass": true}, '
        '{"detail": "no sample hits the image of (1,1)", '
        '"name": "total_ramification_spot", "pass": true}, '
        '{"detail": "6 points", '
        '"name": "fixed_points_fixed", "pass": true}, '
        '{"detail": "order 6", '
        '"name": "h_matrix_order", "pass": true}], '
        '"k": 6, "pass": true, "samples": 7, "seed": 11}\n'
    ),
    (6, 'text'): (
        'k=6: PASS\n'
        '  ok  sigma_order: sigma^6 = id on 7 samples\n'
        '  ok  pibar_invariance: 7 orbits\n'
        '  ok  image_on_surface: 7 exact residuals = 0\n'
        '  ok  generic_points_free: 7 free orbits\n'
        '  ok  total_ramification_spot: no sample hits the image of (1,1)\n'
        '  ok  fixed_points_fixed: 6 points\n'
        '  ok  h_matrix_order: order 6\n'
    ),
}


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_wallpaper_golden_output(capsys, k, fmt):
    code, out, _ = invoke(
        capsys, "verify", "wallpaper", "--k", str(k), "--samples", "7", "--seed", "11",
        "--format", fmt,
    )
    assert code == EXIT_OK
    assert out == WALLPAPER_GOLDEN[k, fmt]


class TestTriangleRep:
    def test_pass(self, capsys):
        code, data = out_json(capsys, "triangle-rep", "--m", "2,3,7")
        assert code == EXIT_OK and data["pass"] is True
        assert len(data["matrices"]) == 3

    def test_huge_order_not_certified(self, capsys):
        # the tolerance cannot separate pi/m from pi/(m+1), so it cannot certify m
        code, data = out_json(capsys, "triangle-rep", "--m", "2,3,1000000000")
        assert code == EXIT_VERIFY_FAILED and data["pass"] is False
        assert data["order_resolutions"][2] < 1e-9

    def test_default_tolerance_follows_the_orders(self, capsys):
        # 1e-9 cannot separate pi/99058 from pi/99059; the derived default can
        code, data = out_json(capsys, "triangle-rep", "--m", "2,3,99058")
        assert code == EXIT_OK and data["pass"] is True
        code, _ = out_json(capsys, "triangle-rep", "--m", "2,3,99058", "--tol", "1e-9")
        assert code == EXIT_VERIFY_FAILED

    def test_large_order_certified_at_finer_tolerance(self, capsys):
        code, data = out_json(capsys, "triangle-rep", "--m", "2,3,100000", "--tol", "1e-11")
        assert code == EXIT_OK and data["pass"] is True

    def test_not_hyperbolic_exits_1(self, capsys):
        code, _, err = invoke(capsys, "triangle-rep", "--m", "2,3,6")
        assert code == EXIT_DOMAIN_ERROR

    @pytest.mark.parametrize("m", [2**53 + 1, 10**160, 10**400])
    def test_order_above_float_precision_exits_1(self, capsys, m):
        # above 2^53, m and m + 1 are one float: refused, with no traceback
        code, out, err = invoke(capsys, "triangle-rep", "--m", f"{m},3,2")
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert err == f"error: multiplicities must be <= 2^53, got ({m}, 3, 2)\n"

    def test_order_two_to_the_53_still_runs(self, capsys):
        code, data = out_json(capsys, "triangle-rep", "--m", f"2,3,{2**53}")
        assert code == EXIT_VERIFY_FAILED and data["m"] == [2, 3, 2**53]

    @pytest.mark.parametrize(
        "flag, name", [("--tol", "tolerance"), ("--reject-margin", "reject margin")]
    )
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_tolerance_or_margin_exits_1(self, capsys, flag, name, value):
        # usage errors, not a FAIL verdict (exit 3) or, for a negative
        # margin, a PASS with the premature-closure check turned off
        code, out, err = invoke(capsys, "triangle-rep", "--m", "2,3,7", flag, value)
        assert code == EXIT_DOMAIN_ERROR and out == ""
        assert err.startswith(f"error: {name} must be finite and >= 0")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("chi", "--sig", '{"g":0,"r":0,"m":[2,3,7]}'),
            ("verify", "wallpaper", "--k", "3", "--samples", "4", "--seed", "11"),
            ("serre", "--sig", '{"g":0,"r":0,"m":[2,3,12]}'),
        ],
    )
    def test_byte_identical_outputs(self, capsys, argv):
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2


class TestTextMode:
    def test_chi_text(self, capsys):
        code, out, _ = invoke(
            capsys, "chi", "--sig", '{"g":0,"r":0,"m":[2,3,7]}', "--format", "text"
        )
        assert code == EXIT_OK
        assert "-1/42" in out and "hyperbolic" in out


class TestUsageErrors:
    def test_unknown_flag_is_domain_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["chi", "--bogus"])
        assert exc.value.code == EXIT_DOMAIN_ERROR
        capsys.readouterr()

    def test_bad_index_value(self, capsys):
        code, _, err = invoke(
            capsys, "cover", "--sig", '{"g":0,"r":1,"m":[2]}', "--index", "0"
        )
        assert code == EXIT_DOMAIN_ERROR


# ---------------------------------------------------------------------------
# no integer an option takes makes `run` raise


_INTS = st.one_of(st.integers(-1, 16), st.integers(-1, 10**400))
_SIGS = st.builds(lambda g, r, m: json.dumps({"g": g, "r": r, "m": m}),
                  _INTS, _INTS, st.lists(_INTS, max_size=3))


def _argvs(a4, psl27):
    n = _INTS.map(str)
    return st.one_of(
        # "--m=", since argparse reads "-1,2,3" after a space as an option
        st.lists(n, min_size=3, max_size=3).map(lambda m: ["triangle-rep", "--m=" + ",".join(m)]),
        st.tuples(n, n, n).map(lambda d: ["verify", "example", "--name", f"artal({','.join(d)})"]),
        st.tuples(_SIGS, n).map(lambda a: ["cover", "--sig", a[0], "--index", a[1]]),
        _SIGS.map(lambda sig: ["cover", "--sig", sig, "--lcm"]),
        n.map(lambda cap: ["cover", "verify", "--sig", '{"g":0,"r":0,"m":[2,3,7]}',
                           "--perms", psl27, "--cap", cap]),
        st.tuples(n, n, n).map(lambda a: ["verify", "wallpaper", "--k", a[0], "--samples", a[1],
                                          "--seed", a[2]]),
        n.map(lambda bound: ["todd-coxeter", "--presentation", a4, "--max-cosets", bound]),
        st.tuples(st.sampled_from(["chi", "kind", "order", "serre", "abelianize"]), _SIGS).map(
            lambda a: [a[0], "--sig", a[1]]),
        st.tuples(_SIGS, _SIGS).map(lambda a: ["iso", "--a", a[0], "--b", a[1]]),
    )


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-files")
    (directory / "a4.txt").write_text(A4, encoding="utf-8")
    (directory / "psl27.txt").write_text(PSL27, encoding="utf-8")
    return str(directory / "a4.txt"), str(directory / "psl27.txt")


def test_integer_fields_never_raise(cli_files):
    # integers from -1 to 10^400 in every integer field: each run ends in
    # an exit code, never in an exception; the bound keeps sample counts
    # and artal degrees small
    @settings(max_examples=150, deadline=None)
    @given(_argvs(*cli_files))
    def check(argv):
        out = io.StringIO()
        with mock.patch.dict(os.environ, {"ORBICURVE_MAX_COSETS": "64"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        assert code in (EXIT_OK, EXIT_DOMAIN_ERROR, EXIT_EXCEEDED, EXIT_VERIFY_FAILED), argv
        assert out.getvalue().endswith("\n") or code == EXIT_DOMAIN_ERROR, argv

    check()
