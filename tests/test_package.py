"""The package surface: every exported name, and which submodules a process
loads.  `import orbicurve` loads no submodule, and a CLI command loads only
the modules it runs."""

import json
import os
import subprocess
import sys

import pytest

import orbicurve
from cli_cases import PSL27

# the public names, by the submodule that defines them
EXPORTS = {
    "abelian": ("AbelianGroup", "IntMatrix", "abelianization", "abelianization_of_presentation",
                "divisor_chain", "smith_normal_form"),
    "cosets": ("CosetTable", "Exceeded", "PermutationImages", "coset_enumeration",
               "group_order", "permutation_group_order", "verify_homomorphism"),
    "covers": ("CoverReport", "KernelCheck", "lcm_cover_for_free_product",
               "projective_triangle_fixture", "torsion_free_subgroup_rank",
               "verify_torsion_free_kernel"),
    "errors": ("ArityMismatch", "BadK", "BadParameters", "LcmNotDividing", "MalformedSignature",
               "NonIntegralRank", "NotHyperbolic", "NotOpenGroup", "OrbicurveError",
               "UnknownExample", "UnknownGenerator", "UnsupportedKind"),
    "fixtures": ("ExampleReport", "NamedExample", "TriangleRep", "check_triangle_rep",
                 "example_presentation", "quotient_by_relators", "triangle_representation",
                 "verify_example"),
    "isomorphism": ("IsoVerdict", "decide_isomorphism"),
    "presentations": ("FinitePresentation", "WordMaps", "check_word_maps", "parse_presentation",
                      "presentation_of"),
    "serre": ("SerreVerdict", "plane_curve_realizability"),
    "signature": ("INFINITE", "Kind", "KindName", "NinfStatus", "NinfVerdict", "OrbSignature",
                  "classify_kind", "euler_characteristic", "finite_order", "is_finite_cyclic",
                  "satisfies_ninf"),
    "wallpaper": ("WallpaperReport", "fixed_point_set", "h_matrix", "run_wallpaper_suite",
                  "surface_residual"),
}


class TestPublicNames:
    def test_all_is_every_export_and_submodule(self):
        names = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
        assert len(names) == 74
        assert orbicurve.__all__ == sorted(names)

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_the_submodules_objects(self, module):
        sub = getattr(orbicurve, module)
        assert sub is sys.modules[f"orbicurve.{module}"]
        for name in EXPORTS[module]:
            assert getattr(orbicurve, name) is getattr(sub, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from orbicurve import *", namespace)
        assert set(orbicurve.__all__) <= set(namespace)

    def test_dir_lists_every_name(self):
        listed = dir(orbicurve)
        assert "__all__" in listed and set(orbicurve.__all__) <= set(listed)

    def test_unknown_name_is_named(self):
        with pytest.raises(AttributeError, match="'orbicurve' has no attribute 'no_such_name'"):
            orbicurve.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            from orbicurve import no_such_name  # noqa: F401


# the orbicurve modules in sys.modules after a script, in a new interpreter
LOADED = """
import contextlib, io, json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "orbicurve")))
"""
RUN = """
from orbicurve import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(sys.argv[1:]) == 0
"""
BASE = ["orbicurve", "orbicurve.cli", "orbicurve.errors", "orbicurve.signature"]
SIG = '{"g": 0, "r": 0, "m": [2, 3, 7]}'
OPEN_SIG = '{"g": 0, "r": 1, "m": [2, 3]}'
# the Todd-Coxeter stack: enumeration, and the module it imports; `abelian`
# loads only when `group_order` reads an order in G^ab
COSETS = ["orbicurve.cosets", "orbicurve.presentations"]
# `fixtures` imports `abelian` for the named examples, `wallpaper` for `mat_mul`
FIXTURES = COSETS + ["orbicurve.abelian", "orbicurve.fixtures", "orbicurve.wallpaper"]


def _loaded(body: str, *argv: str, cwd=None) -> set[str]:
    src = os.path.dirname(os.path.dirname(orbicurve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", LOADED.format(body=body), *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return set(json.loads(done.stdout))


class TestModulesLoaded:
    def test_import_orbicurve_loads_no_submodule(self):
        assert _loaded("import orbicurve") == {"orbicurve"}

    @pytest.mark.parametrize("argv, extra", [
        (("chi", "--sig", SIG), []),
        (("kind", "--sig", SIG), []),
        (("order", "--sig", SIG), []),
        (("iso", "--a", SIG, "--b", SIG), ["orbicurve.isomorphism"]),
        (("serre", "--sig", SIG), ["orbicurve.serre"]),
        (("abelianize", "--presentation", "p.txt"),
         ["orbicurve.abelian", "orbicurve.presentations"]),
        (("verify", "wallpaper", "--k", "2", "--samples", "3", "--seed", "1"),
         ["orbicurve.wallpaper"]),
        (("verify", "example", "--name", "quartic-b3p1"), FIXTURES),
        (("cover", "--sig", OPEN_SIG, "--lcm"), COSETS + ["orbicurve.covers"]),
        (("cover", "--sig", OPEN_SIG, "--index", "6"), COSETS + ["orbicurve.covers"]),
        (("cover", "verify", "--sig", SIG, "--perms", "perms.txt"), COSETS + ["orbicurve.covers"]),
        (("todd-coxeter", "--presentation", "p.txt"), COSETS),
        (("triangle-rep", "--m", "2,3,7"), FIXTURES),
    ], ids=["chi", "kind", "order", "iso", "serre", "abelianize-presentation", "verify-wallpaper",
            "verify-example", "cover-lcm", "cover-index", "cover-verify", "todd-coxeter",
            "triangle-rep"])
    def test_command_loads_only_its_modules(self, tmp_path, argv, extra):
        # p.txt is the (2,3,3) triangle group, of order 12
        (tmp_path / "p.txt").write_text("gens x y\nrel x^2\nrel y^3\nrel x y x y x y\n",
                                        encoding="utf-8")
        (tmp_path / "perms.txt").write_text(PSL27, encoding="utf-8")
        assert _loaded(RUN, *argv, cwd=tmp_path) == set(BASE + extra)
