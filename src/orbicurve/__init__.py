"""orbicurve: exact computations with curve orbifold groups.

Invariants (Euler characteristic, kind, order, abelianization),
isomorphism and plane-curve realizability decisions, torsion-free cover
arithmetic, and brute-force certification oracles (Todd-Coxeter coset
enumeration, Smith normal form, exact wallpaper arithmetic from the
homology matrix, numeric hyperbolic triangle representations), and
word-map certificates that prove two presentations isomorphic by free
reduction alone.

`import orbicurve` loads no submodule: each name below is imported from
its submodule on first use (PEP 562), so a process pays only for the
modules it touches.
"""

import importlib

# every exported name and the submodule that defines it; each submodule's
# own name is exported too
_SOURCE = {
    name: module
    for module, names in {
        "abelian": ("AbelianGroup", "IntMatrix", "abelianization",
                    "abelianization_of_presentation", "divisor_chain", "smith_normal_form"),
        "cosets": ("CosetTable", "Exceeded", "PermutationImages", "coset_enumeration",
                   "group_order", "permutation_group_order", "verify_homomorphism"),
        "covers": ("CoverReport", "KernelCheck", "lcm_cover_for_free_product",
                   "projective_triangle_fixture", "torsion_free_subgroup_rank",
                   "verify_torsion_free_kernel"),
        "errors": ("ArityMismatch", "BadK", "BadParameters", "LcmNotDividing",
                   "MalformedSignature", "NonIntegralRank", "NotHyperbolic", "NotOpenGroup",
                   "OrbicurveError", "UnknownExample", "UnknownGenerator", "UnsupportedKind"),
        "fixtures": ("ExampleReport", "NamedExample", "TriangleRep", "check_triangle_rep",
                     "example_presentation", "quotient_by_relators", "triangle_representation",
                     "verify_example"),
        "isomorphism": ("IsoVerdict", "decide_isomorphism"),
        "presentations": ("FinitePresentation", "WordMaps", "check_word_maps",
                          "parse_presentation", "presentation_of"),
        "serre": ("SerreVerdict", "plane_curve_realizability"),
        "signature": ("INFINITE", "Kind", "KindName", "NinfStatus", "NinfVerdict",
                      "OrbSignature", "classify_kind", "euler_characteristic", "finite_order",
                      "is_finite_cyclic", "satisfies_ninf"),
        "wallpaper": ("WallpaperReport", "fixed_point_set", "h_matrix", "run_wallpaper_suite",
                      "surface_residual"),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines `name`, and keep the value here so
    that the next access does not come back."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SOURCE[name]}", __name__)
    value = module if name == _SOURCE[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
