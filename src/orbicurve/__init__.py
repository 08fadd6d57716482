"""orbicurve: exact computations with curve orbifold groups.

Invariants (Euler characteristic, kind, order, abelianization),
isomorphism and plane-curve realizability decisions, torsion-free cover
arithmetic, and brute-force certification oracles (Todd-Coxeter coset
enumeration, Smith normal form, exact wallpaper arithmetic from the
homology matrix, numeric hyperbolic triangle representations), and
word-map certificates that prove two presentations isomorphic by free
reduction alone.
"""

from .abelian import (
    AbelianGroup,
    IntMatrix,
    abelianization,
    abelianization_of_presentation,
    divisor_chain,
    smith_normal_form,
)
from .cosets import (
    CosetTable,
    Exceeded,
    PermutationImages,
    coset_enumeration,
    group_order,
    permutation_group_order,
    verify_homomorphism,
)
from .covers import (
    CoverReport,
    KernelCheck,
    lcm_cover_for_free_product,
    projective_triangle_fixture,
    torsion_free_subgroup_rank,
    verify_torsion_free_kernel,
)
from .errors import (
    ArityMismatch,
    BadK,
    BadParameters,
    LcmNotDividing,
    MalformedSignature,
    NonIntegralRank,
    NotHyperbolic,
    NotOpenGroup,
    OrbicurveError,
    UnknownExample,
    UnknownGenerator,
    UnsupportedKind,
)
from .fixtures import (
    ExampleReport,
    NamedExample,
    TriangleRep,
    check_triangle_rep,
    example_presentation,
    quotient_by_relators,
    triangle_representation,
    verify_example,
)
from .isomorphism import IsoVerdict, decide_isomorphism
from .presentations import (
    FinitePresentation,
    WordMaps,
    check_word_maps,
    parse_presentation,
    presentation_of,
)
from .serre import SerreVerdict, plane_curve_realizability
from .signature import (
    INFINITE,
    Kind,
    KindName,
    NinfStatus,
    NinfVerdict,
    OrbSignature,
    classify_kind,
    euler_characteristic,
    finite_order,
    is_finite_cyclic,
    satisfies_ninf,
)
from .wallpaper import (
    TorusPoint,
    WallpaperReport,
    apply_pibar,
    apply_sigma,
    fixed_point_set,
    h_matrix,
    run_wallpaper_suite,
    surface_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
