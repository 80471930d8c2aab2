"""Exact classifier for finite generation of symbolic Rees rings of
space monomial primes p(a, b, c) in characteristic 0."""

__version__ = "0.1.0"

from .presentation import (  # noqa: F401
    AssumptionReport,
    CurveTriple,
    HerzogPresentation,
    NotCoprimeError,
    NotThreeGeneratedError,
    compute_presentation,
    validate_assumptions,
)
from .lattice import (  # noqa: F401
    DeltaRegion,
    LatticePoint,
    column_counts,
    compute_nm,
)
from .criteria import (  # noqa: F401
    EuReport,
    GkClause,
    GkReport,
    check_eu,
    check_gk,
)
from .witness import (  # noqa: F401
    Verdict,
    WitnessElement,
    classify,
    piece_dimension,
    shift_membership_test,
)
from .polynomials import (  # noqa: F401
    FamilyParams,
    FamilyRejectionError,
    SparsePoly,
    build_generators,
    check_minor_relations,
    curve_substitution_zero,
    generate_family,
    staircase_length,
    verify_family_report,
)
from .scan import ScanJob, run_scan  # noqa: F401
