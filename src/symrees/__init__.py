"""Exact classifier for finite generation of symbolic Rees rings of
space monomial primes p(a, b, c) in characteristic 0.

The public names below are imported on first use, each from its own
submodule, so ``from symrees import CurveTriple, classify`` loads neither
the polynomial family checks nor the scan and its worker pool.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "presentation": "AssumptionReport CurveTriple HerzogPresentation NotCoprimeError "
        "NotThreeGeneratedError compute_presentation validate_assumptions",
        "lattice": "DeltaRegion LatticePoint column_counts compute_nm",
        "criteria": "EuReport GkClause GkReport check_eu check_gk",
        "witness": "Verdict WitnessElement classify piece_dimension shift_membership_test",
        "polynomials": "FamilyParams FamilyRejectionError SparsePoly build_generators "
        "check_minor_relations curve_substitution_zero generate_family staircase_length "
        "verify_family_report",
        "scan": "ScanJob run_scan",
    }.items()
    for name in names.split()
}
__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
