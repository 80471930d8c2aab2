import pytest

from symrees import CurveTriple, compute_presentation, validate_assumptions
from symrees.presentation import NotCoprimeError, NotThreeGeneratedError
from symrees.scan import ScanJob, iter_triples


def validated_presentations(bound):
    """All presentations with a, b, c <= bound satisfying the hypotheses."""
    out = []
    for a, b, c in iter_triples(ScanJob.upto(bound)):
        try:
            pres = compute_presentation(CurveTriple(a, b, c))
        except (NotCoprimeError, NotThreeGeneratedError):
            continue
        if validate_assumptions(pres).all_hold:
            out.append(pres)
    return out


@pytest.fixture(scope="session")
def validated_30():
    return validated_presentations(30)


@pytest.fixture(scope="session")
def validated_40():
    return validated_presentations(40)
