"""Herzog presentation of the space monomial prime p(a, b, c).

For pairwise coprime (a, b, c) the defining ideal of the curve
(t^a, t^b, t^c) is generated by at most three binomials

    x^s - y^t1 z^u1,   y^t - x^s2 z^u2,   z^u - x^s3 y^t3,

where s, t, u are the least multiples of a, b, c lying in the numerical
semigroup spanned by the other two weights.  This module computes those
exponents and checks the hypotheses under which the classifier operates:
pairwise coprimality, minimal generation by three elements, and the
negative-curve inequality u^2 c < ab, written once, in ``is_negative_curve``.

The presentation is built in one step from the minimal-j witnesses of
``_minimal_multiple``; ``compute_presentation`` proves that they are the
exponents.  Nothing is searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NotCoprimeError(ValueError):
    """Some pair among (a, b, c) shares a factor > 1."""


class NotThreeGeneratedError(ValueError):
    """The curve ideal is not minimally generated by three binomials."""


class InternalConsistencyError(AssertionError):
    """A proved implication or equivalence failed on a validated triple."""


@dataclass(frozen=True)
class CurveTriple:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c) < 1:
            raise ValueError(f"weights must be positive, got {self}")

    def pairwise_coprime(self) -> bool:
        return (
            math.gcd(self.a, self.b) == 1
            and math.gcd(self.a, self.c) == 1
            and math.gcd(self.b, self.c) == 1
        )


def _minimal_multiple(w: int, p: int, q: int) -> tuple[int, tuple[int, int]]:
    """Least k >= 1 with k*w in N0*p + N0*q, plus the minimal-j witness.

    The witness (i, j) solves k*w = i*p + j*q with the least j >= 0, which
    is k*w*q^{-1} mod p, advanced here by one addition per k.  For a
    three-generated triple it is the pair of exponents of the generator of
    degree k*w (see ``compute_presentation``).  Requires gcd(p, q) = 1.
    """
    # every integer beyond the Frobenius bound pq - p - q is representable
    cap = max(1, (p * q - p - q) // w + 1)
    step = (w * pow(q, -1, p)) % p if p > 1 else 0
    j = 0
    for k in range(1, cap + 1):
        j += step
        if j >= p:
            j -= p
        if j * q <= k * w:
            return k, ((k * w - j * q) // p, j)
    raise AssertionError(f"no multiple of {w} representable by ({p}, {q})")


@dataclass(frozen=True)
class HerzogPresentation:
    """Exponent datum of the three binomial generators.

    Its identities are checked on construction: all six exponents >= 1,
    s = s2 + s3, t = t1 + t3, u = u1 + u2, and the closed forms
    a = t*u - t3*u2, b = s*u - s3*u1, c = s*t - s2*t1, which imply the
    degree identities (both sides of s*a = t1*b + u1*c expand to
    s*(t1*u + t3*u1), and so on).  Only ``compute_presentation`` makes
    it the presentation of p(a, b, c): a datum built directly, such as a
    scaled member of the family in ``symrees.polynomials``, need not have
    pairwise coprime weights.
    """

    triple: CurveTriple
    s: int
    t: int
    u: int
    s2: int
    s3: int
    t1: int
    t3: int
    u1: int
    u2: int

    @property
    def a(self) -> int:
        return self.triple.a

    @property
    def b(self) -> int:
        return self.triple.b

    @property
    def c(self) -> int:
        return self.triple.c

    @property
    def deg_f(self) -> int:
        return self.s * self.a

    @property
    def deg_g(self) -> int:
        return self.t * self.b

    @property
    def deg_h(self) -> int:
        return self.u * self.c

    def __post_init__(self) -> None:
        if not self._consistent():
            raise ValueError(f"inconsistent presentation data: {self}")

    def _consistent(self) -> bool:
        a, b, c = self.triple.a, self.triple.b, self.triple.c
        return (
            min(self.s2, self.s3, self.t1, self.t3, self.u1, self.u2) >= 1
            and self.s == self.s2 + self.s3
            and self.t == self.t1 + self.t3
            and self.u == self.u1 + self.u2
            and a == self.t * self.u - self.t3 * self.u2
            and b == self.s * self.u - self.s3 * self.u1
            and c == self.s * self.t - self.s2 * self.t1
        )


def compute_presentation(triple: CurveTriple) -> HerzogPresentation:
    """Compute the minimal binomial exponents of p(a, b, c).

    Raises NotCoprimeError unless a, b, c are pairwise coprime and
    NotThreeGeneratedError when the ideal is a complete intersection, which
    for pairwise coprime weights happens exactly when s, t or u is 1.

    Otherwise the minimal-j witnesses of ``_minimal_multiple`` are the
    exponents.  By Herzog (1970) the ideal is then minimally generated by
    three binomials with all six exponents >= 1, where s = s2 + s3,
    t = t1 + t3, u = u1 + u2; so u1 < u.  The minimal-j witness (t1', u1')
    of s*a over (b, c) has u1' <= u1, and subtracting the two
    representations gives (u1 - u1')*c = (t1' - t1)*b, so b divides
    u1 - u1' (gcd(b, c) = 1).  Since b*c lies in N0*b, u <= b, and
    0 <= u1 - u1' < u <= b forces u1' = u1, t1' = t1.  The same argument
    with u2 < u <= a gives (s2, u2) from t*b over (a, c), and with t3 < t <= a
    gives (s3, t3) from u*c over (a, b).  ``HerzogPresentation`` re-checks
    every identity; a failure here would contradict the theorem and raises
    InternalConsistencyError.
    """
    if not triple.pairwise_coprime():
        raise NotCoprimeError(f"{triple} is not pairwise coprime")
    a, b, c = triple.a, triple.b, triple.c
    s, (t1, u1) = _minimal_multiple(a, b, c)
    if s < 2:
        raise NotThreeGeneratedError(f"{triple}: s = 1 (x - y^i z^j is a generator)")
    t, (s2, u2) = _minimal_multiple(b, a, c)
    if t < 2:
        raise NotThreeGeneratedError(f"{triple}: t = 1 (y - x^i z^j is a generator)")
    u, (s3, t3) = _minimal_multiple(c, a, b)
    if u < 2:
        raise NotThreeGeneratedError(f"{triple}: u = 1 (z - x^i y^j is a generator)")
    try:
        return HerzogPresentation(triple, s, t, u, s2, s3, t1, t3, u1, u2)
    except ValueError as exc:
        raise InternalConsistencyError(
            f"{triple}: the minimal-j witnesses are not a Herzog presentation"
        ) from exc


@dataclass(frozen=True)
class AssumptionReport:
    """Status of the three classifier hypotheses for one triple."""

    pairwise_coprime: bool
    three_generated: bool
    negative_curve_iii: bool

    @property
    def all_hold(self) -> bool:
        return self.pairwise_coprime and self.three_generated and self.negative_curve_iii


def is_negative_curve(degree: int, order: int, weights: tuple[int, int, int]) -> bool:
    """degree/order < sqrt(a*b*c), compared as degree^2 < order^2 * a*b*c.

    Strict; at degree u*c and order 1 it reads u^2 c < ab.
    """
    a, b, c = weights
    return degree * degree < order * order * a * b * c


def validate_assumptions(p: HerzogPresentation) -> AssumptionReport:
    return AssumptionReport(
        pairwise_coprime=p.triple.pairwise_coprime(),
        three_generated=True,
        negative_curve_iii=is_negative_curve(p.deg_h, 1, (p.a, p.b, p.c)),
    )
