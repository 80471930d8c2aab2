"""Exact sparse polynomials in x, y, z and the order-two-negative-curve family.

Everything here works for any Herzog exponent datum (s2, s3, t1, t3, u1,
u2), not only for presentations of pairwise coprime triples: a scaled family
member has weights a = t3*u1 + t1*u, b = s3*u2 + s2*u, c = s2*t3 + s3*t that
may share factors.  Coefficients are exact (int or Fraction); there is no
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .presentation import CurveTriple, HerzogPresentation, is_negative_curve

Expt = tuple[int, int, int]
Staircase = tuple[tuple[int, int], ...]  # generators y^i z^j of a monomial ideal, as (i, j)


class NotDivisibleError(ArithmeticError):
    """Monomial division requested on a term it does not divide."""

    def __init__(self, term: Expt, mono: Expt):
        super().__init__(f"term x^{term[0]} y^{term[1]} z^{term[2]} not divisible by {mono}")
        self.term = term
        self.mono = mono


class HypothesisViolationError(ValueError):
    """Exponent data outside the range required by a construction."""


class SparsePoly:
    """Sparse exact polynomial in x, y, z.

    Terms map exponent triples to nonzero coefficients.  A polynomial
    carries no grading: the weights (a, b, c) are passed to
    ``weighted_degree`` and ``is_homogeneous``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Expt, int | Fraction] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def monomial(cls, coeff, ex: int, ey: int, ez: int) -> "SparsePoly":
        return cls({(ex, ey, ez): coeff})

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return SparsePoly(out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        out: dict[Expt, int | Fraction] = {}
        for (x1, y1, z1), c1 in self.terms.items():
            for (x2, y2, z2), c2 in other.terms.items():
                e = (x1 + x2, y1 + y2, z1 + z2)
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return SparsePoly(out)

    def __pow__(self, k: int) -> "SparsePoly":
        if k < 0:
            raise ValueError("negative power")
        out = SparsePoly({(0, 0, 0): 1})
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsePoly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "SparsePoly(0)"
        bits = [f"{c}*x^{e[0]}y^{e[1]}z^{e[2]}" for e, c in sorted(self.terms.items())]
        return "SparsePoly(" + " + ".join(bits) + ")"

    def divide_exact(self, mono: Expt) -> "SparsePoly":
        """Quotient by the monomial x^i y^j z^k; every term must be divisible."""
        mx, my, mz = mono
        out = {}
        for (ex, ey, ez), c in sorted(self.terms.items()):
            if ex < mx or ey < my or ez < mz:
                raise NotDivisibleError((ex, ey, ez), mono)
            out[(ex - mx, ey - my, ez - mz)] = c
        return SparsePoly(out)

    def slice_x0(self) -> dict[tuple[int, int], int | Fraction]:
        """The class mod (x): terms with x-exponent 0, keyed by (y, z) exponents."""
        return {(ey, ez): c for (ex, ey, ez), c in self.terms.items() if ex == 0}

    def _degrees(self, w: Expt) -> set[int]:
        return {ex * w[0] + ey * w[1] + ez * w[2] for ex, ey, ez in self.terms}

    def weighted_degree(self, weights: Expt) -> int:
        """Common weighted degree of all terms; raises if inhomogeneous."""
        degs = self._degrees(weights)
        if len(degs) != 1:
            raise ValueError(f"not weighted-homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def is_homogeneous(self, weights: Expt) -> bool:
        return len(self._degrees(weights)) <= 1


def curve_substitution_zero(poly: SparsePoly, weights: Expt) -> bool:
    """Does the polynomial vanish under x -> T^a, y -> T^b, z -> T^c?

    This is exact membership in the curve ideal for honest primes.  The
    substituted univariate polynomial has one coefficient per weighted
    degree of the input: the sum of the coefficients of the terms of that
    degree.  A nonzero scalar does not change whether it vanishes, so the
    coefficients are cleared of denominators once, by the lcm of all of
    them, and each degree sums integers, no Fraction added.
    """
    a, b, c = weights
    scale = math.lcm(*(coeff.denominator for coeff in poly.terms.values()))
    acc: dict[int, int] = {}
    for (ex, ey, ez), coeff in poly.terms.items():
        d = ex * a + ey * b + ez * c
        acc[d] = acc.get(d, 0) + coeff.numerator * (scale // coeff.denominator)
    return not any(acc.values())


def _x(k: int) -> SparsePoly:
    return SparsePoly({(k, 0, 0): 1})


def _y(k: int) -> SparsePoly:
    return SparsePoly({(0, k, 0): 1})


def _z(k: int) -> SparsePoly:
    return SparsePoly({(0, 0, k): 1})


def build_generators(p: HerzogPresentation) -> tuple[SparsePoly, SparsePoly, SparsePoly]:
    """The three binomials f = x^s - y^t1 z^u1, g = y^t - x^s2 z^u2, h = z^u - x^s3 y^t3."""
    f = SparsePoly({(p.s, 0, 0): 1, (0, p.t1, p.u1): -1})
    g = SparsePoly({(0, p.t, 0): 1, (p.s2, 0, p.u2): -1})
    h = SparsePoly({(0, 0, p.u): 1, (p.s3, p.t3, 0): -1})
    return f, g, h


def check_minor_relations(f: SparsePoly, g: SparsePoly, h: SparsePoly, p: HerzogPresentation) -> bool:
    """The two syzygies of the generators, from the 2x3 exponent matrix.

    y^t3 f + z^u1 g + x^s2 h = 0 and z^u2 f + x^s3 g + y^t1 h = 0.  The
    second uses y^t1 (the exact identity for all exponent data); it agrees
    with the y^t3 variant whenever t1 = t3.
    """
    first = _y(p.t3) * f + _z(p.u1) * g + _x(p.s2) * h
    second = _z(p.u2) * f + _x(p.s3) * g + _y(p.t1) * h
    return first.is_zero() and second.is_zero()


def _xi(p: HerzogPresentation, f, g, h) -> tuple[SparsePoly, bool, bool]:
    """xi = (z^(u2-u1) f^2 - g h) / x^s3 with its (companion, slice) clauses.

    Companion: z^u1 xi = x^(s2-s3) h^2 - f g; slice: xi = y^3 mod (x).
    Raises NotDivisibleError when x^s3 does not divide the numerator.
    """
    xi = (_z(p.u2 - p.u1) * f * f - g * h).divide_exact((p.s3, 0, 0))
    companion = (_z(p.u1) * xi - (_x(p.s2 - p.s3) * h * h - f * g)).is_zero()
    return xi, companion, xi.slice_x0() == {(3, 0): 1}


def _zeta(p: HerzogPresentation, f, h, xi) -> tuple[SparsePoly, bool, bool]:
    """zeta = (f^3 + z^(2u1-u2) h xi) / x^s3 with its (companion, slice) clauses.

    Companion: z^(u2-u1) zeta = f xi + x^(s2-2s3) h^3; slice:
    zeta = -y^4 z^(2u1-u2) mod (x).  Raises NotDivisibleError when x^s3 does
    not divide the numerator.
    """
    zeta = (f ** 3 + _z(2 * p.u1 - p.u2) * h * xi).divide_exact((p.s3, 0, 0))
    companion = (_z(p.u2 - p.u1) * zeta - (f * xi + _x(p.s2 - 2 * p.s3) * h ** 3)).is_zero()
    return zeta, companion, zeta.slice_x0() == {(4, 2 * p.u1 - p.u2): -1}


def build_xi(p: HerzogPresentation) -> SparsePoly:
    """Order-2 symbolic power element: xi = (z^(u2-u1) f^2 - g h) / x^s3.

    Requires s2 > s3, t1 = t3 = 1, u1 < u2.  Verifies on the way that
    z^u1 xi = x^(s2-s3) h^2 - f g and that xi is y^3 mod (x).
    """
    if not (p.s2 > p.s3 and p.t1 == 1 and p.t3 == 1 and p.u1 < p.u2):
        raise HypothesisViolationError(
            f"need s2 > s3, t1 = t3 = 1, u1 < u2; got s2={p.s2}, s3={p.s3}, "
            f"t1={p.t1}, t3={p.t3}, u1={p.u1}, u2={p.u2}"
        )
    xi, companion, slice_ok = _xi(p, *build_generators(p))
    if not companion:
        raise AssertionError("companion identity for xi failed")
    if not slice_ok:
        raise AssertionError("xi is not y^3 mod (x)")
    return xi


def build_zeta(p: HerzogPresentation, xi: SparsePoly) -> SparsePoly:
    """Order-3 element: zeta = (f^3 + z^(2u1-u2) h xi) / x^s3.

    Requires s2 > 2*s3, t1 = t3 = 1, u1 < u2 < 2*u1.  Verifies
    z^(u2-u1) zeta = f xi + x^(s2-2s3) h^3 and zeta = -y^4 z^(2u1-u2)
    mod (x).
    """
    if not (p.s2 > 2 * p.s3 and p.t1 == 1 and p.t3 == 1 and p.u1 < p.u2 < 2 * p.u1):
        raise HypothesisViolationError(
            f"need s2 > 2*s3, t1 = t3 = 1, u1 < u2 < 2*u1; got s2={p.s2}, "
            f"s3={p.s3}, u1={p.u1}, u2={p.u2}"
        )
    f, _, h = build_generators(p)
    zeta, companion, slice_ok = _zeta(p, f, h, xi)
    if not companion:
        raise AssertionError("companion identity for zeta failed")
    if not slice_ok:
        raise AssertionError("zeta is not -y^4 z^(2u1-u2) mod (x)")
    return zeta


class InfiniteColengthError(ValueError):
    """Staircase count requested without pure powers of both variables."""


def staircase_length(gens: Staircase) -> int:
    """Number of monomials y^i z^j outside the ideal generated by ``gens``.

    Finite exactly when the generators include a pure power of y and a pure
    power of z; counted column by column in the y-exponent.
    """
    pure_y = [i for i, j in gens if j == 0]
    pure_z = [j for i, j in gens if i == 0]
    if not pure_y or not pure_z:
        raise InfiniteColengthError(f"no pure power pair among {gens}")
    total = 0
    for i in range(min(pure_y)):
        total += min(j for gi, j in gens if gi <= i)
    return total


def second_power_slice_ideal(p: HerzogPresentation) -> Staircase:
    """Generators of the x = 0 slice of the second symbolic power.

    Valid under the hypotheses of the xi construction:
    (y^3, y^2 z^(2u1), y z^(u+u1), z^(2u)).
    """
    return ((3, 0), (2, 2 * p.u1), (1, p.u + p.u1), (0, 2 * p.u))


def third_power_slice_ideal(p: HerzogPresentation) -> Staircase:
    """x = 0 slice of the third symbolic power (zeta hypotheses):
    (y^5, y^4 z^(2u1-u2), y^3 z^u, y^2 z^(u+2u1), y z^(2u+u1), z^(3u))."""
    u, u1 = p.u, p.u1
    return ((5, 0), (4, 2 * u1 - p.u2), (3, u), (2, u + 2 * u1), (1, 2 * u + u1), (0, 3 * u))


def product_23_slice_ideal(p: HerzogPresentation) -> Staircase:
    """x = 0 slice of (second power) * (third power)."""
    u, u1, u2 = p.u, p.u1, p.u2
    return (
        (8, 0),
        (7, 2 * u1 - u2),
        (6, min(u, 4 * u1 - u2)),
        (5, 4 * u1),
        (4, 4 * u1 + u2),
        (3, 3 * u),
        (2, 3 * u + 2 * u1),
        (1, 4 * u + u1),
        (0, 5 * u),
    )


def symbolic_slice_length(p: HerzogPresentation, n: int) -> int:
    """Colength of the x = 0 slice of the n-th symbolic power: n(n+1)/2 * a."""
    return n * (n + 1) // 2 * p.a


def check_product_power_gap(p: HerzogPresentation) -> tuple[int, int, int]:
    """(product length, symbolic length, gap) of the x = 0 slices.

    The x = 0 slice of (2nd power)*(3rd power) is strictly smaller than that
    of the 5th symbolic power; the colength difference is
    min(u2 - u1, 2*u1 - u2) > 0 under the zeta hypotheses, which certifies
    that products of low symbolic powers never exhaust the fifth.
    """
    len_product = staircase_length(product_23_slice_ideal(p))
    len_symbolic = symbolic_slice_length(p, 5)
    return len_product, len_symbolic, len_product - len_symbolic


class FamilyRejectionError(ValueError):
    """Parameters outside the admissible rational box of the family."""


@dataclass(frozen=True)
class FamilyParams:
    """One member of the infinitely-generated family.

    Built from rationals alpha (= u2/u1) and beta (= s2/s3) with
    1 < alpha < 5/4 and 2 < beta < 7/3 - (alpha-1)/(2-alpha), scaled by
    positive integers m (for s2, s3) and n (for u1, u2); always t1 = t3 = 1.
    ``presentation`` is its Herzog datum, whose weights need not be
    pairwise coprime.
    """

    alpha: Fraction
    beta: Fraction
    m: int
    n: int
    presentation: HerzogPresentation


def generate_family(alpha: Fraction, beta: Fraction, m: int, n: int) -> FamilyParams:
    """Validate the parameter box exactly and build the exponent data.

    s2/s3 = beta and u2/u1 = alpha in lowest terms, scaled by m and n.
    Raises FamilyRejectionError naming the violated inequality.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if m < 1 or n < 1:
        raise FamilyRejectionError("scales m, n must be positive integers")
    if not Fraction(1) < alpha < Fraction(5, 4):
        raise FamilyRejectionError(f"alpha={alpha} violates 1 < alpha < 5/4")
    bound = Fraction(7, 3) - (alpha - 1) / (2 - alpha)
    if not Fraction(2) < beta < bound:
        raise FamilyRejectionError(f"beta={beta} violates 2 < beta < {bound}")
    s2, s3 = beta.numerator * m, beta.denominator * m
    u1, u2 = alpha.denominator * n, alpha.numerator * n
    s, u = s2 + s3, u1 + u2
    triple = CurveTriple(u1 + u, s3 * u2 + s2 * u, s2 + 2 * s3)
    return FamilyParams(alpha, beta, m, n, HerzogPresentation(triple, s, 2, u, s2, s3, 1, 1, u1, u2))


@dataclass(frozen=True)
class FamilyCheck:
    label: str
    ok: bool
    detail: str = ""


def verify_family_report(params: FamilyParams) -> list[FamilyCheck]:
    """Evaluate every polynomial identity and length count of the family.

    Returns one entry per clause so callers can print a pass/fail line each;
    all checks are exact.  A numerator that x^s3 does not divide is a FAIL
    line, and the report stops there; so is a gap other than min(u2-u1, 2u1-u2).
    """
    p = params.presentation
    weights = (p.a, p.b, p.c)
    f, g, h = build_generators(p)
    checks = [
        FamilyCheck("generator syzygies", check_minor_relations(f, g, h, p)),
        FamilyCheck(
            "exponent inequalities s2 > 2*s3, u1 < u2 < 2*u1",
            p.s2 > 2 * p.s3 and p.u1 < p.u2 < 2 * p.u1,
        ),
    ]

    divides = "order-2 element: x^s3 divides z^(u2-u1) f^2 - g h"
    try:
        xi, companion, slice_ok = _xi(p, f, g, h)
    except NotDivisibleError as exc:
        return checks + [FamilyCheck(divides, False, str(exc))]
    deg_xi = xi.weighted_degree(weights)
    checks += [
        FamilyCheck(divides, True),
        FamilyCheck("order-2 companion: z^u1 xi = x^(s2-s3) h^2 - f g", companion),
        FamilyCheck("order-2 slice: xi = y^3 mod (x)", slice_ok),
        FamilyCheck(
            "order-2 element is a negative curve",
            is_negative_curve(deg_xi, 2, weights),
            f"deg^2 = {deg_xi * deg_xi} vs 4abc = {4 * p.a * p.b * p.c}",
        ),
    ]

    divides = "order-3 element: x^s3 divides f^3 + z^(2u1-u2) h xi"
    try:
        _, companion, slice_ok = _zeta(p, f, h, xi)
    except NotDivisibleError as exc:
        return checks + [FamilyCheck(divides, False, str(exc))]
    checks += [
        FamilyCheck(divides, True),
        FamilyCheck("order-3 companion: z^(u2-u1) zeta = f xi + x^(s2-2s3) h^3", companion),
        FamilyCheck("order-3 slice: zeta = -y^4 z^(2u1-u2) mod (x)", slice_ok),
    ]

    for n, gens in ((2, second_power_slice_ideal(p)), (3, third_power_slice_ideal(p))):
        length, want = staircase_length(gens), symbolic_slice_length(p, n)
        k = n * (n + 1) // 2
        checks.append(
            FamilyCheck(
                f"slice colength at order {n} equals {k}a", length == want, f"{length} vs {k}a = {want}"
            )
        )
    len_product, len_symbolic, gap = check_product_power_gap(p)
    checks.append(
        FamilyCheck(
            "order 2*3 product is strictly smaller than the order-5 power",
            gap == min(p.u2 - p.u1, 2 * p.u1 - p.u2) > 0,
            f"colengths {len_product} vs {len_symbolic} (gap {gap})",
        )
    )
    return checks
