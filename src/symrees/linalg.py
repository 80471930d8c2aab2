"""Exact rational linear algebra.

All computations here are over the rationals (Python ``int`` and
``fractions.Fraction``), with no floating point anywhere: the verdicts built
on top of this module are exact yes/no statements.  There is one elimination
routine, ``_echelon``: fraction-free Bareiss elimination on integer-cleared
rows, optionally carrying a guard row that is never a pivot.  Rank,
row-space membership (the guard reduces to zero) and kernel vectors (one
exact back-substitution per free column) are all read from its echelon form.
The pivot columns of any echelon form are those of the unique reduced row
echelon form, so the kernel basis read here is the canonical one.  Entries
are plain Python ints: on the largest witness systems of the benchmark pools
no elimination entry exceeds 56 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Rat = int | Fraction


def _row_to_ints(row: Sequence[Rat]) -> list[int]:
    """Clear denominators of one row (rank is invariant under row scaling)."""
    denoms = [x.denominator for x in row if type(x) is not int]
    if not denoms:
        return list(row)
    scale = math.lcm(*denoms)
    return [int(x * scale) for x in row]


@dataclass(frozen=True)
class Echelon:
    """A fraction-free row echelon form U of a matrix, with its pivot columns.

    ``rows`` are the nonzero rows of U: integer rows spanning the row space
    of the input, row k zero before column ``pivots[k]``.  The pivot columns
    of any echelon form are those of the reduced row echelon form (RREF), so
    rank and free columns are read off here.  ``guard`` is the guard row
    reduced against U (None when no guard was carried): a nonzero multiple of
    the guard minus its part in the row space.  Entries at free columns left
    of the last pivot are not rescaled, so only their zero pattern counts.
    """

    rows: list[list[int]]
    pivots: list[int]
    guard: list[int] | None
    cols: int

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_vector(self, fc: int) -> list[int]:
        """Integer multiple of the canonical kernel vector of free column fc.

        The canonical vector is 1 at fc, 0 at the other free columns, and
        solves U_P x_P = -U[:, fc] on the pivot columns P.  Scaled by the last
        pivot (a maximal minor), it is integral, so back-substitution divides
        exactly.
        """
        if fc in self.pivots:
            raise ValueError("column is not free")
        scale = self.rows[-1][self.pivots[-1]] if self.rows else 1
        x = [0] * self.cols
        x[fc] = scale
        for k in range(len(self.pivots) - 1, -1, -1):
            row = self.rows[k]
            total = row[fc] * scale
            for pc in self.pivots[k + 1:]:
                if x[pc]:
                    total += row[pc] * x[pc]
            quot, rem = divmod(-total, row[self.pivots[k]])
            if rem:
                raise ArithmeticError("back-substitution division failed")
            x[self.pivots[k]] = quot
        return x


def _echelon(rows: list[list[int]], ncols: int, guard: list[int] | None = None) -> Echelon:
    """Bareiss fraction-free elimination of integer rows to an Echelon.

    Takes ownership of ``rows`` and ``guard``: both are reduced in place.
    Pivot: the smallest nonzero magnitude in the column, the first row
    winning ties.  Entries stay integral: the Bareiss update is
    (p*a - q*b) // prev_pivot with exact division (the entries are minors of
    the input matrix).  ``guard`` is one more row that is never chosen as a
    pivot but is reduced with the others; it ends up zero exactly when it
    lies in their row space.

    Row scaling is lazy.  A row whose pivot-column entry is zero would only
    be multiplied by p / prev, so it is left as stored, together with the
    divisor d it was last reduced with (1 at first).  The factors of a run of
    skipped steps cancel to prev / d, so the true row is stored * prev // d.
    A row with q != 0 is reduced as (p*a - q*b) // d from its stored entries,
    which gives the same minor, and a pivot row is brought to its true form
    once, when chosen.  The guard stays eager: its entries at free columns
    left of later pivots are not rescaled, and a lazy guard would differ
    there.
    """
    nrows = len(rows)
    divs = [1] * nrows
    pivots: list[int] = []
    prev = 1
    rank = 0
    col = 0
    while col < ncols and rank < nrows:
        # pivot: smallest true nonzero magnitude in the column
        pivot_at = -1
        best = 0
        for idx in range(rank, nrows):
            v = rows[idx][col]
            if v:
                d = divs[idx]
                if d != prev:
                    v = v * prev // d
                if pivot_at < 0 or abs(v) < best:
                    best = abs(v)
                    pivot_at = idx
        if pivot_at < 0:
            col += 1
            continue
        rows[rank], rows[pivot_at] = rows[pivot_at], rows[rank]
        divs[rank], divs[pivot_at] = divs[pivot_at], divs[rank]
        pr = rows[rank]
        d = divs[rank]
        if d != prev:
            pr[col:] = [x * prev // d for x in pr[col:]]
        p = pr[col]
        pr_tail = pr[col:]
        for idx in range(rank + 1, nrows):
            ri = rows[idx]
            q = ri[col]
            if q:
                d = divs[idx]
                if d == 1:
                    ri[col:] = [p * x - q * y for x, y in zip(ri[col:], pr_tail)]
                else:
                    ri[col:] = [(p * x - q * y) // d for x, y in zip(ri[col:], pr_tail)]
                divs[idx] = p
        if guard is not None:
            q = guard[col]
            if q == 0:
                if p != prev:
                    guard[col:] = [(p * x) // prev for x in guard[col:]]
            elif prev == 1:
                guard[col:] = [p * x - q * y for x, y in zip(guard[col:], pr_tail)]
            else:
                guard[col:] = [(p * x - q * y) // prev for x, y in zip(guard[col:], pr_tail)]
        prev = p
        pivots.append(col)
        rank += 1
        col += 1
    return Echelon(rows=rows[:rank], pivots=pivots, guard=guard, cols=ncols)


class QMatrix:
    """Dense exact matrix over the rationals with labelled columns.

    Immutable after construction; entries may be ``int`` or ``Fraction``
    (both exact).  Column labels are opaque tags used to keep witness
    coordinates attached to the lattice points they stand for.
    """

    def __init__(self, entries: Sequence[Sequence[Rat]], col_labels: Sequence | None = None):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        if col_labels is None:
            col_labels = list(range(self.cols))
        self.col_labels = list(col_labels)
        if len(self.col_labels) != self.cols:
            raise ValueError("need one label per column")
        if len(set(self.col_labels)) != self.cols:
            raise ValueError("column labels must be distinct")

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"

    def echelon(self, guard: Sequence[Rat] | None = None) -> Echelon:
        """One fraction-free elimination of the rows, carrying ``guard``.

        Rows are cleared of denominators (row scaling changes neither the
        row space nor the kernel) and zero rows are dropped first.
        """
        if guard is not None and len(guard) != self.cols:
            raise ValueError("length mismatch")
        rows = [r for r in map(_row_to_ints, self.entries) if any(r)]
        return _echelon(rows, self.cols, None if guard is None else _row_to_ints(guard))

    def rank(self) -> int:
        return self.echelon().rank

    def rank_and_row_space_contains(self, v: Sequence[Rat]) -> tuple[int, bool]:
        """(rank of the matrix, whether v lies in its row space), one pass.

        The candidate row is carried through the elimination without ever
        being chosen as a pivot; it ends up zero exactly when it is a
        combination of the matrix rows.
        """
        reduced = self.echelon(guard=v)
        return reduced.rank, not any(reduced.guard)

    def row_space_contains(self, v: Sequence[Rat]) -> bool:
        """True iff v is a rational linear combination of the rows."""
        return self.rank_and_row_space_contains(v)[1]

    def null_space(self) -> list[list[Fraction]]:
        """Basis of the exact kernel {x : Mx = 0}, one vector per free column.

        Deterministic: free columns in ascending order, and the basis vector
        for free column j has coordinate 1 there and 0 at the other free
        columns.  (This basis is canonical: it only depends on the RREF,
        which is unique.)
        """
        reduced = self.echelon()
        pivot_set = set(reduced.pivots)
        basis = []
        for fc in range(self.cols):
            if fc not in pivot_set:
                vec = reduced.kernel_vector(fc)
                basis.append([Fraction(x, vec[fc]) for x in vec])
        return basis
