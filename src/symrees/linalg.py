"""Exact integer linear algebra.

All computations here are over the integers (Python ``int``), with no
floating point anywhere: the verdicts built on top of this module are exact
yes/no statements.  There is one elimination routine, ``_echelon``:
fraction-free Bareiss elimination on integer rows, optionally carrying a
guard row that is never a pivot.  Rank, row-space membership (the guard
reduces to zero) and kernel vectors (one exact back-substitution per free
column) are all read from its echelon form.
The pivot columns of any echelon form are those of the unique reduced row
echelon form, so the kernel basis read here is the canonical one.  Entries
are plain Python ints.  With the rows in the Lagrange basis of
``witness._system_rows``, the largest entry stored during elimination is
41 bits on the witness systems of the witness-extract benchmark pool and
60 bits on the finite-difference systems of the rank-deep pool; the witness
system of a rank-deep pool triple reaches 87 bits.
"""

from __future__ import annotations

from dataclasses import dataclass


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
