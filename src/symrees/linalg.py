"""Exact integer linear algebra.

All computations here are over the integers (Python ``int``), with no
floating point anywhere: the verdicts built on top of this module are exact
yes/no statements.  There is one elimination routine, ``_echelon``:
fraction-free Bareiss elimination on integer rows, optionally carrying a
guard row that is never a pivot.  Rank, row-space membership (the guard
reduces to zero) and kernel vectors (one exact back-substitution per free
column) are all read from its echelon form.  Its work follows the nonzero
entries: a row is touched only where it has an entry in the pivot column
(rows wait in buckets by leading column), and rows and guard alike are
rescaled lazily, so its output is that of the eagerly rescaled kernel that
the tests keep as an oracle.
The pivot columns of any echelon form are those of the unique reduced row
echelon form, so the kernel basis read here is the canonical one.  Entries
are plain Python ints.  With the rows in the Lagrange basis of
``witness._system_rows``, the largest entry stored during elimination is
167 bits on the finite-difference systems of the rank-deep pool (60 bits
before the full column groups were taken out).  A witness is read from an
echelon form only when back-substitution through the order lowering does
not apply (``witness._kept_elimination``), which happens on no triple of
the benchmark pools; the depth-u point systems that extraction eliminated
before reached 41 bits on the witness-extract pool and 87 bits on the
rank-deep pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count


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

    Only nonzero entries cost work.  The rows not yet pivoted are kept in
    buckets by their leading (first nonzero) column, so the rows with an
    entry in column col are exactly ``bucket[col]`` and a free column costs
    O(1).  "First row" means first in the row order of the eager kernel,
    where each pivot row is swapped with the row at the current rank; the
    position of every row is tracked through those swaps.  A reduced row
    moves to the bucket of its new leading column, or is dropped when zero.

    Row scaling is lazy.  A row whose pivot-column entry is zero would only
    be multiplied by p / prev, so it is left as stored, together with the
    divisor d it was last reduced with (1 at first).  The factors of a run of
    skipped steps cancel to prev / d, so the true row is stored * prev // d.
    A row with q != 0 is reduced as (p*a - q*b) // d from its stored entries,
    which gives the same minor, and a pivot row is brought to its true form
    once, when chosen.  Where d divides p and q, the division moves out of
    the entry loop: (p*a - q*b) / d = (p/d)*a - (q/d)*b.  On the rank-deep
    systems the pivots are mostly +-1, so this holds for most updates.  The
    guard is lazy in the same way, with one divisor for the whole row; since
    an eager step leaves the guard's entry at a free column as it is from
    then on, that entry is brought to its true value when the sweep passes
    the column, which covers the columns after the last pivot too.  Every
    division is exact: the eager kernel divides exactly on the columns >=
    col.  So rows, pivots and guard are those of the eager kernel.
    """
    nrows = len(rows)
    divs = [1] * nrows
    buckets: list[list[int]] = [[] for _ in range(ncols)]
    for idx, row in enumerate(rows):
        lead = next(compress(count(), row), None)
        if lead is not None:
            buckets[lead].append(idx)
    at = list(range(nrows))  # at[k]: the row at position k of the eager order
    pos = list(range(nrows))  # pos[idx]: the position of row idx
    reduced: list[list[int]] = []
    pivots: list[int] = []
    prev = 1
    gd = 1  # the guard's divisor
    for col in range(ncols):
        bucket = buckets[col]
        if not bucket:
            if guard is not None and gd != prev and guard[col]:
                guard[col] = guard[col] * prev // gd
            continue
        if len(bucket) == 1:
            pick = bucket[0]
            others = ()
        else:
            # pivot: smallest true magnitude, earliest position on ties
            pick = min(bucket, key=lambda idx: (abs(rows[idx][col] * prev // divs[idx]), pos[idx]))
            others = [idx for idx in bucket if idx != pick]
        rank = len(pivots)
        other, spot = at[rank], pos[pick]
        at[spot], pos[other] = other, spot
        pr = rows[pick]
        d = divs[pick]
        if d != prev:
            pr[col:] = [x * prev // d for x in pr[col:]]
        p = pr[col]
        pr_tail = pr[col:] if others or (guard is not None and guard[col]) else ()
        for idx in others:
            ri = rows[idx]
            q = ri[col]
            d = divs[idx]
            if p % d or q % d:
                tail = [(p * x - q * y) // d for x, y in zip(ri[col:], pr_tail)]
            else:  # d divides p and q (d = 1 for a row never reduced)
                pd, qd = p // d, q // d
                tail = [pd * x - qd * y for x, y in zip(ri[col:], pr_tail)]
            ri[col:] = tail
            divs[idx] = p
            lead = next(compress(count(col), tail), None)
            if lead is not None:
                buckets[lead].append(idx)
        if guard is not None:
            q = guard[col]
            if q:
                guard[col:] = [(p * x - q * y) // gd for x, y in zip(guard[col:], pr_tail)]
                gd = p
        prev = p
        reduced.append(pr)
        pivots.append(col)
    return Echelon(rows=reduced, pivots=pivots, guard=guard, cols=ncols)
