"""Exact integer linear algebra.

All computations here are over the integers (Python ``int``), with no
floating point anywhere: the verdicts built on top of this module are exact
yes/no statements.  There is one elimination routine, ``_echelon``: integer
row reduction to an echelon form in which every stored row is the primitive
integer vector of its line (its entries have gcd 1).  Rank and pivot
columns are read from it, and so are kernel vectors (one exact
back-substitution per free column).  A column lies in the span of the
columns before it exactly when it is not a pivot, which is how the witness
test reads its verdict.  Its work follows the nonzero entries: a row is
touched only where it has an entry in the pivot column (rows wait in buckets
by leading column).  The pivot columns of any echelon form are those of the
unique reduced row echelon form, so the kernel basis read here is the
canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from math import gcd


@dataclass(frozen=True)
class Echelon:
    """A row echelon form U of an integer matrix, with its pivot columns.

    ``rows`` are the nonzero rows of U, each the primitive integer vector of
    its line: they span the row space of the input, row k is zero before
    column ``pivots[k]``, and they come in the order the pivots were chosen
    (smallest magnitude, lowest input row on ties).  The pivot columns of any
    echelon form are those of the reduced row echelon form (RREF), so rank
    and free columns are read off here.
    """

    rows: list[list[int]]
    pivots: list[int]
    cols: int

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_vector(self, fc: int) -> list[int]:
        """The primitive integer multiple of the canonical kernel vector of free column fc.

        The canonical vector is 1 at fc, 0 at the other free columns, and
        solves U_P x_P = -U[:, fc] on the pivot columns P.  Back-substitution
        keeps x integral and primitive, positive at fc: the pivot entry p and
        the row's total t are divided by g = gcd(p, t), and the entries
        already set are multiplied by |p| / g only when that exceeds 1.
        """
        if fc in self.pivots:
            raise ValueError("column is not free")
        x = [0] * self.cols
        x[fc] = 1
        done = [fc]
        for row, pc in zip(reversed(self.rows), reversed(self.pivots)):
            total = sum(row[c] * x[c] for c in done if row[c])
            if total:
                p = row[pc]
                g = gcd(p, total)
                scale = abs(p) // g
                if scale > 1:
                    for c in done:
                        x[c] *= scale
                x[pc] = -total // g if p > 0 else total // g
                done.append(pc)
        return x


def _echelon(rows: list[list[int]], ncols: int) -> Echelon:
    """Integer elimination of rows to an Echelon of primitive rows.

    Takes ownership of ``rows``: they are reduced in place.  Pivot: the
    smallest nonzero magnitude in the column, the lowest input row index
    winning ties; rows are never swapped.  Every row is divided by its
    content (the gcd of its entries) on entry, and a row r with entry q in
    the column of the pivot row with entry p becomes (p/g)*r - (q/g)*pivot
    row, g = gcd(p, q), divided by its content again.  So every stored row
    is the primitive integer vector of its line, which keeps the same row
    space and the same pivot columns.

    Only nonzero entries cost work.  The rows not yet pivoted are kept in
    buckets by their leading (first nonzero) column, so the rows with an
    entry in column col are exactly ``bucket[col]`` and a free column costs
    O(1).  A reduced row moves to the bucket of its new leading column, or
    is dropped when zero.
    """
    buckets: list[list[int]] = [[] for _ in range(ncols)]
    for idx, row in enumerate(rows):
        lead = next(compress(count(), row), None)
        if lead is not None:
            rows[idx] = _primitive(row)
            buckets[lead].append(idx)
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        bucket = buckets[col]
        if not bucket:
            continue
        if len(bucket) == 1:
            pr = rows[bucket[0]]
        else:
            pick = min(bucket, key=lambda idx: (abs(rows[idx][col]), idx))
            pr = rows[pick]
            p = pr[col]
            pr_tail = pr[col:]
            for idx in bucket:
                if idx == pick:
                    continue
                ri = rows[idx]
                q = ri[col]
                g = gcd(p, q)
                pg, qg = p // g, q // g
                tail = _primitive([pg * x - qg * y for x, y in zip(ri[col:], pr_tail)])
                ri[col:] = tail
                lead = next(compress(count(col), tail), None)
                if lead is not None:
                    buckets[lead].append(idx)
        reduced.append(pr)
        pivots.append(col)
    return Echelon(rows=reduced, pivots=pivots, cols=ncols)


def _primitive(values: list[int]) -> list[int]:
    # values divided by their content; unchanged when that is 0 or 1
    content = gcd(*values)
    return [x // content for x in values] if content > 1 else values
