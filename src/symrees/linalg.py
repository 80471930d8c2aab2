"""Exact integer linear algebra.

All computations here are over the integers (Python ``int``), with no
floating point anywhere: the verdicts built on top of this module are exact
yes/no statements.  There is one elimination routine, ``_echelon``:
fraction-free Bareiss elimination of integer rows to an echelon form.  Rank
and pivot columns are read from it, and so are kernel vectors (one exact
back-substitution per free column).  A column lies in the span of the
columns before it exactly when it is not a pivot, which is how the witness
test reads its verdict.  Its work follows the nonzero entries: a row is
touched only where it has an entry in the pivot column (rows wait in buckets
by leading column), and rows are rescaled lazily; under its pivot rule
(smallest true magnitude, lowest input row on ties) its output is that of
the eagerly rescaled kernel that the tests keep as an oracle.
The pivot columns of any echelon form are those of the unique reduced row
echelon form, so the kernel basis read here is the canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count


@dataclass(frozen=True)
class Echelon:
    """A fraction-free row echelon form U of a matrix, with its pivot columns.

    ``rows`` are the nonzero rows of U: integer rows spanning the row space
    of the input, row k zero before column ``pivots[k]``, in the order the
    pivots were chosen (smallest true magnitude, lowest input row on ties).
    The pivot columns of any echelon form are those of the reduced row
    echelon form (RREF), so rank and free columns are read off here.
    """

    rows: list[list[int]]
    pivots: list[int]
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


def _echelon(rows: list[list[int]], ncols: int) -> Echelon:
    """Bareiss fraction-free elimination of integer rows to an Echelon.

    Takes ownership of ``rows``: they are reduced in place.  Pivot: the
    smallest nonzero true magnitude in the column, the lowest input row
    index winning ties; rows are never swapped.
    Entries stay integral: the Bareiss update is (p*a - q*b) // prev_pivot
    with exact division (the entries are minors of the input matrix).

    Only nonzero entries cost work.  The rows not yet pivoted are kept in
    buckets by their leading (first nonzero) column, so the rows with an
    entry in column col are exactly ``bucket[col]`` and a free column costs
    O(1).  A reduced row moves to the bucket of its new leading column, or
    is dropped when zero.

    Row scaling is lazy.  A row whose pivot-column entry is zero would only
    be multiplied by p / prev, so it is left as stored, together with the
    divisor d it was last reduced with (1 at first).  The factors of a run of
    skipped steps cancel to prev / d, so the true row is stored * prev // d.
    A row with q != 0 is reduced as (p*a - q*b) // d from its stored entries,
    which gives the same minor, and a pivot row is brought to its true form
    once, when chosen.  Where d divides p and q, the division moves out of
    the entry loop: (p*a - q*b) / d = (p/d)*a - (q/d)*b.  The pivots of the
    witness systems are mostly +-1, so this holds for most updates.  Every
    division is exact: the eager kernel divides exactly on the columns >=
    col.  So rows and pivots are those of the eager kernel under the same
    pivot rule.
    """
    divs = [1] * len(rows)
    buckets: list[list[int]] = [[] for _ in range(ncols)]
    for idx, row in enumerate(rows):
        lead = next(compress(count(), row), None)
        if lead is not None:
            buckets[lead].append(idx)
    reduced: list[list[int]] = []
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        bucket = buckets[col]
        if not bucket:
            continue
        if len(bucket) == 1:
            pick = bucket[0]
            others = ()
        else:
            pick = min(bucket, key=lambda idx: (abs(rows[idx][col] * prev // divs[idx]), idx))
            others = [idx for idx in bucket if idx != pick]
        pr = rows[pick]
        d = divs[pick]
        if d != prev:
            pr[col:] = [x * prev // d for x in pr[col:]]
        p = pr[col]
        pr_tail = pr[col:] if others else ()
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
        prev = p
        reduced.append(pr)
        pivots.append(col)
    return Echelon(rows=reduced, pivots=pivots, cols=ncols)
