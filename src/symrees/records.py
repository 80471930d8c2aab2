"""Machine-readable verdict records: JSON round trip and CSV rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import __version__
from .witness import Verdict

CSV_COLUMNS = [
    "a", "b", "c", "s", "t", "u",
    "eu", "gk_clause", "witness_exists", "noetherian", "points", "dim_piece_u",
]


@dataclass(frozen=True)
class VerdictRecord:
    """Plain-data mirror of a Verdict, stable across the JSON encoding."""

    triple: tuple[int, int, int]
    presentation: dict[str, Any] | None
    assumptions: dict[str, bool]
    eu: dict[str, Any] | None
    gk: dict[str, Any] | None
    witness_exists: bool | None
    noetherian: bool | None
    reason: str | None
    points: int | None
    dim_piece_u: int | None
    timing_ms: float | None = None
    version: str = __version__


def from_verdict(v: Verdict, timing_ms: float | None = None) -> VerdictRecord:
    pres = None
    if v.presentation is not None:
        p = v.presentation
        pres = {
            "s": p.s, "t": p.t, "u": p.u,
            "s2": p.s2, "s3": p.s3, "t1": p.t1, "t3": p.t3, "u1": p.u1, "u2": p.u2,
            "deg_f": p.deg_f, "deg_g": p.deg_g, "deg_h": p.deg_h,
        }
    eu = None
    if v.eu is not None:
        eu = {
            "ell": list(v.eu.ell),
            "ell_sorted": list(v.eu.ell_sorted),
            "holds": v.eu.holds,
            "first_failure_index": v.eu.first_failure_index,
        }
    gk = None
    if v.gk is not None:
        gk = {
            "n": v.gk.n,
            "m": v.gk.m,
            "def_I_holds": v.gk.def_I_holds,
            "def_II_holds": v.gk.def_II_holds,
            "five_way": v.gk.five_way.value if v.gk.five_way else None,
            "holds": v.gk.holds,
        }
    return VerdictRecord(
        triple=(v.triple.a, v.triple.b, v.triple.c),
        presentation=pres,
        assumptions={
            "pairwise_coprime": v.assumptions.pairwise_coprime,
            "three_generated": v.assumptions.three_generated,
            "negative_curve_iii": v.assumptions.negative_curve_iii,
            "all_hold": v.assumptions.all_hold,
        },
        eu=eu,
        gk=gk,
        witness_exists=v.noetherian,
        noetherian=v.noetherian,
        reason=v.reason,
        points=v.points,
        dim_piece_u=v.dim_piece_u,
        timing_ms=timing_ms,
    )


def to_dict(record: VerdictRecord, *, with_timing: bool = True) -> dict[str, Any]:
    """JSON-ready dict of a record: its fields in declaration order.

    ``timing_ms`` is left out when ``with_timing`` is False.  ``from_verdict``
    already builds every value in its JSON form (plain dicts, ``ell`` as a
    list, ``five_way`` as its string), so the values are the record's own,
    not copies: the result is for ``json.dumps``, not for changing.
    """
    data = dict(vars(record))
    if not with_timing:
        del data["timing_ms"]
    return data


def _tri(value) -> str:
    return "" if value is None else ("true" if value else "false")


def csv_row(record: VerdictRecord) -> list[str]:
    a, b, c = record.triple
    pres = record.presentation or {}
    gk_clause = (record.gk or {}).get("five_way") or ""
    if record.noetherian is None:
        noeth = "inapplicable"
    else:
        noeth = "true" if record.noetherian else "false"
    return [
        str(a), str(b), str(c),
        str(pres.get("s", "")), str(pres.get("t", "")), str(pres.get("u", "")),
        _tri((record.eu or {}).get("holds") if record.eu else None),
        gk_clause,
        _tri(record.witness_exists),
        noeth,
        "" if record.points is None else str(record.points),
        "" if record.dim_piece_u is None else str(record.dim_piece_u),
    ]


def _mono(*parts: tuple[str, int]) -> str:
    return "".join(v if e == 1 else f"{v}^{e}" for v, e in parts if e != 0)


def human_table(record: VerdictRecord) -> str:
    """Small fixed-width report for terminal use."""
    a, b, c = record.triple
    lines = [f"triple            ({a}, {b}, {c})"]
    if record.presentation:
        p = record.presentation
        lines.append(
            "generators        "
            f"{_mono(('x', p['s']))} - {_mono(('y', p['t1']), ('z', p['u1']))},  "
            f"{_mono(('y', p['t']))} - {_mono(('x', p['s2']), ('z', p['u2']))},  "
            f"{_mono(('z', p['u']))} - {_mono(('x', p['s3']), ('y', p['t3']))}"
        )
    asm = record.assumptions
    lines.append(
        "hypotheses        coprime={pairwise_coprime} three_generated={three_generated} "
        "negative_curve={negative_curve_iii}".format(**asm)
    )
    if record.eu:
        lines.append(
            f"EU                holds={record.eu['holds']} "
            f"ell={tuple(record.eu['ell'])} sorted={tuple(record.eu['ell_sorted'])}"
        )
    if record.gk:
        g = record.gk
        lines.append(
            f"GK                holds={g['holds']} n={g['n']} m={g['m']} "
            f"clause={g['five_way'] or '-'}"
        )
    if record.points is not None:
        lines.append(f"witness system    {record.points} points, dim={record.dim_piece_u}")
    if record.witness_exists is not None:
        lines.append(f"witness_exists    {record.witness_exists}")
    if record.noetherian is None:
        lines.append(f"verdict           inapplicable ({record.reason})")
    else:
        lines.append(
            "verdict           "
            + ("Noetherian (finitely generated)" if record.noetherian
               else "not Noetherian (infinitely generated)")
        )
    return "\n".join(lines)
