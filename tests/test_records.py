import json
from dataclasses import fields, replace

import pytest

from oracles import asdict_record, from_dict
from symrees.records import VerdictRecord, to_dict
from symrees.scan import ScanJob, run_scan


@pytest.fixture(scope="module")
def table_20():
    # every record of the bound-20 table, with a distinct timing each
    records = list(run_scan(ScanJob(20)))
    return [replace(r, timing_ms=i / 8) for i, r in enumerate(records)]


def test_table_holds_every_record_shape(table_20):
    assert len(table_20) > 1500
    assert any(r.noetherian is True for r in table_20)
    assert any(r.noetherian is False for r in table_20)
    assert any(r.presentation is None for r in table_20)
    assert any(r.presentation is not None and r.noetherian is None for r in table_20)


@pytest.mark.parametrize("with_timing", [True, False])
def test_encoder_matches_asdict_bytes(table_20, with_timing):
    for record in table_20:
        got = json.dumps(to_dict(record, with_timing=with_timing))
        assert got == json.dumps(asdict_record(record, with_timing=with_timing)), record.triple


def test_encoder_emits_fields_in_declaration_order(table_20):
    names = [f.name for f in fields(VerdictRecord)]
    assert list(to_dict(table_20[0])) == names
    assert list(to_dict(table_20[0], with_timing=False)) == [n for n in names if n != "timing_ms"]


def test_encoder_round_trip(table_20):
    for record in table_20:
        assert from_dict(json.loads(json.dumps(to_dict(record)))) == record
        decoded = from_dict(json.loads(json.dumps(to_dict(record, with_timing=False))))
        assert decoded == replace(record, timing_ms=None)

