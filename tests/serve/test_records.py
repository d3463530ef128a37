"""The serving record types' public contract.

``Request``, ``RequestRecord``, ``BatchRecord`` and ``Admission`` are
built on the serving hot path and read everywhere downstream (metrics,
reports, CSV writers, chaos invariants).  Whatever their
implementation, these properties hold: field names, order and defaults;
keyword construction; immutability; value equality with equal hashes;
the latency accounting identity; and the ``repr`` format.
"""

import pytest

from repro.serve import Admission, BatchRecord, Request, RequestRecord

REQUEST_FIELDS = ("rid", "kind", "tile", "arrival")
RECORD_FIELDS = ("rid", "kind", "tile", "arrival", "shed", "batch_id",
                 "chip", "batch_size", "dispatch", "start", "finish",
                 "outcome", "retries", "hedged")
BATCH_FIELDS = ("batch_id", "kind", "size", "chip", "close", "start",
                "finish", "reload", "attempt", "outcome", "waste", "hedge")


def _request(**kw):
    return Request(**{"rid": 3, "kind": "bp", "tile": 1,
                      "arrival": 10.0, **kw})


def _record(**kw):
    return RequestRecord(**{"rid": 3, "kind": "bp", "tile": 1,
                            "arrival": 10.0, "shed": False, "batch_id": 2,
                            "chip": 1, "batch_size": 4, "dispatch": 25.0,
                            "start": 40.0, "finish": 95.5, **kw})


def _batch(**kw):
    return BatchRecord(**{"batch_id": 0, "kind": "fc", "size": 2,
                          "chip": 1, "close": 1.0, "start": 2.0,
                          "finish": 5.0, "reload": 0.5, **kw})


def _admission(**kw):
    return Admission(**{"shed": _request(),
                        "filled": None, **kw})


BUILDERS = {
    "Request": (_request, REQUEST_FIELDS),
    "RequestRecord": (_record, RECORD_FIELDS),
    "BatchRecord": (_batch, BATCH_FIELDS),
    "Admission": (_admission, ("shed", "filled")),
}


def _field_values(rec, names):
    return tuple(getattr(rec, name) for name in names)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_keyword_construction_keeps_field_order(name):
    build, names = BUILDERS[name]
    rec = build()
    # The repr lists every field, in declaration order.
    fields = ", ".join(f"{f}={getattr(rec, f)!r}" for f in names)
    assert repr(rec) == f"{name}({fields})"
    # Keyword construction round-trips every field, and positional
    # construction takes the fields in the same order.
    values = _field_values(rec, names)
    assert build(**dict(zip(names, values))) == rec
    assert type(rec)(*values) == rec


def test_defaults():
    with pytest.raises(TypeError):
        Request(rid=0, kind="fc", tile=0)  # no field has a default
    with pytest.raises(TypeError):
        RequestRecord(rid=1, kind="bp", tile=2, arrival=3.0)
    with pytest.raises(TypeError):
        BatchRecord(batch_id=0, kind="fc", size=2, chip=1, close=1.0,
                    start=2.0, finish=5.0)
    rec = RequestRecord(rid=1, kind="bp", tile=2, arrival=3.0, shed=True)
    assert _field_values(rec, RECORD_FIELDS[5:]) == (
        -1, -1, 0, 0.0, 0.0, 0.0, "served", 0, False)
    batch = _batch()
    assert _field_values(batch, BATCH_FIELDS[8:]) == (
        0, "served", 0.0, False)
    admission = Admission()
    assert admission.shed is None and admission.filled is None


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_records_are_immutable(name):
    build, names = BUILDERS[name]
    rec = build()
    for field in names:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_values_give_equal_records_and_hashes(name):
    build, _ = BUILDERS[name]
    a, b = build(), build()
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_values_compare_unequal():
    assert _request() != _request(rid=4)
    assert _record() != _record(outcome="expired")
    assert _batch() != _batch(hedge=True)
    assert Admission() != _admission()


def test_latency_is_the_sum_of_its_parts():
    rec = _record()
    assert rec.batch_wait == 15.0
    assert rec.queue_wait == 15.0
    assert rec.service == 55.5
    assert rec.latency == 85.5
    assert rec.latency == rec.batch_wait + rec.queue_wait + rec.service


def test_repr_strings():
    assert repr(Request(rid=1, kind="bp", tile=2, arrival=3.5)) == (
        "Request(rid=1, kind='bp', tile=2, arrival=3.5)")
    assert repr(RequestRecord(rid=1, kind="bp", tile=2, arrival=3.5,
                              shed=False)) == (
        "RequestRecord(rid=1, kind='bp', tile=2, arrival=3.5, shed=False, "
        "batch_id=-1, chip=-1, batch_size=0, dispatch=0.0, start=0.0, "
        "finish=0.0, outcome='served', retries=0, hedged=False)")
    assert repr(_batch()) == (
        "BatchRecord(batch_id=0, kind='fc', size=2, chip=1, close=1.0, "
        "start=2.0, finish=5.0, reload=0.5, attempt=0, outcome='served', "
        "waste=0.0, hedge=False)")
    assert repr(Admission()) == "Admission(shed=None, filled=None)"
