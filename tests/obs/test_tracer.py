"""Tracer core: sinks, category filtering, env opt-in, JSONL round-trip,
and the JSONL template encoder's byte identity with ``json.dumps``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracer import (
    CATEGORIES,
    JsonlSink,
    RingSink,
    TraceEvent,
    Tracer,
    _materialize,
    parse_categories,
    read_jsonl,
    tracer_from_env,
)


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def test_event_to_dict_omits_empty_fields():
    event = TraceEvent("dram.cmd", "ACT", 10.0, track=("bank", 0, 0, 1))
    data = event.to_dict()
    assert data == {
        "cat": "dram.cmd",
        "name": "ACT",
        "ts": 10.0,
        "track": ["bank", 0, 0, 1],
        "ph": "I",
    }
    assert "dur" not in data and "args" not in data


def test_event_to_dict_carries_duration_and_args():
    event = TraceEvent(
        "exec", "R", 5.0, dur_ns=45.0, args={"row": 3}, phase="X"
    )
    data = event.to_dict()
    assert data["dur"] == 45.0
    assert data["args"] == {"row": 3}
    assert data["ph"] == "X"


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def test_ring_sink_keeps_most_recent_and_counts_drops():
    sink = RingSink(capacity=3)
    for i in range(5):
        sink.write(TraceEvent("exec", f"e{i}", float(i)))
    assert sink.received == 5
    assert sink.dropped == 2
    assert [event.name for event in sink.events] == ["e2", "e3", "e4"]


def test_ring_sink_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        RingSink(capacity=0)


def test_jsonl_sink_round_trips_events(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    sink.write(TraceEvent("rrs.swap", "swap", 7.5, args={"row": 12}))
    sink.write(TraceEvent("exec", "R", 9.0, dur_ns=40.0, phase="X"))
    sink.close()

    events = read_jsonl(path)
    assert len(events) == 2
    assert events[0].category == "rrs.swap"
    assert events[0].args == {"row": 12}
    assert events[1].dur_ns == 40.0
    assert events[1].phase == "X"


# ----------------------------------------------------------------------
# Tracer filtering
# ----------------------------------------------------------------------
def test_tracer_records_all_categories_by_default():
    tracer = Tracer(RingSink())
    for category in CATEGORIES:
        assert tracer.wants(category)
        tracer.emit(category, "x", 0.0)
    assert tracer.emitted == len(CATEGORIES)


def test_tracer_filters_unselected_categories():
    tracer = Tracer(RingSink(), categories=["rrs.swap"])
    tracer.emit("dram.cmd", "ACT", 0.0)
    tracer.emit("rrs.swap", "swap", 1.0)
    assert tracer.emitted == 1
    assert [event.category for event in tracer.events] == ["rrs.swap"]


def test_tracer_rejects_unknown_categories():
    with pytest.raises(ValueError, match="unknown trace categories"):
        Tracer(RingSink(), categories=["dram.cmd", "bogus"])


def test_complete_records_duration_phase():
    tracer = Tracer(RingSink())
    tracer.complete("mitigation", "swap_block", 10.0, 1460.0)
    (event,) = tracer.events
    assert event.phase == "X"
    assert event.dur_ns == 1460.0


# ----------------------------------------------------------------------
# Environment opt-in
# ----------------------------------------------------------------------
def test_parse_categories_all_spellings():
    assert parse_categories("1") is None
    assert parse_categories("all") is None
    assert parse_categories("*") is None
    assert parse_categories("rrs.swap, refresh") == {"rrs.swap", "refresh"}
    with pytest.raises(ValueError):
        parse_categories("nope")


def test_tracer_from_env_off_by_default():
    assert tracer_from_env({}) is None
    assert tracer_from_env({"REPRO_TRACE": "0"}) is None


def test_tracer_from_env_ring_sink():
    tracer = tracer_from_env(
        {"REPRO_TRACE": "rrs.swap", "REPRO_TRACE_SINK": "ring",
         "REPRO_TRACE_BUFFER": "42"}
    )
    assert tracer is not None
    assert tracer.categories == {"rrs.swap"}
    assert isinstance(tracer.sink, RingSink)
    assert tracer.sink.capacity == 42


def test_tracer_from_env_jsonl_sink(tmp_path):
    path = str(tmp_path / "out.jsonl")
    tracer = tracer_from_env({"REPRO_TRACE": "all", "REPRO_TRACE_FILE": path})
    assert isinstance(tracer.sink, JsonlSink)
    tracer.emit("exec", "R", 1.0)
    tracer.close()
    assert len(read_jsonl(path)) == 1


def test_tracer_from_env_rejects_unknown_sink():
    with pytest.raises(ValueError, match="REPRO_TRACE_SINK"):
        tracer_from_env({"REPRO_TRACE": "1", "REPRO_TRACE_SINK": "kafka"})


# ----------------------------------------------------------------------
# JSONL template encoder: write_batch == write() per event, byte for byte
# ----------------------------------------------------------------------
SPECIAL_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e16, 2.5)

numbers = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.sampled_from(SPECIAL_FLOATS).map(np.float64),
)
texts = st.one_of(
    st.sampled_from(("ACT", "PRE", "R", "W", "X", 'q"uote', "back\\slash",
                     "caf\u00e9", "\u2603", "tab\t", "")),
    st.text(max_size=6),
)
# Tracks and banks: mostly exact ints/strs, plus values equal to a
# cached int that must not reuse its text (0.0 == False == 0).
track_items = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(("bank", "core", "chan", 'a"b', "\u00fc")),
    st.sampled_from((0.0, 1.0, False, True)),
)
tracks = st.one_of(
    st.sampled_from((("bank", 0, 0, 1), ("bank", 0.0, 0, 1), ("core", 1),
                     ("core", True), ("sys", "run"), ("bank", [0, 1]),
                     ["core", 2])),
    st.lists(track_items, max_size=4).map(tuple),
)
hits = st.one_of(st.booleans(), st.integers(0, 1), st.sampled_from((1.0,)))
banks = st.one_of(tracks, st.integers(0, 3))

cmd_entries = st.tuples(texts, numbers, tracks, st.one_of(st.integers(0, 9), numbers))
exec_entries = st.builds(
    lambda name, ts, track, dur, row, prow, bank, hit, phase: (
        "exec", name, ts, track, dur, (row, prow, bank, hit), phase,
    ),
    texts, numbers, tracks, numbers,
    st.one_of(st.integers(0, 2**20), numbers), st.integers(0, 2**20),
    banks, hits, st.sampled_from(("X", "I", "C")),
)
other_entries = st.builds(
    lambda category, name, ts, track, dur, args, phase: (
        category, name, ts, track, dur, args, phase,
    ),
    st.sampled_from(CATEGORIES), texts, numbers, tracks, numbers,
    st.one_of(st.none(), st.integers(0, 9), st.just(()),
              st.just((("row", 3), ("dest", 7)))),
    st.sampled_from(("X", "I")),
)
events = st.builds(
    TraceEvent,
    st.sampled_from(CATEGORIES), texts, numbers, tracks, numbers,
    st.one_of(st.none(), st.just({"row": 1, "note": 'say "hi"'})),
    st.sampled_from(("X", "I", "C")),
)
entries = st.one_of(cmd_entries, exec_entries, other_entries, events)


def _oracle_bytes(path, batch) -> bytes:
    """The registered oracle: JsonlSink.write, one event at a time."""
    sink = JsonlSink(str(path))
    for entry in batch:
        sink.write(_materialize(entry))
    sink.close()
    return path.read_bytes()


def _batch_bytes(path, batches) -> bytes:
    sink = JsonlSink(str(path))
    for batch in batches:
        sink.write_batch(batch)
    sink.close()
    assert sink.received == sum(len(batch) for batch in batches)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(entries, max_size=24), split=st.integers(0, 24))
def test_write_batch_bytes_equal_the_write_oracle(tmp_path_factory, batch, split):
    """Template and fallback lines, mixed with TraceEvents and spread
    over two batches (the sink's text caches persist between them),
    equal the dict+dumps line of every event, in order."""
    directory = tmp_path_factory.mktemp("jsonl")
    expected = _oracle_bytes(directory / "oracle.jsonl", batch)
    got = _batch_bytes(
        directory / "batch.jsonl", [batch[:split], batch[split:]]
    )
    assert got == expected


def test_equal_tracks_of_other_types_do_not_share_text(tmp_path):
    """``("core", 1)`` is cached first; the equal ``("core", True)`` and
    ``("core", 1.0)`` must still dump as written."""
    batch = [
        ("ACT", 1.0, ("core", 1), 5),
        ("ACT", 2.0, ("core", True), 5),
        ("ACT", 3.0, ("core", 1.0), 5),
        ("exec", "R", 4, ("core", 1), 7.5, (1, 2, ("core", 1.0), True), "X"),
    ]
    lines = _batch_bytes(tmp_path / "t.jsonl", [batch]).decode().splitlines()
    assert [json.loads(line)["track"] for line in lines] == [
        ["core", 1], ["core", True], ["core", 1.0], ["core", 1],
    ]
    assert '"bank": ["core", 1.0]' in lines[3]
    assert lines == _oracle_bytes(tmp_path / "o.jsonl", batch).decode().splitlines()


@pytest.mark.parametrize(
    "entry",
    [
        ("ACT", 1.0, ("bank", 0, 0, 1), np.int64(3)),
        ("exec", "R", 1.0, ("core", 0), 2.0, (1, 2, (0, 0, 1), np.bool_(True)), "X"),
    ],
    ids=["numpy-int-row", "numpy-bool-hit"],
)
def test_unserializable_numpy_fields_raise_like_the_oracle(tmp_path, entry):
    """Fields json.dumps rejects fall back to it and raise its error."""
    with pytest.raises(TypeError):
        _oracle_bytes(tmp_path / "o.jsonl", [entry])
    with pytest.raises(TypeError):
        _batch_bytes(tmp_path / "b.jsonl", [[entry]])


def test_traced_checkpoint_jsonl_round_trips(tmp_path, monkeypatch):
    """A traced ``checkpoint stream rrs --verify`` run on the default
    JSONL sink: every line parses back through read_jsonl and re-dumps
    to the same bytes."""
    from repro.cli import main

    path = tmp_path / "trace.jsonl"
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_TRACE_FILE", str(path))
    monkeypatch.delenv("REPRO_TRACE_SINK", raising=False)
    assert main([
        "checkpoint", "stream", "rrs", "--records", "600", "--cores", "2",
        "--verify",
    ]) == 0
    lines = path.read_text().splitlines()
    events = read_jsonl(str(path))
    assert len(events) == len(lines) > 1000
    assert {event.category for event in events} >= {"dram.cmd", "exec"}
    for line, event in zip(lines, events):
        assert json.dumps(event.to_dict(), sort_keys=True) == line
