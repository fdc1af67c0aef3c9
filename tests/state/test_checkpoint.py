"""SimCheckpoint container, the on-disk store, and the run session."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state.checkpoint import (
    CheckpointSession,
    CheckpointStore,
    SimCheckpoint,
    checkpoint_enabled_by_env,
    run_fingerprint,
)
from repro.state.protocol import STATE_SCHEMA_VERSION


def _checkpoint(serviced=100, fingerprint="ab" * 32, meta=None):
    return SimCheckpoint(
        fingerprint=fingerprint,
        serviced=serviced,
        payload=((1, 2.5), {"k": (3,)}, np.arange(4, dtype=np.int64)),
        meta=dict(meta or {}),
    )


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
def test_checkpoint_json_roundtrip():
    original = _checkpoint(meta={"records_per_core": 500})
    loaded = SimCheckpoint.loads(original.dumps())
    assert loaded.fingerprint == original.fingerprint
    assert loaded.serviced == original.serviced
    assert loaded.meta == {"records_per_core": 500}
    assert loaded.schema_version == STATE_SCHEMA_VERSION
    a, b, array = loaded.payload
    assert a == (1, 2.5) and b == {"k": (3,)}
    assert np.array_equal(array, np.arange(4, dtype=np.int64))


def test_foreign_schema_version_is_rejected_loudly():
    data = _checkpoint().to_dict()
    data["schema_version"] = STATE_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="checkpoint schema"):
        SimCheckpoint.from_dict(data)


def test_run_fingerprint_is_stable_and_input_sensitive():
    base = {"workload": "lbm", "seed": 1}
    assert run_fingerprint(base) == run_fingerprint(dict(base))
    assert run_fingerprint(base) != run_fingerprint({"workload": "lbm", "seed": 2})


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_put_get_and_cuts(tmp_path):
    store = CheckpointStore(root=tmp_path)
    fp = "cd" * 32
    for serviced in (300, 100, 200):
        store.put(_checkpoint(serviced=serviced, fingerprint=fp))
    assert store.cuts(fp) == [100, 200, 300]
    loaded = store.get(fp, 200)
    assert loaded is not None and loaded.serviced == 200
    assert store.get(fp, 999) is None
    assert store.cuts("ef" * 32) == []


def test_store_corrupt_file_is_a_miss(tmp_path):
    store = CheckpointStore(root=tmp_path)
    fp = "cd" * 32
    store.put(_checkpoint(serviced=100, fingerprint=fp))
    path = tmp_path / fp[:2] / fp / "100.json"
    path.write_text("{not json")
    assert store.get(fp, 100) is None
    assert store.latest(fp) is None  # corrupt entries never resume


def test_store_latest_caps_and_filters(tmp_path):
    store = CheckpointStore(root=tmp_path)
    fp = "cd" * 32
    for serviced in (100, 200, 300):
        store.put(_checkpoint(serviced=serviced, fingerprint=fp))
    assert store.latest(fp).serviced == 300
    assert store.latest(fp, max_serviced=250).serviced == 200
    assert store.latest(fp, accept=lambda c: c.serviced < 250).serviced == 200
    assert store.latest(fp, max_serviced=50) is None


def test_store_mismatched_body_is_a_miss(tmp_path):
    store = CheckpointStore(root=tmp_path)
    fp, other = "cd" * 32, "ef" * 32
    store.put(_checkpoint(serviced=100, fingerprint=fp))
    # A file renamed under a foreign fingerprint directory must not load.
    target = tmp_path / other[:2] / other
    target.mkdir(parents=True)
    (target / "100.json").write_text(
        (tmp_path / fp[:2] / fp / "100.json").read_text()
    )
    assert store.get(other, 100) is None


# ----------------------------------------------------------------------
# Trust boundary: damaged or foreign cuts are misses, never resumes
# ----------------------------------------------------------------------
FP = "cd" * 32


def _store_with_cuts(root):
    """A store holding valid cuts at 100 and 200; returns (store, path
    of the 200 cut, its text)."""
    store = CheckpointStore(root=root)
    for serviced in (100, 200):
        store.put(_checkpoint(serviced=serviced, fingerprint=FP))
    path = root / FP[:2] / FP / "200.json"
    return store, path, path.read_text()


def _assert_200_is_a_miss(store):
    assert store.get(FP, 200) is None
    fallback = store.latest(FP)
    assert fallback is not None and fallback.serviced == 100


def test_sealed_cut_names_its_digest():
    text = _checkpoint().dumps()
    data = json.loads(text)
    assert sorted(data) == ["body", "sha256"]
    assert data["body"]["schema_version"] == STATE_SCHEMA_VERSION
    assert SimCheckpoint.loads(text).serviced == 100


@pytest.mark.parametrize("sealed", [True, False], ids=["sealed", "unsealed"])
def test_schema_1_cut_is_a_miss(tmp_path, sealed):
    """A cut from the schema-1 store (unsealed, block columns inline) or
    one relabelled schema 1 is a miss; latest falls back to the next
    valid cut."""
    store, path, _ = _store_with_cuts(tmp_path)
    old = _checkpoint(serviced=200, fingerprint=FP)
    old.schema_version = 1
    if sealed:
        path.write_text(old.dumps())
    else:
        path.write_text(json.dumps(old.to_dict(), sort_keys=True))
    _assert_200_is_a_miss(store)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_cut_is_a_miss(tmp_path_factory, data):
    store, path, text = _store_with_cuts(tmp_path_factory.mktemp("ckpt"))
    keep = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    path.write_text(text[:keep])
    _assert_200_is_a_miss(store)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_bit_flipped_cut_is_a_miss(tmp_path_factory, data):
    store, path, text = _store_with_cuts(tmp_path_factory.mktemp("ckpt"))
    raw = bytearray(text.encode("ascii"))
    offset = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[offset] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    path.write_bytes(bytes(raw))
    _assert_200_is_a_miss(store)


def test_disabled_store_is_inert(tmp_path):
    store = CheckpointStore(root=tmp_path, enabled=False)
    store.put(_checkpoint())
    assert list(tmp_path.iterdir()) == []
    assert store.cuts("ab" * 32) == []
    assert store.latest("ab" * 32) is None


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
def test_session_wants_explicit_cuts_and_interval():
    session = CheckpointSession(every=100, cuts=(0, 42))
    assert session.wants(0)
    assert session.wants(42)
    assert session.wants(100) and session.wants(200)
    assert not session.wants(41) and not session.wants(150)
    zero = CheckpointSession(every=0)
    assert not zero.wants(0) and not zero.wants(100)


def test_session_next_cut_merges_cuts_and_interval():
    session = CheckpointSession(every=100, cuts=(0, 42, 250))
    assert session.next_cut(0) == 42
    assert session.next_cut(42) == 100
    assert session.next_cut(99) == 100
    assert session.next_cut(200) == 250
    assert session.next_cut(250) == 300
    explicit = CheckpointSession(cuts=(0, 7))
    assert explicit.next_cut(0) == 7
    assert explicit.next_cut(7) is None
    assert CheckpointSession().next_cut(0) is None


def test_session_save_records_and_sinks():
    seen = []
    session = CheckpointSession(
        fingerprint="ab" * 32, sink=seen.append, meta={"workload": "lbm"}
    )
    checkpoint = session.save(250, payload=(1, 2))
    assert session.saved == [250]
    assert seen == [checkpoint]
    assert checkpoint.fingerprint == "ab" * 32
    assert checkpoint.meta == {"workload": "lbm"}


def test_session_rejects_mismatched_resume_fingerprint():
    foreign = _checkpoint(fingerprint="ef" * 32)
    with pytest.raises(ValueError, match="does not match"):
        CheckpointSession(fingerprint="ab" * 32, resume=foreign)
    # Without a declared fingerprint there is nothing to mismatch.
    session = CheckpointSession(resume=foreign)
    assert session.resumed_from == foreign.serviced


def test_session_rejects_negative_interval():
    with pytest.raises(ValueError, match=">= 0"):
        CheckpointSession(every=-1)


def test_checkpoint_env_gate(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
    assert not checkpoint_enabled_by_env()
    monkeypatch.setenv("REPRO_CHECKPOINT", "1")
    assert checkpoint_enabled_by_env()
    monkeypatch.setenv("REPRO_CHECKPOINT", "0")
    assert not checkpoint_enabled_by_env()
