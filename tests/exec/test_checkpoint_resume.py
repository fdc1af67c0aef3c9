"""Runner/checkpoint integration: resume-on-retry and warm-start forks.

The load-bearing guarantees:

* with ``REPRO_CHECKPOINT=1`` a crashed attempt's retry resumes from
  the deepest persisted cut — metrics bit-identical to a clean run,
  provably fewer requests re-simulated;
* the retry budget comes from ``$REPRO_MAX_RETRIES`` (validated) or
  the ``max_retries`` constructor argument, and is recorded per ledger
  row along with the checkpoint telemetry;
* cross-length warm-start forks obey the block-alignment and
  no-exhausted-core rules.
"""

import pytest

from repro.exec import MitigationSpec, ResultCache, SweepPoint, SweepRunner
from repro.exec.runner import (
    DEFAULT_MAX_RETRIES,
    _checkpoint_every,
    _checkpoint_session,
    _resume_usable,
    execute_point,
    max_retries_from_env,
)
from repro.mem.system import sanitize_requested
from repro.obs.ledger import STATUS_FAILED, STATUS_RETRIED, RunLedger
from repro.workloads.trace import TRACE_BLOCK_RECORDS


def _point(records=600, **overrides):
    kwargs = dict(
        workload="stream",
        mitigation=MitigationSpec.none(),
        scale=32,
        records_per_core=records,
        cores=2,
    )
    kwargs.update(overrides)
    return SweepPoint(**kwargs)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache", ResultCache(enabled=False))
    kwargs.setdefault(
        "ledger", RunLedger(path=tmp_path / "ledger.jsonl", enabled=True)
    )
    return SweepRunner(**kwargs)


def _enable_checkpoints(monkeypatch, tmp_path, every=400):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ckpt-cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT", "1")
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", str(every))


# ----------------------------------------------------------------------
# $REPRO_MAX_RETRIES validation and plumbing
# ----------------------------------------------------------------------
def test_max_retries_env_default_and_parse(monkeypatch):
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    assert max_retries_from_env() == DEFAULT_MAX_RETRIES
    monkeypatch.setenv("REPRO_MAX_RETRIES", "3")
    assert max_retries_from_env() == 3
    monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
    assert max_retries_from_env() == 0


_ENV_READERS = {
    "REPRO_MAX_RETRIES": max_retries_from_env,
    "REPRO_CHECKPOINT_EVERY": lambda: _checkpoint_every(100),
}


@pytest.mark.parametrize(
    "name, raw",
    [
        pytest.param(name, raw, id=raw if name == "REPRO_MAX_RETRIES"
                     else f"{name}={raw}")
        for name in _ENV_READERS
        for raw in ("-1", "two", "1.5", " ")
    ],
)
def test_max_retries_env_rejects_garbage_loudly(monkeypatch, name, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError, match=name):
        _ENV_READERS[name]()


def test_runner_max_retries_argument_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
    assert _runner(tmp_path).max_retries == 5
    assert _runner(tmp_path, max_retries=2).max_retries == 2
    with pytest.raises(ValueError, match="non-negative"):
        _runner(tmp_path, max_retries=-1)


def test_zero_retry_budget_fails_fast(tmp_path, monkeypatch):
    fault = tmp_path / "fault"
    fault.write_text("raise")
    monkeypatch.setenv("REPRO_TEST_FAULT_ONCE", str(fault))
    runner = _runner(tmp_path, max_retries=0)
    with pytest.raises(RuntimeError, match="no result"):
        runner.run([_point()])
    assert runner.stats.failed == 1
    assert runner.stats.retried == 0
    (row,) = runner.ledger.read()
    assert row.status == STATUS_FAILED
    assert row.max_retries == 0


def test_larger_retry_budget_survives_repeated_faults(tmp_path, monkeypatch):
    point = _point()
    clean = SweepRunner(jobs=1, cache=ResultCache(enabled=False),
                        use_ledger=False).run([point])[0]
    # One raise-mode fault consumed on the first attempt; budget 3.
    fault = tmp_path / "fault"
    fault.write_text("raise")
    monkeypatch.setenv("REPRO_TEST_FAULT_ONCE", str(fault))
    runner = _runner(tmp_path, max_retries=3)
    assert runner.run([point])[0] == clean
    rows = runner.ledger.read()
    assert [row.status for row in rows] == [STATUS_FAILED, STATUS_RETRIED]
    assert all(row.max_retries == 3 for row in rows)


# ----------------------------------------------------------------------
# Checkpoint session construction
# ----------------------------------------------------------------------
def test_session_absent_unless_opted_in(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
    assert _checkpoint_session(_point()) is None


def test_checkpoint_every_default_is_block_aligned(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
    assert _checkpoint_every(16 * TRACE_BLOCK_RECORDS) == 4 * TRACE_BLOCK_RECORDS
    # Tiny runs still cut at least once per block interval.
    assert _checkpoint_every(100) == TRACE_BLOCK_RECORDS
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "500")
    assert _checkpoint_every(100) == 500
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "nope")
    with pytest.raises(ValueError, match="REPRO_CHECKPOINT_EVERY"):
        _checkpoint_every(100)


def test_fingerprint_folds_the_sanitizer_flag_not_its_spelling(monkeypatch):
    """Every spelling that leaves the simulator unsanitized (unset,
    ``0``, ``true``) names one stream; only ``1`` turns the sanitizer
    on, and only it moves the fingerprint."""
    point = _point()
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    unset = point.checkpoint_fingerprint()
    for raw in ("0", "true"):
        monkeypatch.setenv("REPRO_SANITIZE", raw)
        assert not sanitize_requested()
        assert point.checkpoint_fingerprint() == unset
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_requested()
    assert point.checkpoint_fingerprint() != unset


class _FakeCheckpoint:
    def __init__(self, serviced, origin):
        self.serviced = serviced
        self.meta = {"records_per_core": origin}


def test_resume_usable_rules():
    # Same length: any cut.
    assert _resume_usable(_FakeCheckpoint(10_000, 2000), 2000)
    # Cross-length: origin must be block-aligned AND the cut must sit
    # strictly before the origin's per-core count.
    aligned = TRACE_BLOCK_RECORDS
    assert _resume_usable(_FakeCheckpoint(aligned - 1, aligned), 3 * aligned)
    assert not _resume_usable(_FakeCheckpoint(aligned, aligned), 3 * aligned)
    assert not _resume_usable(_FakeCheckpoint(100, 2000), 3000)  # unaligned
    assert not _resume_usable(_FakeCheckpoint(100, "2000"), 3000)  # no meta


# ----------------------------------------------------------------------
# Resume-on-retry: crash after a persisted cut
# ----------------------------------------------------------------------
def test_crash_after_checkpoint_resumes_and_matches(tmp_path, monkeypatch):
    point = _point()
    clean = SweepRunner(jobs=1, cache=ResultCache(enabled=False),
                        use_ledger=False).run([point])[0]

    _enable_checkpoints(monkeypatch, tmp_path, every=400)
    fault = tmp_path / "after-ckpt"
    fault.write_text("raise")
    monkeypatch.setenv("REPRO_TEST_FAULT_AFTER_CKPT", str(fault))

    runner = _runner(tmp_path)
    result = runner.run([point])[0]

    assert result == clean  # bit-identical despite crash + resume
    assert not fault.exists()  # hook consumed exactly once
    assert runner.stats.retried == 1
    assert runner.stats.resumed == 1  # the retry started from a cut
    assert runner.stats.checkpoints_saved > 0

    rows = runner.ledger.read()
    assert [row.status for row in rows] == [STATUS_FAILED, STATUS_RETRIED]
    final = rows[-1]
    # The retry resumed from the first persisted cut (serviced=400), so
    # it re-simulated strictly fewer than the full 1200 requests.
    assert final.resumed_from == 400
    assert final.checkpoints > 0
    assert final.max_retries == runner.max_retries


def test_checkpointed_run_without_crash_matches_plain(tmp_path, monkeypatch):
    point = _point()
    plain = SweepRunner(jobs=1, cache=ResultCache(enabled=False),
                        use_ledger=False).run([point])[0]
    _enable_checkpoints(monkeypatch, tmp_path, every=500)
    runner = _runner(tmp_path)
    assert runner.run([point])[0] == plain
    (row,) = runner.ledger.read()
    assert row.resumed_from == 0  # nothing persisted beforehand
    assert row.checkpoints == 2  # cuts at 500 and 1000 of 1200


def test_second_run_resumes_from_persisted_cut(tmp_path, monkeypatch):
    point = _point()
    _enable_checkpoints(monkeypatch, tmp_path, every=500)
    first = execute_point(point)
    session = _checkpoint_session(point)
    assert session.resumed_from == 1000  # deepest cut of the first run
    assert execute_point(point, checkpoints=session) == first


def test_parallel_crash_resume_matches_serial(tmp_path, monkeypatch):
    """Pool path: a hard worker death resumes from the persisted cut."""
    points = [_point(), _point(seed=7)]
    clean = SweepRunner(jobs=1, cache=ResultCache(enabled=False),
                        use_ledger=False).run(points)

    _enable_checkpoints(monkeypatch, tmp_path, every=400)
    fault = tmp_path / "after-ckpt"
    fault.write_text("")  # empty body = os._exit(3), a hard death
    monkeypatch.setenv("REPRO_TEST_FAULT_AFTER_CKPT", str(fault))

    runner = _runner(tmp_path, jobs=2)
    assert runner.run(points) == clean
    # The dead worker poisons its pool, so the sibling point may be
    # retried too — at least the crashed one was.
    assert runner.stats.retried >= 1
    assert runner.stats.resumed >= 1
