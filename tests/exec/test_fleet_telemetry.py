"""Fleet telemetry: ledger recording, crash containment, determinism.

The two load-bearing guarantees under test:

* the run ledger is purely observational — a sweep with it enabled is
  bit-identical to one with it disabled;
* a crashed worker attempt is contained — the point is retried once,
  the retry's metrics are bit-identical to a clean run (determinism),
  and the failure is recorded in the ledger instead of aborting.
"""

import os

import pytest

from repro.exec import MitigationSpec, ResultCache, SweepPoint, SweepRunner
from repro.obs.ledger import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    RunLedger,
)


def _point(workload="stream", records=600, **overrides):
    kwargs = dict(
        workload=workload,
        mitigation=MitigationSpec.none(),
        scale=32,
        records_per_core=records,
        cores=2,
    )
    kwargs.update(overrides)
    return SweepPoint(**kwargs)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache", ResultCache(root=tmp_path / "cache"))
    kwargs.setdefault(
        "ledger", RunLedger(path=tmp_path / "ledger.jsonl", enabled=True)
    )
    return SweepRunner(**kwargs)


# ----------------------------------------------------------------------
# Ledger recording
# ----------------------------------------------------------------------
def test_sweep_records_one_row_per_point(tmp_path):
    runner = _runner(tmp_path)
    points = [_point(), _point(seed=3)]
    runner.run(points, label="fig6")

    rows = runner.ledger.read()
    assert len(rows) == 2
    assert all(row.status == STATUS_OK for row in rows)
    assert all(row.run_id == runner.run_id for row in rows)
    assert all(row.label == "fig6" for row in rows)
    assert all(row.worker > 0 for row in rows)
    assert all(row.wall_seconds > 0 for row in rows)
    assert all(row.ts > 0 for row in rows)
    assert {row.seed for row in rows} == {0, 3}
    assert rows[0].summary["accesses"] > 0


def test_cache_hits_recorded_as_cached(tmp_path):
    point = _point()
    _runner(tmp_path).run([point])

    second = _runner(tmp_path, ledger=RunLedger(
        path=tmp_path / "second.jsonl", enabled=True
    ))
    second.run([point])
    (row,) = second.ledger.read()
    assert row.status == STATUS_CACHED
    assert row.cache_hit is True
    assert row.summary["accesses"] > 0
    assert row.requests_per_second is None  # no wall time was spent


def test_cache_key_in_ledger_matches_point(tmp_path):
    point = _point()
    runner = _runner(tmp_path)
    runner.run([point])
    (row,) = runner.ledger.read()
    assert row.cache_key == point.cache_key()


def test_ledger_does_not_perturb_results(tmp_path):
    """Bit-identical SimMetrics with the ledger on and off."""
    points = [_point(), _point(seed=9)]
    with_ledger = _runner(tmp_path, cache=ResultCache(enabled=False))
    without = SweepRunner(
        jobs=1, cache=ResultCache(enabled=False), use_ledger=False
    )
    assert with_ledger.run(points) == without.run(points)
    assert len(with_ledger.ledger.read()) == 2
    assert without.ledger.read() == []


def test_single_point_sweep_runs_in_process(tmp_path):
    """One point never pays for a process pool, whatever ``jobs`` is."""
    runner = _runner(tmp_path, jobs=2)
    runner.run([_point()])
    (row,) = runner.ledger.read()
    assert row.worker == os.getpid()


# ----------------------------------------------------------------------
# Crash containment: serial path (raise-mode fault)
# ----------------------------------------------------------------------
def test_serial_fault_is_retried_and_bit_identical(tmp_path, monkeypatch, capsys):
    point = _point()
    clean = SweepRunner(jobs=1, cache=ResultCache(enabled=False),
                        use_ledger=False).run([point])[0]

    fault = tmp_path / "fault"
    fault.write_text("raise")
    monkeypatch.setenv("REPRO_TEST_FAULT_ONCE", str(fault))
    runner = _runner(tmp_path, cache=ResultCache(enabled=False), progress=True)
    result = runner.run([point])[0]

    assert result == clean  # determinism makes the retry exact
    assert not fault.exists()  # hook consumed exactly once
    assert runner.stats.retried == 1
    assert runner.stats.failed == 0
    err = capsys.readouterr().err
    assert "retrying stream/none@1/32 (budget 1) after worker failure" in err
    assert "1 retried" in err

    statuses = [row.status for row in runner.ledger.read()]
    assert statuses == [STATUS_FAILED, STATUS_RETRIED]
    failed_row = runner.ledger.read()[0]
    assert "injected worker fault" in failed_row.error
    assert failed_row.summary == {}


def test_serial_double_failure_aborts_but_is_ledgered(tmp_path, monkeypatch):
    import repro.exec.runner as runner_module

    def _always_fails(point):
        raise RuntimeError("persistent failure")

    monkeypatch.setattr(runner_module, "_timed_execute_point", _always_fails)
    runner = _runner(tmp_path, cache=ResultCache(enabled=False))
    with pytest.raises(RuntimeError, match="1 of 1"):
        runner.run([_point()])
    assert runner.stats.failed == 1
    rows = runner.ledger.read()
    # One failure row per attempt: the retry is not hidden either.
    assert [row.status for row in rows] == [STATUS_FAILED, STATUS_FAILED]
    assert all("persistent failure" in row.error for row in rows)


# ----------------------------------------------------------------------
# Crash containment: parallel path (worker killed hard)
# ----------------------------------------------------------------------
def test_parallel_worker_death_is_retried_and_bit_identical(
    tmp_path, monkeypatch
):
    points = [_point(), _point(seed=5)]
    clean = SweepRunner(jobs=1, cache=ResultCache(enabled=False),
                        use_ledger=False).run(points)

    fault = tmp_path / "fault"
    fault.write_text("")  # default mode: os._exit(3) in the worker
    monkeypatch.setenv("REPRO_TEST_FAULT_ONCE", str(fault))
    runner = _runner(tmp_path, jobs=2, cache=ResultCache(enabled=False))
    results = runner.run(points)

    assert results == clean
    assert not fault.exists()
    assert runner.stats.retried >= 1  # a dead pool can fail siblings too
    assert runner.stats.failed == 0

    rows = runner.ledger.read()
    statuses = {row.status for row in rows}
    assert STATUS_FAILED in statuses  # the first attempt is not hidden
    assert statuses <= {STATUS_FAILED, STATUS_RETRIED, STATUS_OK}
    final = [row for row in rows if row.status in (STATUS_RETRIED, STATUS_OK)]
    assert len(final) == 2  # every point ultimately succeeded
    assert all(row.summary["accesses"] > 0 for row in final)


def test_points_a_broken_pool_never_started_spend_no_budget(
    tmp_path, monkeypatch
):
    """Only dispatched points pay for a pool break; the rest carry over."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    import repro.exec.runner as runner_module

    class _BreaksInFirstRound:
        """Round 1: the first point's worker dies, later submits are
        refused. Later rounds run points in-process."""

        pools = 0

        def __init__(self, max_workers):
            type(self).pools += 1
            self.broken = type(self).pools == 1
            self.submitted = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def submit(self, fn, *args):
            self.submitted += 1
            future = Future()
            if not self.broken:
                future.set_result(fn(*args))
            elif self.submitted == 1:
                future.set_exception(BrokenProcessPool("worker died"))
            else:
                raise BrokenProcessPool("pool is broken")
            return future

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _BreaksInFirstRound)
    runner = _runner(
        tmp_path, jobs=2, cache=ResultCache(enabled=False), max_retries=0
    )
    with pytest.raises(RuntimeError, match="1 of 3"):
        runner.run([_point(seed=seed) for seed in (1, 2, 3)])
    statuses = {row.seed: row.status for row in runner.ledger.read()}
    assert statuses == {1: STATUS_FAILED, 2: STATUS_OK, 3: STATUS_OK}
