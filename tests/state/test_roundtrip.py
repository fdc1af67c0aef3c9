"""The checkpoint round-trip oracle.

For every mitigation: snapshot at a cut, serialize through strict JSON
(exactly what a fresh process would load from disk), restore into a
freshly constructed simulator, run to completion — the resulting
:class:`SimMetrics` must be bit-identical to the uninterrupted run.
Cut points are fuzzed over the whole run, including the degenerate
cut-before-the-first-request (0) and cut-after-the-last-request
(total) ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mem.system import SystemSimulator
from repro.mitigations import (
    PARA,
    BlockHammer,
    BlockHammerConfig,
    Graphene,
    IdealVictimRefresh,
    NoMitigation,
    TWiCe,
    TargetedRowRefresh,
)
from repro.state.checkpoint import CheckpointSession, SimCheckpoint
from repro.workloads.suites import get_workload

SCALE = 128
CORES = 2
RECORDS = 600
TOTAL = RECORDS * CORES
SEED = 1
# Cut grid: both degenerate ends, an odd mid-run point, a block-unaligned
# early point, and the penultimate request.
CUT_GRID = (0, 1, 257, 600, TOTAL - 1, TOTAL)

MITIGATIONS = (
    "none",
    "rrs",
    "para",
    "graphene",
    "twice",
    "trr",
    "ideal_vfm",
    "blockhammer",
)


def _mitigation(name: str):
    """A fresh mitigation instance (state is never shared across runs)."""
    dram = DRAMConfig().scaled(SCALE)
    rows = DRAMConfig().rows_per_bank
    t_rh = max(12, 4800 // SCALE)
    if name == "none":
        return NoMitigation()
    if name == "rrs":
        return RandomizedRowSwap(
            RRSConfig.for_threshold(4800, DRAMConfig()).scaled(SCALE), dram
        )
    if name == "para":
        return PARA(probability=0.02, rows_per_bank=rows, seed=SEED)
    if name == "graphene":
        return Graphene(
            t_rh=t_rh,
            window_activations=dram.acts_per_refresh_window,
            rows_per_bank=rows,
        )
    if name == "twice":
        return TWiCe(t_rh=t_rh, window_ns=dram.refresh_window_ns, rows_per_bank=rows)
    if name == "trr":
        return TargetedRowRefresh(rows_per_bank=rows)
    if name == "ideal_vfm":
        return IdealVictimRefresh(t_rh=t_rh, rows_per_bank=rows)
    if name == "blockhammer":
        return BlockHammer(
            BlockHammerConfig(
                t_rh=t_rh,
                blacklist_threshold=4,
                window_ns=dram.refresh_window_ns,
            )
        )
    raise ValueError(name)


def _run(name: str, session=None, with_faults: bool = False, records=RECORDS):
    return run_workload(
        get_workload("lbm"),
        _mitigation(name),
        scale=SCALE,
        records_per_core=records,
        cores=CORES,
        seed=SEED,
        with_faults=with_faults,
        checkpoints=session,
    )


@functools.lru_cache(maxsize=None)
def _scratch(name: str, with_faults: bool = False):
    """One uninterrupted run capturing a JSON checkpoint at every cut."""
    captured = {}
    session = CheckpointSession(
        cuts=CUT_GRID,
        sink=lambda ckpt: captured.setdefault(ckpt.serviced, ckpt.dumps()),
    )
    metrics = _run(name, session, with_faults=with_faults)
    assert sorted(captured) == sorted(CUT_GRID)
    return metrics, captured


def _resume(name: str, cut: int, with_faults: bool = False):
    baseline, captured = _scratch(name, with_faults)
    reloaded = SimCheckpoint.loads(captured[cut])
    resumed = _run(
        name,
        CheckpointSession(resume=reloaded),
        with_faults=with_faults,
    )
    return baseline, resumed


# ----------------------------------------------------------------------
# The oracle, per mitigation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", MITIGATIONS)
@pytest.mark.parametrize("cut", [0, TOTAL])
def test_degenerate_cuts_roundtrip(name, cut):
    """Cut before the first request and after the last one."""
    baseline, resumed = _resume(name, cut)
    assert resumed == baseline


@pytest.mark.parametrize("name", MITIGATIONS)
@settings(max_examples=4, deadline=None)
@given(cut=st.sampled_from(CUT_GRID))
def test_fuzzed_cuts_roundtrip(name, cut):
    baseline, resumed = _resume(name, cut)
    assert resumed == baseline


# ----------------------------------------------------------------------
# Behaviour-shaping toggles
# ----------------------------------------------------------------------
def test_roundtrip_with_fault_model():
    baseline, resumed = _resume("rrs", 257, with_faults=True)
    assert resumed == baseline


def test_roundtrip_under_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    _scratch.cache_clear()  # sanitizer state must be inside the payload
    try:
        baseline, resumed = _resume("rrs", 257)
        assert resumed == baseline
    finally:
        _scratch.cache_clear()


def test_roundtrip_with_scalar_mitigation_path(monkeypatch):
    """``batch_scope = None`` on the instance routes every activation
    through the scalar ``on_activation`` oracle."""
    build = _mitigation

    def scalar_path(name):
        mitigation = build(name)
        mitigation.batch_scope = None
        return mitigation

    monkeypatch.setattr(sys.modules[__name__], "_mitigation", scalar_path)
    _scratch.cache_clear()
    try:
        baseline, resumed = _resume("rrs", 257)
        assert resumed == baseline
    finally:
        _scratch.cache_clear()


def test_roundtrip_matches_either_loop(monkeypatch):
    """A resume is bit-identical to the plain run on the block kernel
    and on the scalar oracle loop (scalar == block is pinned by
    tests/mem)."""
    baseline, resumed = _resume("rrs", 257)
    plain = _run("rrs")
    _force_scalar_loop(monkeypatch)
    assert _run("rrs") == plain == baseline == resumed


def test_truncated_controller_states_are_refused():
    """A checkpoint missing one controller's state must not restore the
    remaining controllers and run on with the last one fresh."""
    _, captured = _scratch("none")
    reloaded = SimCheckpoint.loads(captured[257])
    payload = list(reloaded.payload)
    assert len(payload[2]) > 1
    payload[2] = payload[2][:-1]  # (cores, channels, controllers, ...)
    reloaded.payload = tuple(payload)
    with pytest.raises(ValueError, match="controller count"):
        _run("none", CheckpointSession(resume=reloaded))


def test_sanitizer_presence_mismatch_is_refused(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    _, captured = _scratch("none")
    reloaded = SimCheckpoint.loads(captured[257])
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with pytest.raises(ValueError, match="REPRO_SANITIZE"):
        _run("none", CheckpointSession(resume=reloaded))


def _with_core_field(checkpoint, core: int, field: int, value):
    """A copy of ``checkpoint`` with one field of one core's state
    replaced (core state: ..., ``_idx`` at 8, block anchor at 9)."""
    payload = list(checkpoint.payload)
    cores = list(payload[0])
    state = list(cores[core])
    state[field] = value
    cores[core] = tuple(state)
    payload[0] = cores
    return SimCheckpoint(
        fingerprint=checkpoint.fingerprint,
        serviced=checkpoint.serviced,
        payload=tuple(payload),
        meta=dict(checkpoint.meta),
    )


@settings(max_examples=6, deadline=None)
@given(
    core=st.integers(0, CORES - 1),
    past=st.one_of(st.integers(RECORDS, 10 * RECORDS), st.integers(-50, -1)),
)
def test_cursor_outside_the_regenerated_block_is_refused(core, past):
    """A cut whose cursor lies outside the block its anchor regenerates
    raises before a single request is resumed."""
    _, captured = _scratch("none")
    reloaded = SimCheckpoint.loads(captured[257])
    tampered = _with_core_field(reloaded, core, 8, past)
    with pytest.raises(ValueError, match="outside the"):
        _run("none", CheckpointSession(resume=tampered))


def test_live_core_without_an_anchor_is_refused():
    _, captured = _scratch("none")
    tampered = _with_core_field(SimCheckpoint.loads(captured[257]), 0, 9, None)
    with pytest.raises(ValueError, match="no block anchor"):
        _run("none", CheckpointSession(resume=tampered))


def test_cut_keeps_anchors_not_blocks():
    """Live cores carry a block anchor and cursor, never decoded block
    columns; exhausted cores carry no anchor."""
    _, captured = _scratch("none")
    for cut, live in ((257, True), (TOTAL, False)):
        for state in SimCheckpoint.loads(captured[cut]).payload[0]:
            assert len(state) == 10
            assert state[7] is not live  # _exhausted
            assert (state[9] is not None) is live
            # The only sequence is the ROB's outstanding-load list.
            assert [
                index for index, field in enumerate(state)
                if isinstance(field, (list, np.ndarray))
            ] == [3]


def test_hmmer_rrs_eight_core_cut_is_small():
    """A mid-block hmmer/rrs cut of an 8-core run (the `checkpoint`
    verb's default geometry) encodes to well under 200 KB; with the
    decoded blocks inline it was ~2 MB."""
    from repro.cli import _checkpoint_spec
    from repro.exec.runner import SweepPoint, execute_point

    point = SweepPoint(
        workload="hmmer",
        mitigation=_checkpoint_spec("rrs", 32, 4800),
        scale=32,
        records_per_core=8192,
        cores=8,
        t_rh=4800.0,
    )
    sizes = {}
    execute_point(
        point,
        checkpoints=CheckpointSession(
            cuts=(30_001,),
            sink=lambda ckpt: sizes.setdefault(ckpt.serviced, len(ckpt.dumps())),
        ),
    )
    assert 0 < sizes[30_001] < 200_000


# ----------------------------------------------------------------------
# Cuts are loop-independent
# ----------------------------------------------------------------------
def _force_scalar_loop(patch) -> None:
    """Send runs to the scalar oracle loop instead of the block kernel."""
    patch.setattr("repro.mem.system.run_block_loop", SystemSimulator._run_scalar)


def _cut_digests(name: str, scalar: bool, with_faults: bool, monkeypatch):
    """SHA-256 of every cut's ``dumps()`` (fault-model payloads run to
    tens of MB, so the texts themselves are not kept)."""
    captured = {}
    session = CheckpointSession(
        cuts=CUT_GRID,
        sink=lambda ckpt: captured.setdefault(
            ckpt.serviced, hashlib.sha256(ckpt.dumps().encode()).hexdigest()
        ),
    )
    with monkeypatch.context() as patch:
        if scalar:
            _force_scalar_loop(patch)
        metrics = _run(name, session, with_faults=with_faults)
    return metrics, captured


# (mitigation, REPRO_SANITIZE, fault model, REPRO_TRACE_SINK or "" for
# untraced).
LOOP_CASES = [
    (name, sanitize, with_faults, "")
    for name in MITIGATIONS
    for sanitize, with_faults in (("0", False), ("1", False), ("0", True))
] + [("rrs", "1", True, ""), ("rrs", "0", False, "ring")]


@pytest.mark.parametrize(
    "name,sanitize,with_faults,trace_sink",
    LOOP_CASES,
    ids=["-".join(str(value) for value in case if value != "")
         for case in LOOP_CASES],
)
def test_cuts_are_byte_identical_across_loops(
    name, sanitize, with_faults, trace_sink, monkeypatch
):
    """The kernel and the scalar loop leave identical state between
    requests, so every cut's JSON is the same whichever loop ran,
    traced or not."""
    monkeypatch.setenv("REPRO_SANITIZE", sanitize)
    if trace_sink:
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_SINK", trace_sink)
    kernel, kernel_cuts = _cut_digests(name, False, with_faults, monkeypatch)
    scalar, scalar_cuts = _cut_digests(name, True, with_faults, monkeypatch)
    assert kernel == scalar
    assert sorted(kernel_cuts) == sorted(CUT_GRID)
    for cut in CUT_GRID:
        assert kernel_cuts[cut] == scalar_cuts[cut], f"cut {cut} differs"


def test_cuts_across_block_boundaries_are_byte_identical(monkeypatch):
    """Cuts after the kernel has lean-loaded later trace blocks: the
    core's scalar column views must be rebuilt on exit, and a cut from
    either loop resumes on the other."""
    records = 4_500  # crosses the 4096-record block boundary per core
    run = functools.partial(_run, "rrs", records=records)

    def cuts():
        captured = {}
        run(
            CheckpointSession(
                cuts=(4_096, 8_200, 2 * records - 1),
                sink=lambda ckpt: captured.setdefault(
                    ckpt.serviced, ckpt.dumps()
                ),
            )
        )
        return captured

    plain = run()
    kernel = cuts()
    with monkeypatch.context() as patch:
        _force_scalar_loop(patch)
        scalar = cuts()
        resumed_on_scalar = run(
            CheckpointSession(resume=SimCheckpoint.loads(kernel[8_200]))
        )
    assert kernel == scalar
    resumed_on_kernel = run(
        CheckpointSession(resume=SimCheckpoint.loads(scalar[8_200]))
    )
    assert resumed_on_scalar == resumed_on_kernel == plain


# ----------------------------------------------------------------------
# Cross-process: restore in a fresh interpreter
# ----------------------------------------------------------------------
def test_resume_in_fresh_process_is_bit_identical(tmp_path):
    baseline, captured = _scratch("rrs")
    checkpoint_path = tmp_path / "cut.json"
    checkpoint_path.write_text(captured[600])
    script = (
        "import json, sys\n"
        "from repro.analysis.perf import run_workload\n"
        "from repro.state.checkpoint import CheckpointSession, SimCheckpoint\n"
        "from repro.workloads.suites import get_workload\n"
        "sys.path.insert(0, {helper!r})\n"
        "from test_roundtrip import SCALE, CORES, RECORDS, SEED, _mitigation\n"
        "ckpt = SimCheckpoint.loads(open({path!r}).read())\n"
        "metrics = run_workload(get_workload('lbm'), _mitigation('rrs'),\n"
        "    scale=SCALE, records_per_core=RECORDS, cores=CORES, seed=SEED,\n"
        "    checkpoints=CheckpointSession(resume=ckpt))\n"
        "print(json.dumps(metrics.to_dict(), sort_keys=True))\n"
    ).format(helper=str(Path(__file__).parent), path=str(checkpoint_path))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    resumed = json.loads(result.stdout.strip().splitlines()[-1])
    assert resumed == json.loads(
        json.dumps(baseline.to_dict(), sort_keys=True)
    )
