"""Workloads of the repository benchmark and their output checks.

Every workload runs serially in one process at epoch scale 32 and
T_RH 4800, with the result cache off. The workload seed reaches the
simulator only through ``SweepPoint.seed``, ``run_workload(seed=)`` and
``RRSConfig.seed``; everything else is a generated input.

A workload is a list of *units* (sweep points or attack campaigns).
:func:`run_repetition` runs all of them once in a fresh temporary
``REPRO_CACHE_DIR`` and returns one :class:`UnitResult` per unit plus
the repetition-level errors (isolation, trace and checkpoint checks).
:func:`check_units` applies the per-unit output checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

SCALE = 32
T_RH = 4800

WORKLOADS = ("fig6-sweep", "defense-compare", "attack-campaign", "observed-sweep")

# mcf is left out: at records_per_core=None its window-covering length is
# capped at 120k records per core, which completes 0 refresh windows and
# fails the run-length guard below. comm5 takes its role (many distinct
# rows, no swaps) at a cost that leaves room for several repetitions.
FIG6_WORKLOADS = ("hmmer", "bzip2", "comm5")
# The observed sweep runs two trace blocks per core rather than its full
# window-covering length (~8 s per point with the JSONL sink), so a run
# holds several repetitions; sink and checkpoint costs are per request
# and per cut, and the default cadence still cuts each point 4 times.
OBSERVED_RECORDS = 8192
# The RRS points that must swap (the run-length guard).
MUST_SWAP = ("hmmer/rrs", "bzip2/rrs")

DEFENSES = ("graphene", "twice", "trr", "para", "ideal-vfm", "blockhammer")

# (defense, pattern) pairs. check_units expects every rrs campaign to end
# without flips and half-double to flip the victim-focused defenses.
CAMPAIGNS = (
    ("rrs", "double"),
    ("rrs", "many"),
    ("rrs", "half-double"),
    ("graphene", "half-double"),
    ("ideal-vfm", "half-double"),
)
# `repro attack` geometry and default budget, at the full threshold.
ATTACK_ROWS = 128 * 1024
ATTACK_BUDGET = 400_000


@dataclass
class UnitResult:
    """One sweep point or campaign: host seconds and simulated outputs."""

    label: str
    defense: str
    seconds: float = 0.0
    digest: str = ""
    requests: int = 0
    activations: int = 0
    windows: int = 0
    swaps: int = 0
    flips: int = 0
    row_hits: int = 0
    trace_bytes: int = 0
    error: str = ""
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.errors)


@dataclass
class Repetition:
    """One run of every unit of a workload."""

    units: List[UnitResult]
    wall_s: float
    errors: List[str]
    checkpoint_bytes: int = 0
    checkpoints: int = 0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sim_result(label: str, defense: str, metrics) -> UnitResult:
    from repro.mem.metrics import dumps

    return UnitResult(
        label=label,
        defense=defense,
        digest=_digest(dumps(metrics)),
        requests=metrics.accesses,
        activations=metrics.activations,
        windows=metrics.windows,
        swaps=metrics.swaps,
        flips=metrics.bit_flips,
        row_hits=metrics.row_buffer_hits,
    )


def _attack_result(label: str, defense: str, result) -> UnitResult:
    payload = {
        "activations": result.activations,
        "windows": result.windows,
        "swaps": result.swaps,
        "victim_refreshes": result.victim_refreshes,
        "elapsed_ns": result.elapsed_ns,
        "flips": [dataclasses.astuple(flip) for flip in result.flips],
    }
    return UnitResult(
        label=label,
        defense=defense,
        digest=_digest(json.dumps(payload, sort_keys=True)),
        # Every attacker request to the bank is one activation.
        requests=result.activations,
        activations=result.activations,
        windows=result.windows,
        swaps=result.swaps,
        flips=len(result.flips),
    )


@contextlib.contextmanager
def _environ(values: Dict[str, str]) -> Iterator[None]:
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _dir_bytes(root: Path) -> Tuple[int, int]:
    """(total bytes, file count) of the checkpoint files under ``root``."""
    total = count = 0
    for path in root.rglob("*.json"):
        total += path.stat().st_size
        count += 1
    return total, count


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
Unit = Tuple[str, str, Callable[[], UnitResult]]


def _sweep_units(names, defenses, seed: int, runner, trace_file: Optional[Path], records=None):
    from repro.exec import MitigationSpec, SweepPoint

    specs = {"none": MitigationSpec.none(), "rrs": MitigationSpec.rrs(t_rh=T_RH, scale=SCALE)}
    units: List[Unit] = []
    for name in names:
        for defense in defenses:
            point = SweepPoint(
                workload=name,
                mitigation=specs[defense],
                scale=SCALE,
                records_per_core=records,
                seed=seed,
                t_rh=T_RH,
            )
            label = f"{name}/{defense}"

            def unit(point=point, label=label, defense=defense) -> UnitResult:
                metrics = runner.run([point])[0]
                result = _sim_result(label, defense, metrics)
                if trace_file is not None:
                    # Every traced simulator reopens the default sink file,
                    # so its size after a point is that point's trace.
                    result.trace_bytes = trace_file.stat().st_size
                return result

            units.append((label, defense, unit))
    return units


def _defense(name: str):
    from repro.cli import _build_defense
    from repro.dram.config import DRAMConfig
    from repro.mitigations.para import PARA

    rows = DRAMConfig().scaled(SCALE).rows_per_bank
    if name == "para":
        # `repro run` has no PARA; this is the bench_mitigation recipe.
        return PARA(rows_per_bank=rows)
    return _build_defense(name, SCALE, T_RH, rows)


def _defense_units(seed: int) -> List[Unit]:
    units: List[Unit] = []
    for defense in DEFENSES:
        label = f"hmmer/{defense}"

        def unit(defense=defense, label=label) -> UnitResult:
            from repro.analysis.perf import run_workload
            from repro.workloads.suites import get_workload

            metrics = run_workload(
                get_workload("hmmer"), _defense(defense), scale=SCALE, seed=seed, t_rh=T_RH
            )
            return _sim_result(label, defense, metrics)

        units.append((label, defense, unit))
    return units


def _campaign(defense: str, pattern: str, seed: int):
    """The harness and row stream ``repro attack`` builds, at T_RH 4800."""
    from repro.attacks import AttackHarness, DoubleSidedAttack, HalfDoubleAttack, ManySidedAttack
    from repro.cli import _attack_defense
    from repro.core.rrs import RandomizedRowSwap
    from repro.dram.config import DRAMConfig

    mitigation = _attack_defense(defense, T_RH, ATTACK_ROWS)
    if defense == "rrs":
        mitigation = RandomizedRowSwap(
            dataclasses.replace(mitigation.config, seed=seed), mitigation.dram
        )
    attack = {
        "double": lambda: DoubleSidedAttack(10_000),
        "many": lambda: ManySidedAttack([10_000 + 4 * i for i in range(9)]),
        "half-double": lambda: HalfDoubleAttack(10_000, dose_interval=64),
    }[pattern]()
    classic = pattern != "half-double"
    dram = DRAMConfig(
        channels=1, banks_per_rank=1, rows_per_bank=ATTACK_ROWS, row_size_bytes=1024
    )
    harness = AttackHarness(
        mitigation,
        dram,
        t_rh=T_RH,
        distance2_coupling=0.0 if classic else 0.016,
        refresh_disturbs_neighbors=not classic,
    )
    return harness, attack


def _attack_units(seed: int) -> List[Unit]:
    units: List[Unit] = []
    for defense, pattern in CAMPAIGNS:
        label = f"{defense}/{pattern}"

        def unit(defense=defense, pattern=pattern, label=label) -> UnitResult:
            harness, attack = _campaign(defense, pattern, seed)
            result = harness.run(attack.rows(), max_activations=ATTACK_BUDGET)
            return _attack_result(label, defense, result)

        units.append((label, defense, unit))
    return units


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def run_repetition(
    workload: str,
    seed: int,
    scratch: Path,
    unit_hook: Optional[Callable] = None,
) -> Repetition:
    """Run every unit of ``workload`` once, isolated in a fresh cache dir.

    ``unit_hook(index, call)`` wraps each unit call (the traced run
    opens a root span there); by default the unit is called directly.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    trace_file = cache_dir / "repro-trace.jsonl"
    env = {"REPRO_CACHE_DIR": str(cache_dir), "REPRO_TRACE_FILE": str(trace_file)}
    observed = workload == "observed-sweep"
    if observed:
        env.update(REPRO_TRACE="1", REPRO_CHECKPOINT="1")
    try:
        with _environ(env):
            return _run_units(workload, seed, cache_dir, trace_file if observed else None, unit_hook)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _run_units(workload, seed, cache_dir, trace_file, unit_hook) -> Repetition:
    from repro.exec import SweepRunner

    runner = None
    if workload == "fig6-sweep":
        runner = SweepRunner(jobs=1, use_cache=False)
        units = _sweep_units(FIG6_WORKLOADS, ("none", "rrs"), seed, runner, None)
    elif workload == "observed-sweep":
        runner = SweepRunner(jobs=1, use_cache=False)
        units = _sweep_units(
            ("hmmer",), ("none", "rrs"), seed, runner, trace_file, OBSERVED_RECORDS
        )
    elif workload == "defense-compare":
        units = _defense_units(seed)
    elif workload == "attack-campaign":
        units = _attack_units(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

    results: List[UnitResult] = []
    started = time.perf_counter()
    for index, (label, defense, call) in enumerate(units):
        unit_started = time.perf_counter()
        try:
            result = unit_hook(index, call) if unit_hook is not None else call()
        except Exception as exc:  # a raising unit counts as failed
            traceback.print_exc()
            result = UnitResult(label=label, defense=defense, error=repr(exc))
        result.seconds = time.perf_counter() - unit_started
        results.append(result)
    wall_s = time.perf_counter() - started

    errors: List[str] = []
    rep = Repetition(units=results, wall_s=wall_s, errors=errors)
    if runner is not None:
        stats = runner.stats
        if stats.simulated != len(units):
            errors.append(f"simulated {stats.simulated} of {len(units)} points")
        if stats.resumed != 0:
            errors.append(f"{stats.resumed} point(s) resumed from earlier checkpoints")
        if stats.cache_hits != 0:
            errors.append(f"{stats.cache_hits} result-cache hit(s)")
    if workload == "observed-sweep":
        rep.checkpoint_bytes, rep.checkpoints = _dir_bytes(cache_dir / "checkpoints")
        if rep.checkpoints == 0 or runner.stats.checkpoints_saved != rep.checkpoints:
            errors.append(
                f"{rep.checkpoints} checkpoint file(s) on disk, "
                f"{runner.stats.checkpoints_saved} reported saved"
            )
    return rep


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_units(workload: str, units: List[UnitResult], golden: Optional[Dict[str, str]]) -> None:
    """Append each unit's failed output checks to its ``errors``.

    ``golden`` maps unit labels to the committed digests of the default
    seed (None for any other seed, where only the invariants apply).
    """
    for unit in units:
        if unit.error:
            continue
        if golden is not None and golden.get(unit.label) != unit.digest:
            unit.errors.append("digest differs from the committed golden digest")
        if workload in ("fig6-sweep", "defense-compare") and unit.windows < 1:
            unit.errors.append("completed no refresh window")
        if unit.label in MUST_SWAP and workload == "fig6-sweep" and unit.swaps == 0:
            unit.errors.append("RRS made no swaps")
        if workload == "attack-campaign":
            if unit.defense == "rrs" and unit.flips:
                unit.errors.append(f"RRS campaign flipped {unit.flips} bit(s)")
            if unit.label.endswith("/half-double") and unit.defense != "rrs" and not unit.flips:
                unit.errors.append("half-double did not flip a victim-focused defense")
        if workload == "observed-sweep" and unit.trace_bytes == 0:
            unit.errors.append("the default trace sink wrote nothing")


def check_same_digests(reps: List[List[UnitResult]], what: str) -> None:
    """Fail every unit whose digest differs from the first repetition's."""
    first = {unit.label: unit.digest for unit in reps[0]}
    for units in reps[1:]:
        for unit in units:
            if not unit.error and first.get(unit.label) not in ("", unit.digest):
                unit.errors.append(f"digest differs between {what}")
