"""Columnar vs scalar pipeline: bit-identical ``SimMetrics``.

The columnar front end (chunked traces, batched decode, pooled
requests) must be invisible in the results: a run fed ``.records()``
iterators (packed into blocks by ``Core``) and one fed ``.chunks()``
blocks produce identical ``SimMetrics.to_dict()``, equal to the scalar
oracle loop's — for the baseline and under RRS, and with
the protocol sanitizer (``REPRO_SANITIZE=1``) and the env-driven
tracer (``REPRO_TRACE``) composed on top, proving the fast path does
not bypass the sanitizer or tracer hooks.
"""

import pytest

from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.config import DRAMConfig
from repro.mem.system import SystemConfig, SystemSimulator
from repro.mitigations.none import NoMitigation
from repro.workloads import SyntheticTraceGenerator, get_workload

SCALE = 128
CORES = 2
RECORDS_PER_CORE = 1500
WORKLOAD = "bzip2"


def _mitigation(kind: str):
    if kind == "baseline":
        return NoMitigation()
    return RandomizedRowSwap(
        RRSConfig.for_threshold(4800, DRAMConfig()).scaled(SCALE)
    )


def _run(kind: str, columnar: bool):
    """One system run; mirrors ``run_workload`` but picks the trace view."""
    spec = get_workload(WORKLOAD)
    dram = DRAMConfig().scaled(SCALE)
    config = SystemConfig(dram=dram, cores=CORES)
    sim = SystemSimulator(config, mitigation=_mitigation(kind))
    traces = []
    for core_id in range(CORES):
        generator = SyntheticTraceGenerator(
            spec.component_for_core(core_id),
            core_id=core_id,
            cores=CORES,
            config=dram,
            seed=0,
        )
        traces.append(
            generator.chunks(RECORDS_PER_CORE)
            if columnar
            else generator.records(RECORDS_PER_CORE)
        )
    return sim.run(traces, workload=spec.name)


@pytest.mark.parametrize("kind", ["baseline", "rrs"])
def test_columnar_matches_scalar_bit_identically(kind, monkeypatch):
    columnar = _run(kind, columnar=True).to_dict()
    records = _run(kind, columnar=False).to_dict()
    monkeypatch.setattr(
        "repro.mem.system.run_block_loop", SystemSimulator._run_scalar
    )
    oracle = _run(kind, columnar=True).to_dict()
    assert columnar == records == oracle


@pytest.mark.parametrize("kind", ["baseline", "rrs"])
def test_fast_path_keeps_sanitizer_and_tracer_in_the_loop(
    kind, monkeypatch
):
    plain = _run(kind, columnar=True).to_dict()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_TRACE", "all")
    monkeypatch.setenv("REPRO_TRACE_SINK", "ring")
    columnar = _run(kind, columnar=True)
    scalar = _run(kind, columnar=False)
    # Sanitizer + tracer perturb nothing, and both pipelines still agree.
    assert columnar.to_dict() == plain
    assert scalar.to_dict() == plain
