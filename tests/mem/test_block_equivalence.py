"""Block controller path vs the scalar oracle: bit-identical runs.

Two oracle pairs are exercised here by their registered names:

* ``run_block_loop`` (the fused system loop) against
  ``SystemSimulator._run_scalar`` — full simulations with
  ``repro.mem.system.run_block_loop`` patched to the oracle for the
  scalar side, across every mitigation and representative workloads,
  with and without ``REPRO_SANITIZE=1``, with the fault model attached,
  and traced (metrics, ring events and JSONL bytes must all match);
* ``MemoryController.service_block`` against scalar ``service`` —
  fuzzed synthetic blocks driven through twin controllers, covering
  coupled and uncoupled arrival cadences, writes, and row misses.

Plus a property test of ``same_bank_runs``, the segmentation primitive
both kernels rest on.
"""

import contextlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.perf import run_workload
from repro.core.config import RRSConfig
from repro.core.rrs import RandomizedRowSwap
from repro.dram.address import AddressMapper
from repro.dram.config import DRAMConfig
from repro.dram.device import Channel
from repro.mem.block_kernel import run_block_loop, same_bank_runs
from repro.mem.controller import MemoryController
from repro.mem.request import MemoryRequest
from repro.mem.system import SystemConfig, SystemSimulator
from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig
from repro.mitigations.graphene import Graphene
from repro.mitigations.none import NoMitigation
from repro.mitigations.para import PARA
from repro.mitigations.trr import TargetedRowRefresh
from repro.obs import JsonlSink, Observability, RingSink, Tracer
from repro.state.checkpoint import CheckpointSession
from repro.workloads.suites import get_workload
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace import TRACE_BLOCK_DTYPE

SCALE = 32
RECORDS = 1_000
CORES = 2
# Traced runs: short enough windows, and long enough a run, for hmmer
# to cross a refresh window with RRS swaps and BlockHammer throttles.
TRACED_SCALE = 128
TRACED_RECORDS = 8_000


def _dram(scale=SCALE):
    return DRAMConfig().scaled(scale)


def _factories(scale=SCALE):
    dram = _dram(scale)
    scaled_t_rh = max(12, 4800 // scale)
    return {
        "none": NoMitigation,
        "rrs": lambda: RandomizedRowSwap(
            RRSConfig.for_threshold(4800, DRAMConfig()).scaled(scale), dram
        ),
        "graphene": lambda: Graphene(
            t_rh=scaled_t_rh,
            window_activations=dram.acts_per_refresh_window,
            rows_per_bank=dram.rows_per_bank,
        ),
        "trr": lambda: TargetedRowRefresh(rows_per_bank=dram.rows_per_bank),
        "para": lambda: PARA(rows_per_bank=dram.rows_per_bank),
        "blockhammer": lambda: BlockHammer(
            BlockHammerConfig(
                t_rh=scaled_t_rh,
                blacklist_threshold=max(2, 512 // scale),
                window_ns=dram.refresh_window_ns,
            )
        ),
    }


def _run(factory, block, workload="hmmer", records=RECORDS, seed=0,
         env=None, with_faults=False, checkpoints=None, obs=None,
         scale=SCALE):
    """One run on the kernel (``block``) or on the scalar oracle loop,
    selected by patching the system's loop name."""
    saved = {}
    for key, value in (env or {}).items():
        saved[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        with contextlib.ExitStack() as stack:
            if not block:
                stack.enter_context(
                    mock.patch(
                        "repro.mem.system.run_block_loop",
                        SystemSimulator._run_scalar,
                    )
                )
            return run_workload(
                get_workload(workload),
                factory(),
                scale=scale,
                records_per_core=records,
                cores=CORES,
                seed=seed,
                with_faults=with_faults,
                checkpoints=checkpoints,
                obs=obs,
            )
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


class TestBlockLoopEquivalence:
    """run_block_loop vs SystemSimulator._run_scalar (system-loop pair)."""

    @pytest.mark.parametrize("name", sorted(_factories()))
    @pytest.mark.parametrize("workload", ["hmmer", "stream"])
    def test_full_run_bit_identical(self, name, workload):
        factory = _factories()[name]
        block = _run(factory, block=True, workload=workload)
        scalar = _run(factory, block=False, workload=workload)
        assert block.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("workload", ["bzip2", "gromacs"])
    def test_remaining_suite_workloads_bit_identical(self, workload):
        factory = _factories()["rrs"]
        block = _run(factory, block=True, workload=workload)
        scalar = _run(factory, block=False, workload=workload)
        assert block.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("name", ["none", "rrs", "para"])
    def test_sanitized_run_bit_identical(self, name):
        """REPRO_SANITIZE=1 chains observers onto every bank, forcing
        the kernel's per-request replay path; results must not move."""
        factory = _factories()[name]
        env = {"REPRO_SANITIZE": "1"}
        block = _run(factory, block=True, env=env)
        scalar = _run(factory, block=False, env=env)
        assert block.to_dict() == scalar.to_dict()

    def test_sanitized_equals_unsanitized(self):
        """The sanitizer itself must be observationally invisible."""
        factory = _factories()["rrs"]
        plain = _run(factory, block=True)
        sanitized = _run(factory, block=True, env={"REPRO_SANITIZE": "1"})
        assert plain.to_dict() == sanitized.to_dict()

    def test_faulted_run_bit_identical(self):
        """A fault model removes banks from the kernel's inline set;
        they are serviced through Bank.access instead."""
        factory = _factories()["rrs"]
        block = _run(factory, block=True, with_faults=True)
        scalar = _run(factory, block=False, with_faults=True)
        assert block.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("seed", [1, 3])
    def test_seed_variation_bit_identical(self, seed):
        factory = _factories()["rrs"]
        block = _run(factory, block=True, seed=seed)
        scalar = _run(factory, block=False, seed=seed)
        assert block.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize(
        "name,categories,sanitize",
        [
            ("none", None, "0"),
            ("rrs", None, "0"),
            ("trr", None, "0"),
            ("blockhammer", None, "0"),
            ("rrs", None, "1"),
            # exec only: no command observers, so the banks stay inline.
            ("rrs", ("exec",), "0"),
        ],
        ids=["none", "rrs", "trr", "blockhammer", "rrs-sanitized",
             "rrs-exec-only"],
    )
    def test_traced_run_bit_identical(
        self, name, categories, sanitize, monkeypatch
    ):
        """A traced kernel run reproduces the traced oracle exactly:
        metrics with the exported registry (per-window series
        included), and every event in order."""
        monkeypatch.setenv("REPRO_SANITIZE", sanitize)
        runs = []
        for block in (True, False):
            sink = RingSink()
            obs = Observability(
                tracer=Tracer(sink, categories=categories), export_extra=True
            )
            metrics = _run(
                _factories(TRACED_SCALE)[name],
                block,
                records=TRACED_RECORDS,
                obs=obs,
                scale=TRACED_SCALE,
            )
            events = [event.to_dict() for event in sink.events]
            runs.append((metrics.to_dict(), events, sink.dropped))
        assert runs[0] == runs[1]
        metrics, events, dropped = runs[0]
        assert dropped == 0 and events
        # Each case exercises the probes it is here for.
        assert metrics["windows"] >= 1
        if name == "rrs":
            assert metrics["swaps"] > 0
        if name == "trr":
            assert metrics["victim_refreshes"] > 0
        if name == "blockhammer":
            assert metrics["throttle_delay_ns"] > 0

    def test_traced_jsonl_bytes_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        texts = []
        for block in (True, False):
            path = tmp_path / f"trace-{block}.jsonl"
            obs = Observability(
                tracer=Tracer(JsonlSink(str(path))), export_extra=True
            )
            _run(
                _factories(TRACED_SCALE)["rrs"],
                block,
                records=TRACED_RECORDS,
                obs=obs,
                scale=TRACED_SCALE,
            )
            obs.close()
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
        assert texts[0]

    def test_every_run_takes_the_kernel(self, monkeypatch):
        """SystemSimulator.run has one loop: untraced, checkpointed,
        traced and record-iterator runs all go through run_block_loop,
        and the scalar oracle never runs outside tests."""
        for key in ("REPRO_TRACE", "REPRO_SANITIZE"):
            monkeypatch.delenv(key, raising=False)

        def oracle(self, cores, budget=None):
            raise AssertionError("a production run called _run_scalar")

        monkeypatch.setattr(SystemSimulator, "_run_scalar", oracle)
        calls = []

        def kernel(sim, cores, budget=None):
            calls.append(budget)
            return run_block_loop(sim, cores, budget)

        monkeypatch.setattr("repro.mem.system.run_block_loop", kernel)

        def run(**kwargs):
            run_workload(
                get_workload("hmmer"),
                NoMitigation(),
                scale=SCALE,
                records_per_core=200,
                cores=CORES,
                **kwargs,
            )

        run()
        assert calls == [None]
        # Segments of 100 up to each cut; the last one finds the traces
        # exhausted at 400 requests.
        run(checkpoints=CheckpointSession(every=100))
        assert calls[1:] == [100] * 5
        run(obs=Observability(tracer=Tracer(RingSink()), export_extra=False))
        assert calls[6:] == [None]

        dram = _dram()
        sim = SystemSimulator(
            SystemConfig(dram=dram, cores=CORES), mitigation=NoMitigation()
        )
        spec = get_workload("hmmer")
        traces = [
            SyntheticTraceGenerator(
                spec, core_id=core_id, cores=CORES, config=dram
            ).records(200)
            for core_id in range(CORES)
        ]
        assert sim.run(traces, workload="hmmer").accesses == 200 * CORES
        assert calls[7:] == [None]

    @pytest.mark.parametrize("name", ["none", "rrs"])
    def test_unaligned_cuts_match_plain_run(self, name):
        """Checkpointed kernel runs cut every 257 requests (never on a
        block boundary, crossing several 4096-record blocks per core)
        and still finish bit-identical to a plain run."""
        factory = _factories()[name]
        saved = []
        session = CheckpointSession(
            every=257, sink=lambda ckpt: saved.append(ckpt.serviced)
        )
        cut = _run(factory, block=True, records=4_500, checkpoints=session)
        plain = _run(factory, block=True, records=4_500)
        assert cut.to_dict() == plain.to_dict()
        assert saved == list(range(257, 4_500 * CORES, 257))


class TestServiceBlockEquivalence:
    """MemoryController.service_block vs service (controller-service)."""

    def _controllers(self, mitigation_factory):
        dram = _dram()
        mapper = AddressMapper(dram)
        build = lambda: MemoryController(
            dram, Channel(dram), mitigation_factory(), mapper
        )
        return dram, mapper, build(), build()

    def _fuzz_block(self, dram, mapper, rng, n):
        banks = dram.banks_per_rank
        # Short same-bank bursts with occasional row changes: exercises
        # the vector hit path, the miss replay, and run segmentation.
        bank = rng.integers(0, banks, size=n)
        repeat = rng.integers(1, 12, size=n)
        bank = np.repeat(bank, repeat)[:n]
        if len(bank) < n:
            bank = np.concatenate(
                [bank, rng.integers(0, banks, size=n - len(bank))]
            )
        row = rng.integers(0, 4, size=n) * rng.integers(0, 2, size=n)
        row = np.cumsum(row) % dram.rows_per_bank
        block = np.empty(n, dtype=TRACE_BLOCK_DTYPE)
        block["address"] = mapper.encode_batch(
            channel=np.zeros(n, dtype=np.int64),
            rank=np.zeros(n, dtype=np.int64),
            bank=bank.astype(np.int64),
            row=row.astype(np.int64),
            column=rng.integers(0, dram.lines_per_row, size=n),
        )
        block["gap"] = 0
        block["is_write"] = rng.integers(0, 5, size=n) == 0
        return block

    @pytest.mark.parametrize("name", ["none", "rrs"])
    @pytest.mark.parametrize("cadence", ["uncoupled", "coupled", "mixed"])
    def test_fuzzed_blocks_bit_identical(self, name, cadence):
        dram, mapper, blocked, oracle = self._controllers(_factories()[name])
        rng = np.random.default_rng(hash((name, cadence)) & 0xFFFF)
        start = 0.0
        for round_index in range(4):
            n = int(rng.integers(64, 512))
            block = self._fuzz_block(dram, mapper, rng, n)
            slack = dram.t_cas + dram.line_transfer_ns
            if cadence == "uncoupled":
                gaps = slack + rng.random(n) * slack
            elif cadence == "coupled":
                gaps = rng.random(n) * 2.0
            else:
                gaps = rng.random(n) * 2.0 * slack
            arrivals = start + np.cumsum(gaps)
            start = float(arrivals[-1]) + 100.0
            completions = blocked.service_block(block, arrival_ns=arrivals)
            scalar = [
                oracle.service(
                    MemoryRequest(
                        address=int(block["address"][i]),
                        is_write=bool(block["is_write"][i]),
                        core_id=0,
                        arrival_ns=float(arrivals[i]),
                    )
                )
                for i in range(n)
            ]
            assert completions.tolist() == scalar
            assert blocked.stats == oracle.stats
        # Bank timing state must also converge, not just the totals.
        for left, right in zip(blocked._bank_table, oracle._bank_table):
            assert left.timing.snapshot_state() == right.timing.snapshot_state()
            assert left.window_act_counts == right.window_act_counts

    def test_interval_cadence_matches_explicit_arrivals(self):
        dram, mapper, blocked, oracle = self._controllers(NoMitigation)
        rng = np.random.default_rng(7)
        block = self._fuzz_block(dram, mapper, rng, 256)
        interval = dram.t_cas + dram.line_transfer_ns + 1.0
        arrivals = 5.0 + np.arange(256, dtype=np.float64) * interval
        via_interval = blocked.service_block(
            block, interval_ns=interval, start_ns=5.0
        )
        via_arrivals = oracle.service_block(block, arrival_ns=arrivals)
        assert via_interval.tolist() == via_arrivals.tolist()
        assert blocked.stats == oracle.stats


flat_bank_streams = st.lists(
    st.integers(min_value=0, max_value=6), min_size=0, max_size=200
)


@given(flat_banks=flat_bank_streams)
@settings(max_examples=200, deadline=None)
def test_same_bank_runs_segmentation_property(flat_banks):
    """same_bank_runs partitions the block into maximal constant runs:
    concatenating them reproduces the input, every run is constant,
    and adjacent runs differ (maximality)."""
    starts, ends = same_bank_runs(flat_banks)
    assert len(starts) == len(ends)
    flat = np.asarray(flat_banks)
    covered = []
    for k in range(len(starts)):
        begin, end = int(starts[k]), int(ends[k])
        assert begin < end
        run = flat[begin:end]
        assert (run == run[0]).all()
        if k:
            assert flat[begin] != flat[begin - 1]
        covered.extend(range(begin, end))
    assert covered == list(range(len(flat_banks)))
