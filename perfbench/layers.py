"""Per-layer host-time accounting for the traced benchmark run.

The benchmark wraps public calls into each module of the simulator
(:data:`LAYER_CALLS`) with spans recorded in memory: a span holds a
name, start, end, parent span and unit (point or campaign) index. A
layer's self time is the time its spans cover minus the time covered
by their child spans, so nested layers are never counted twice and the
self times of all spans add up to the traced wall time; the part no
layer claims is reported as ``glue.residual_s``.

The block kernel inlines the controller, refresh and core issue, so
those calls never happen on the kernel path. They are measured instead
by replaying the first unit's columnar stream alone through
``AddressMapper.decode_batch`` and ``MemoryController.service_block``
(:func:`replay_stream`).

Wrappers are installed on classes and modules only for the traced
repetition and removed afterwards; the simulator's code is unchanged.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

# Mitigation class name -> the defense slug used in metric names.
DEFENSE_CLASSES = {
    "RandomizedRowSwap": "rrs",
    "Graphene": "graphene",
    "TWiCe": "twice",
    "TargetedRowRefresh": "trr",
    "PARA": "para",
    "IdealVictimRefresh": "ideal-vfm",
    "BlockHammer": "blockhammer",
}
DEFENSE_SLUGS = tuple(DEFENSE_CLASSES.values())

# Span names that are not layers: their self time is set-up glue.
ROOT_SPAN = "unit"
NON_LAYER_SPANS = (ROOT_SPAN, "exec.point")


class SpanRecorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.unit = array("i")
        self.next_id = 0
        self.stack = [-1]
        self.name_stack = [-1]
        self.unit_index = -1
        self.counts: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``observe(args, result, parent_name)``
        sees each call's result after the span closes."""
        rec = self
        name_id = self.name_id(name)
        stack, name_stack = self.stack, self.name_stack
        perf = time.perf_counter
        add_sid, add_name = self.sid.append, self.name.append
        add_start, add_end = self.start.append, self.end.append
        add_parent, add_unit = self.parent.append, self.unit.append

        def wrapper(*args, **kwargs):
            sid = rec.next_id
            rec.next_id = sid + 1
            parent = stack[-1]
            parent_name = name_stack[-1]
            stack.append(sid)
            name_stack.append(name_id)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                name_stack.pop()
                add_sid(sid)
                add_name(name_id)
                add_start(start)
                add_end(end)
                add_parent(parent)
                add_unit(rec.unit_index)
            if observe is not None:
                observe(args, result, parent_name)
            return result

        return wrapper

    def self_times(self) -> Dict[str, tuple]:
        """Per span name: (self seconds, span count)."""
        n = len(self.sid)
        if n == 0:
            return {}
        sid = np.frombuffer(self.sid, dtype=np.int64)
        dur = np.empty(n)
        parent = np.empty(n, dtype=np.int64)
        name = np.empty(n, dtype=np.int64)
        dur[sid] = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent[sid] = np.frombuffer(self.parent, dtype=np.int64)
        name[sid] = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - children
        by_name = np.bincount(name, weights=own, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {
            label: (float(by_name[i]), int(calls[i])) for i, label in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as a compressed .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            sid=np.frombuffer(self.sid, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            unit=np.frombuffer(self.unit, dtype=np.int32),
        )


class Patches:
    """Attribute replacements on classes/modules, undone by :meth:`undo`.

    Originals are resolved before anything is replaced, so a method a
    subclass inherits is wrapped once per class, never wrapped twice.
    """

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def apply(self, targets: List[tuple], make: Callable) -> None:
        """``targets`` are (owner, attribute, span name, observe) tuples;
        ``make(name, original, observe)`` builds each replacement."""
        resolved = [
            (owner, attr, name, observe, getattr(owner, attr), attr in vars(owner))
            for owner, attr, name, observe in targets
        ]
        for owner, attr, name, observe, original, own in resolved:
            self._undo.append((owner, attr, vars(owner)[attr] if own else None, own))
            setattr(owner, attr, make(name, original, observe))

    def undo(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _mitigation_classes():
    from repro.core.rrs import RandomizedRowSwap
    from repro.mitigations import (
        PARA,
        BlockHammer,
        Graphene,
        IdealVictimRefresh,
        NoMitigation,
        TargetedRowRefresh,
        TWiCe,
    )

    defended = [
        RandomizedRowSwap, Graphene, TWiCe, TargetedRowRefresh, PARA,
        IdealVictimRefresh, BlockHammer,
    ]
    return defended, NoMitigation


class LayerTracer:
    """Installs the layer wrappers and turns spans into metrics."""

    def __init__(self, capture_unit: Optional[int] = 0) -> None:
        self.recorder = SpanRecorder()
        self.patches = Patches()
        self.capture_unit = capture_unit
        self.captured: List[np.ndarray] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        from repro.attacks.base import AttackHarness
        from repro.dram.faults import DisturbanceModel
        from repro.dram.refresh import RefreshScheduler
        from repro.exec import runner as runner_module
        from repro.mem import system as system_module
        from repro.mem.controller import MemoryController
        from repro.mem.cpu import Core
        from repro.obs.tracer import JsonlSink
        from repro.state.checkpoint import CheckpointStore
        from repro.track.bloom import CountingBloomFilter
        from repro.workloads.synthetic import GeneratorChunks

        rec = self.recorder

        def on_block(args, block, parent_name):
            if block is not None:
                rec.count("workloads.blocks")
                if rec.unit_index == self.capture_unit:
                    self.captured.append(block)

        def on_sink_batch(args, result, parent_name):
            rec.count("obs.events", len(args[1]))

        targets = [
            (GeneratorChunks, "next_block", "workloads.gen", on_block),
            (MemoryController, "service", "mem.controller.service", None),
            (system_module, "run_block_loop", "mem.block_kernel", None),
            (system_module.SystemSimulator, "run", "mem.system", None),
            (Core, "issue", "mem.cpu", None),
            (Core, "complete", "mem.cpu", None),
            (RefreshScheduler, "advance_to", "dram.refresh.advance", None),
            (CountingBloomFilter, "observe", "track.bloom", None),
            (CountingBloomFilter, "estimate", "track.bloom", None),
            (DisturbanceModel, "on_activate", "dram.faults", None),
            (DisturbanceModel, "on_refresh_row", "dram.faults", None),
            (AttackHarness, "run", "attacks", None),
            (JsonlSink, "write_batch", "obs.sink", on_sink_batch),
            (JsonlSink, "flush", "obs.sink", None),
            (system_module.SystemSimulator, "checkpoint_payload", "state.snapshot", None),
            (CheckpointStore, "put", "state.put", None),
            (runner_module.SweepRunner, "run", "exec.runner", None),
            (runner_module, "execute_point", "exec.point", None),
        ]
        defended, baseline = _mitigation_classes()
        targets.append((baseline, "on_window_end", "dram.refresh.window_end", None))
        for cls in defended:
            slug = DEFENSE_CLASSES[cls.__name__]
            batch_id = rec.name_id(f"mitigations.{slug}.batch")
            actions = f"mitigations.{slug}.actions"

            # An outcome counts once, where the mitigation hands it back
            # to its caller: not when the batch path forwards the last
            # activation to on_activation.
            def on_outcome(args, outcome, parent_name, batch_id=batch_id, actions=actions):
                if parent_name != batch_id and outcome is not None and not outcome.is_noop:
                    rec.count(actions)

            targets += [
                (cls, "on_activation", f"mitigations.{slug}.act", on_outcome),
                (cls, "on_activation_batch", f"mitigations.{slug}.batch", on_outcome),
                (cls, "on_window_end", "dram.refresh.window_end", None),
            ]
        self.patches.apply(targets, rec.wrap)

    def uninstall(self) -> None:
        self.patches.undo()

    def unit_hook(self, index: int, call: Callable):
        """Run one unit under a root span (see suite.run_repetition)."""
        self.recorder.unit_index = index
        return self.recorder.wrap(ROOT_SPAN, call)()

    # -- metrics -------------------------------------------------------
    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Span-derived per-layer metrics for a traced wall of ``wall_s``."""
        spans = self.recorder.self_times()
        counts = self.recorder.counts

        def own(name: str) -> float:
            return spans.get(name, (0.0, 0))[0]

        def calls(name: str) -> int:
            return spans.get(name, (0.0, 0))[1]

        out = {
            "workloads.gen_s": own("workloads.gen"),
            "workloads.blocks": counts.get("workloads.blocks", 0),
            "mem.controller.service_s": own("mem.controller.service"),
            "mem.block_kernel.self_s": own("mem.block_kernel"),
            "mem.system.self_s": own("mem.system"),
            "mem.cpu.issue_s": own("mem.cpu"),
            "dram.refresh.advance_s": own("dram.refresh.advance"),
            "dram.refresh.window_end_s": own("dram.refresh.window_end"),
            "track.bloom.s": own("track.bloom"),
            "track.bloom.calls": calls("track.bloom"),
            "dram.faults.s": own("dram.faults"),
            "dram.faults.calls": calls("dram.faults"),
            "attacks.self_s": own("attacks"),
            "obs.sink_s": own("obs.sink"),
            "obs.events": counts.get("obs.events", 0),
            "state.snapshot_s": own("state.snapshot"),
            "state.put_s": own("state.put"),
            "state.cuts": calls("state.put"),
            "exec.overhead_s": own("exec.runner"),
        }
        for slug in DEFENSE_SLUGS:
            prefix = f"mitigations.{slug}"
            out[f"{prefix}.batch_s"] = own(f"{prefix}.batch")
            out[f"{prefix}.batch_calls"] = calls(f"{prefix}.batch")
            out[f"{prefix}.act_s"] = own(f"{prefix}.act")
            out[f"{prefix}.act_calls"] = calls(f"{prefix}.act")
            out[f"{prefix}.actions"] = counts.get(f"{prefix}.actions", 0)
        layered = sum(t for name, (t, _) in spans.items() if name not in NON_LAYER_SPANS)
        out["glue.residual_s"] = wall_s - layered
        return out


def replay_stream(blocks: List[np.ndarray], scale: int) -> Dict[str, float]:
    """Replay a captured columnar stream through decode and the block
    controller alone (no mitigation, fixed uncoupled arrival cadence)."""
    from repro.dram.address import AddressMapper
    from repro.dram.config import DRAMConfig
    from repro.dram.device import Channel
    from repro.mem.controller import MemoryController
    from repro.mitigations.none import NoMitigation
    from repro.workloads.trace import TRACE_BLOCK_RECORDS

    if not blocks:
        return {"dram.address.decode_s": 0.0, "mem.controller.block_req_per_s": 0.0}
    dram = DRAMConfig().scaled(scale)
    mapper = AddressMapper(dram)
    started = time.perf_counter()
    columns = [mapper.decode_batch(block["address"]) for block in blocks]
    decode_s = time.perf_counter() - started

    stream = np.concatenate(blocks)
    channel = np.concatenate([column.channel for column in columns])
    # Above tCAS + one line transfer, hit runs stay uncoupled: the
    # regime service_block commits as vector operations.
    interval_ns = dram.t_cas + dram.line_transfer_ns + 1.0
    serviced = 0
    block_s = 0.0
    for index in range(dram.channels):
        records = stream[channel == index]
        controller = MemoryController(dram, Channel(dram, index=index), NoMitigation(), mapper)
        started = time.perf_counter()
        for first in range(0, len(records), TRACE_BLOCK_RECORDS):
            controller.service_block(
                records[first:first + TRACE_BLOCK_RECORDS],
                interval_ns=interval_ns,
                start_ns=first * interval_ns,
            )
        block_s += time.perf_counter() - started
        if controller.stats.accesses != len(records):
            raise RuntimeError("service_block replay lost requests")
        serviced += len(records)
    return {
        "dram.address.decode_s": decode_s,
        "mem.controller.block_req_per_s": serviced / block_s,
    }
