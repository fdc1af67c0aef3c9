"""Trace-driven out-of-order core model.

USIMM-style: each core replays a trace of (non-memory-instruction gap,
memory access) records. Non-memory instructions retire at the retire
width; loads occupy the reorder buffer until their data returns, so the
core stalls when the ROB fills behind an outstanding miss. Writes drain
through a write buffer and never block retirement.

This reproduces the property the paper's slowdown numbers depend on:
memory-bound workloads (high MPKI) feel added memory latency (the
RIT's 4 cycles, channel-blocking swaps) far more than compute-bound
ones.

One columnar front end feeds the issue/retire logic: a
:class:`~repro.workloads.trace.TraceChunks` source plus an
:class:`~repro.dram.address.AddressMapper`. Any other iterable of
:class:`TraceRecord` is packed into blocks
(:func:`~repro.workloads.trace.records_to_blocks`) on the way in. Whole
numpy blocks are pulled at once and addresses are batch-decoded. The
block kernel (:mod:`repro.mem.block_kernel`) reads the decoded columns
directly; :meth:`Core.issue`, used by the scalar oracle loop, reuses a
single :class:`MemoryRequest` plus one
:class:`~repro.dram.address.MutableDecoded` for every access.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional, Tuple, Union

from repro.dram.address import AddressMapper, MutableDecoded
from repro.mem.request import MemoryRequest
from repro.workloads.trace import TraceChunks, TraceRecord, records_to_blocks

_EMPTY: tuple = ()


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """Core parameters (paper Table 2)."""

    clock_ghz: float = 3.2
    rob_size: int = 192
    retire_width: int = 4

    @property
    def cycle_ns(self) -> float:
        """Duration of one core cycle in nanoseconds."""
        return 1.0 / self.clock_ghz


class Core:
    """One trace-driven core feeding the memory system."""

    __slots__ = (
        "core_id",
        "config",
        "time_ns",
        "instructions_retired",
        "_inst_issued",
        "_outstanding",
        "_has_pending",
        "_pending_gap",
        "_pending_issue_ns",
        "_exhausted",
        "_cycle_ns",
        "_retire_width",
        "_rob_size",
        "_source",
        "_source_snapshot",
        "_anchor",
        "_mapper",
        "_bank_key_table",
        "_idx",
        "_len",
        "_gaps",
        "_addrs",
        "_writes",
        "_chans",
        "_ranks",
        "_banks",
        "_rows",
        "_cols",
        "_flats",
        "_gap_block",
        "_request",
        "_decoded",
    )

    def __init__(
        self,
        core_id: int,
        trace: Union[Iterable[TraceRecord], TraceChunks],
        config: Optional[CoreConfig] = None,
        *,
        mapper: AddressMapper,
    ) -> None:
        self.core_id = core_id
        self.config = config if config is not None else CoreConfig()
        self.time_ns = 0.0
        self.instructions_retired = 0
        self._inst_issued = 0
        # Outstanding loads: (instruction index at issue, completion time).
        self._outstanding: Deque[Tuple[int, float]] = deque()
        self._has_pending = False
        self._pending_gap = 0
        self._pending_issue_ns: Optional[float] = None
        self._exhausted = False
        # Issue-time math runs once per request: cache the config
        # scalars (cycle_ns is a computing property).
        self._cycle_ns = self.config.cycle_ns
        self._retire_width = self.config.retire_width
        self._rob_size = self.config.rob_size

        if not isinstance(trace, TraceChunks):
            trace = TraceChunks(records_to_blocks(trace))
        self._source = trace
        # Snapshotable sources get a block anchor: their state just
        # before the loaded block was fetched (see snapshot_state).
        self._source_snapshot = getattr(trace, "snapshot_state", None)
        self._anchor = None
        self._mapper = mapper
        self._bank_key_table = mapper.bank_key_table
        self._idx = -1  # first fetch pulls the first block
        self._len = 0
        self._gaps = self._addrs = self._writes = _EMPTY
        self._chans = self._ranks = self._banks = _EMPTY
        self._rows = self._cols = self._flats = _EMPTY
        self._gap_block = None
        self._decoded = MutableDecoded()
        self._request = MemoryRequest(
            address=0,
            is_write=False,
            core_id=core_id,
            arrival_ns=0.0,
            decoded=self._decoded,  # permanently attached
        )
        self._fetch()

    # ------------------------------------------------------------------
    # System-loop interface
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the trace is fully replayed and loads drained."""
        return self._exhausted and not self._has_pending

    def next_issue_time(self) -> float:
        """Earliest time the core can present its next memory request.

        Computed once per pending record and cached: the computation
        pops satisfied ROB constraints, so recomputing after the pops
        would lose the stall and issue the request too early.
        """
        if not self._has_pending:
            return float("inf")
        if self._pending_issue_ns is None:
            self._pending_issue_ns = self._issue_time_for(self._pending_gap)
        return self._pending_issue_ns

    def issue(self) -> MemoryRequest:
        """Materialize the next memory request; advances core time.

        The *same* ``MemoryRequest`` object is returned for every call,
        refreshed in place — callers must finish with a request before
        asking for the next one (the oracle loop services each request
        synchronously).
        """
        if not self._has_pending:
            raise RuntimeError("no pending trace record to issue")
        issue_at = self._pending_issue_ns
        if issue_at is None:
            issue_at = self._issue_time_for(self._pending_gap)
        self.time_ns = issue_at
        self._inst_issued += self._pending_gap + 1
        idx = self._idx
        # Stale routing/timing fields (physical_row, start_ns,
        # completion_ns, row_buffer_hit) are NOT reset: the synchronous
        # service path unconditionally overwrites them before anything
        # reads them.
        request = self._request
        request.address = self._addrs[idx]
        request.is_write = self._writes[idx]
        request.arrival_ns = issue_at
        request.instruction_index = self._inst_issued
        decoded = self._decoded
        decoded.channel = self._chans[idx]
        decoded.rank = self._ranks[idx]
        decoded.bank = self._banks[idx]
        decoded.row = self._rows[idx]
        decoded.column = self._cols[idx]
        decoded.bank_key = self._bank_key_table[self._flats[idx]]
        self._pending_issue_ns = None
        next_idx = idx + 1
        if next_idx < self._len:
            self._idx = next_idx
            self._pending_gap = self._gaps[next_idx]
        else:
            self._has_pending = False
            self._fetch()
        return request

    def complete(self, request: MemoryRequest) -> None:
        """Deliver a serviced request's completion back to the core."""
        if request.instruction_index > self.instructions_retired:
            self.instructions_retired = request.instruction_index
        if not request.is_write:
            self._outstanding.append(
                (request.instruction_index, request.completion_ns)
            )

    def drain(self) -> None:
        """Wait for every outstanding load (end-of-trace accounting)."""
        while self._outstanding:
            _, completion = self._outstanding.popleft()
            self.time_ns = max(self.time_ns, completion)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        """Core cycles elapsed so far."""
        return self.time_ns / self.config.cycle_ns

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the whole run."""
        if self.time_ns <= 0.0:
            return 0.0
        return self.instructions_retired / self.cycles

    # ------------------------------------------------------------------
    # Snapshotable (repro.state) when the trace source is: a packed
    # record iterator has no capturable position. The loaded block is
    # a pure function of the source state at its fetch, so a cut keeps
    # that *block anchor* plus the cursor ``_idx`` instead of the
    # decoded columns (a few hundred bytes against ~240 KB per core);
    # restore rewinds the source to the anchor and refetches. An
    # exhausted core has no block to keep and carries no anchor. The
    # pooled request/decoded pair is *not* snapshotted — every field is
    # overwritten before anything reads it. The cached
    # ``_pending_issue_ns`` must travel: computing it popped satisfied
    # ROB entries, so a restored core that recomputed it would see a
    # different ``_outstanding`` prefix.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        if self._source_snapshot is None:
            from repro.state.protocol import NotSnapshotable

            raise NotSnapshotable(
                f"trace source {type(self._source).__name__} is not Snapshotable"
            )
        return (
            self.time_ns,
            self.instructions_retired,
            self._inst_issued,
            list(self._outstanding),
            self._has_pending,
            self._pending_gap,
            self._pending_issue_ns,
            self._exhausted,
            self._idx,
            None if self._exhausted else self._anchor,
        )

    def restore_state(self, state: tuple) -> None:
        """Inverse of :meth:`snapshot_state`; raises ``ValueError`` when
        the anchor does not regenerate a block holding ``_idx``."""
        (
            time_ns,
            instructions_retired,
            inst_issued,
            outstanding,
            has_pending,
            pending_gap,
            pending_issue_ns,
            exhausted,
            idx,
            anchor,
        ) = state
        # An exhausted core never reads its block views again, so only
        # a live core refetches its block.
        if not exhausted:
            if anchor is None:
                raise ValueError(
                    f"core {self.core_id}: a live core's cut carries no "
                    "block anchor"
                )
            self._source.restore_state(anchor)
            block = self._next_block()
            if block is None:
                raise ValueError(
                    f"core {self.core_id}: the block anchor regenerates "
                    "no block"
                )
            self._decode_views(block)
            if not 0 <= idx < self._len:
                raise ValueError(
                    f"core {self.core_id}: cursor {idx} is outside the "
                    f"{self._len}-record block its anchor regenerates"
                )
            if has_pending and pending_gap != self._gaps[idx]:
                raise ValueError(
                    f"core {self.core_id}: pending gap {pending_gap} is not "
                    f"record {idx}'s gap in the regenerated block"
                )
        self.time_ns = time_ns
        self.instructions_retired = instructions_retired
        self._inst_issued = inst_issued
        self._outstanding = deque(
            (index, completion) for index, completion in outstanding
        )
        self._has_pending = has_pending
        self._pending_gap = pending_gap
        self._pending_issue_ns = pending_issue_ns
        self._exhausted = exhausted
        self._idx = idx

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fetch(self) -> None:
        """Load the next block and make its first record pending."""
        block = self._next_block()
        if block is None:
            return
        self._decode_views(block)
        self._idx = 0
        self._has_pending = True
        self._pending_gap = self._gaps[0]

    def _next_block(self):
        """The source's next non-empty block, or None once exhausted
        (which also marks the core exhausted). Records the block anchor
        first when the source is snapshotable."""
        if self._source_snapshot is not None:
            self._anchor = self._source_snapshot()
        block = self._source.next_block()
        while block is not None and len(block) == 0:
            block = self._source.next_block()
        if block is None:
            self._exhausted = True
            self._has_pending = False
        return block

    def _decode_views(self, block) -> None:
        """Install ``block`` as the loaded block's scalar column views.

        ``tolist()`` converts every column to plain Python scalars once
        per block, so the per-request loop indexes lists of ints/bools —
        the exact values the trace's :class:`TraceRecord` rows carry.
        """
        addresses = block["address"]
        # The raw gap column is kept for the block kernel's issue-time
        # precompute (repro.mem.block_kernel); issue() only ever reads
        # the tolist() views below.
        self._gap_block = block["gap"]
        self._gaps = self._gap_block.tolist()
        self._addrs = addresses.tolist()
        self._writes = block["is_write"].tolist()
        columns = self._mapper.decode_batch(addresses)
        self._chans = columns.channel.tolist()
        self._ranks = columns.rank.tolist()
        self._banks = columns.bank.tolist()
        self._rows = columns.row.tolist()
        self._cols = columns.column.tolist()
        self._flats = columns.flat_bank.tolist()
        self._len = len(self._gaps)

    def _load_block_lean(self):
        """Block load for the fused block kernel: converts only the
        columns the kernel reads (write flags, rows, flat banks, plus
        the raw gap array for its issue-time precompute) and returns
        the raw block, or None once the source is exhausted. The views
        only :meth:`issue` reads (_gaps/_addrs/_chans/...) are left
        stale until the kernel hands the block to :meth:`_decode_views`
        on exit.
        """
        block = self._next_block()
        if block is None:
            return None
        self._gap_block = block["gap"]
        self._writes = block["is_write"].tolist()
        columns = self._mapper.decode_batch(block["address"])
        self._rows = columns.row.tolist()
        self._flats = columns.flat_bank.tolist()
        self._len = len(self._writes)
        return block

    def _issue_time_for(self, gap: int) -> float:
        """When this record's memory access reaches the memory system.

        The gap instructions retire at ``retire_width`` per cycle; if
        the ROB window (issued minus oldest-incomplete instruction)
        would exceed ``rob_size``, the core first waits for old loads.
        """
        issue_at = self.time_ns + (gap / self._retire_width) * self._cycle_ns
        next_index = self._inst_issued + gap + 1
        outstanding = self._outstanding
        rob_size = self._rob_size
        while outstanding:
            oldest_index, oldest_completion = outstanding[0]
            if next_index - oldest_index < rob_size:
                break
            if oldest_completion > issue_at:
                issue_at = oldest_completion
            outstanding.popleft()
        return issue_at
