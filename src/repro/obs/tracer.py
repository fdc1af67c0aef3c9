"""Structured event tracer: the ``repro.obs`` event stream.

A :class:`Tracer` receives :class:`TraceEvent` records from read-only
probes threaded through the memory system (see
:mod:`repro.obs.install`) and hands them to a sink — a bounded
in-memory ring (:class:`RingSink`) or a streaming JSONL file
(:class:`JsonlSink`). Exporters (:mod:`repro.obs.perfetto`,
:mod:`repro.obs.timeline`) consume the collected events after the run.

Overhead policy
---------------
Tracing must cost (near) nothing when off. Every instrumented hot path
guards with a single ``is None`` attribute test on the component's
``obs``/``tracer`` slot — no tracer object exists unless observability
was explicitly installed, so the disabled cost is one load + branch.
When tracing *is* on, category filtering happens in :meth:`Tracer.wants`
before any event object is built.

Categories
----------
``dram.cmd``    per-bank ACT/PRE/CAS command instants
``rrs.swap``    row-swap decisions (logical row, destination, ops)
``mitigation``  victim refreshes, throttle delays, channel blocks
``refresh``     tREFI bursts and refresh-window (epoch) frames
``attack``      attack-harness hammer rounds and bit flips
``exec``        request lifetimes, scheduler queues, run bounds

Environment opt-in (read by ``SystemSimulator`` when no explicit
``obs`` object is passed):

* ``REPRO_TRACE``         — ``1``/``all`` or a comma list of categories
* ``REPRO_TRACE_FILE``    — JSONL output path (default
  ``repro-trace.jsonl``; only used when ``REPRO_TRACE_SINK=jsonl``)
* ``REPRO_TRACE_SINK``    — ``jsonl`` (default) or ``ring``
* ``REPRO_TRACE_BUFFER``  — ring capacity (default 1,000,000 events)
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _json_str
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

CATEGORIES: Tuple[str, ...] = (
    "dram.cmd",
    "rrs.swap",
    "mitigation",
    "refresh",
    "attack",
    "exec",
)

_ENV_TRACE = "REPRO_TRACE"
_ENV_FILE = "REPRO_TRACE_FILE"
_ENV_SINK = "REPRO_TRACE_SINK"
_ENV_BUFFER = "REPRO_TRACE_BUFFER"

DEFAULT_TRACE_FILE = "repro-trace.jsonl"
DEFAULT_RING_CAPACITY = 1_000_000

# Event phases, mirroring the Chrome trace-event vocabulary the
# Perfetto exporter emits: instant, complete (has a duration), counter.
PHASE_INSTANT = "I"
PHASE_COMPLETE = "X"
PHASE_COUNTER = "C"


class TraceEvent:
    """One observed event.

    ``track`` locates the event on the timeline display: a tuple such
    as ``("bank", channel, rank, bank)``, ``("core", core_id)``,
    ``("chan", channel)`` or ``("sys", "refresh")``. ``ts_ns`` is
    simulated time; ``dur_ns`` is nonzero only for complete events.
    """

    __slots__ = ("category", "name", "ts_ns", "dur_ns", "track", "args", "phase")

    def __init__(
        self,
        category: str,
        name: str,
        ts_ns: float,
        track: Tuple = ("sys", "run"),
        dur_ns: float = 0.0,
        args: Optional[Dict[str, Any]] = None,
        phase: str = PHASE_INSTANT,
    ) -> None:
        self.category = category
        self.name = name
        self.ts_ns = ts_ns
        self.dur_ns = dur_ns
        self.track = track
        self.args = args
        self.phase = phase

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view (the JSONL line format)."""
        out: Dict[str, Any] = {
            "cat": self.category,
            "name": self.name,
            "ts": self.ts_ns,
            "track": list(self.track),
            "ph": self.phase,
        }
        if self.dur_ns:
            out["dur"] = self.dur_ns
        if self.args:
            out["args"] = dict(self.args)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.category!r}, {self.name!r}, ts={self.ts_ns}, "
            f"track={self.track})"
        )


# Raw event tuples mirror TraceEvent's positional field order, so a
# retained tuple materializes as ``TraceEvent(*raw)``. Hot probes emit
# these (one tuple display) instead of paying for a Python __init__
# per event; sinks materialize lazily at export time. The ``args``
# slot may carry a bare int (shorthand for ``{"row": value}``), a
# tuple of key/value pairs (shorthand for ``dict(pairs)``), or a flat
# ``(row, physical_row, bank, hit)`` quad (the per-request ``exec``
# shorthand: one tuple display instead of five) — hot probes use these
# so a retained event tuple contains only immutables: cyclic-GC
# collections untrack such tuples after one young-gen scan, where a
# dict per event would stay tracked (and rescanned) for the life of
# the ring.
#
# The hottest producer of all — the per-command ``dram.cmd`` probe —
# uses an even shorter form: a 4-tuple ``(name, ts_ns, track, row)``,
# with category ``"dram.cmd"``, zero duration, and instant phase
# implied. Raw forms are distinguished by length (4 vs 7), so the two
# encodings coexist in one buffer.
RAW_EVENT_FIELDS = (
    "category", "name", "ts_ns", "track", "dur_ns", "args", "phase"
)
RAW_CMD_FIELDS = ("name", "ts_ns", "track", "row")


def _raw_args(args):
    """Normalize a raw tuple's args shorthand to a plain dict."""
    kind = type(args)
    if kind is int:
        return {"row": args}
    if kind is tuple:
        if not args:
            return {}
        if type(args[0]) is tuple:
            return dict(args)
        row, physical_row, bank, hit = args
        return {
            "row": row,
            "physical_row": physical_row,
            "bank": bank,
            "hit": hit,
        }
    return args


def _materialize(entry) -> TraceEvent:
    if isinstance(entry, TraceEvent):
        return entry
    if len(entry) == 4:
        name, ts_ns, track, row = entry
        return TraceEvent(
            "dram.cmd", name, ts_ns, track, 0.0, {"row": row}, PHASE_INSTANT
        )
    category, name, ts_ns, track, dur_ns, args, phase = entry
    return TraceEvent(
        category, name, ts_ns, track, dur_ns, _raw_args(args), phase
    )


class RingSink:
    """Bounded in-memory sink: keeps the most recent ``capacity`` events.

    ``dropped`` counts events that fell off the front of the ring, so
    exporters can say a trace is truncated instead of silently showing
    a partial run.
    """

    __slots__ = ("capacity", "_events", "received")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.received = 0

    def write(self, event: TraceEvent) -> None:
        self.received += 1
        self._events.append(event)

    def write_batch(self, batch: List) -> None:
        """Ingest a buffered batch of events / raw tuples at once.

        The tracer's hot path appends into a shared buffer (a plain
        ``list.append`` per event) and hands it over in blocks, so the
        per-event sink cost amortizes to a C-speed ``deque.extend``.
        """
        self.received += len(batch)
        self._events.extend(batch)

    @property
    def dropped(self) -> int:
        return self.received - len(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (raw tuples materialized)."""
        return [_materialize(entry) for entry in self._events]

    def flush(self) -> None:
        """Nothing buffered outside the ring."""

    def close(self) -> None:
        """Rings hold no external resources."""


# Template encoder for JsonlSink.write_batch. ``json.dumps(...,
# sort_keys=True)`` writes keys in sorted order with ", "/": "
# separators, ints and finite floats as their ``repr``, and strings
# through ``encode_basestring_ascii``; the templates below spell out
# exactly that for the two hot raw shapes, so a templated line is the
# same bytes as the dict+dumps line. A field whose type is not exactly
# ``int``, ``float``, ``bool`` or ``str`` (numpy scalars included), a
# non-finite float, or a zero duration (which dumps omits) makes the
# helper return None and the entry falls back to :func:`_dumps_line`.
_CMD_LINE = (
    '{"args": {"row": %r}, "cat": "dram.cmd", "name": %s, "ph": "I", '
    '"track": %s, "ts": %r}\n'
)
_EXEC_LINE = (
    '{"args": {"bank": %s, "hit": %s, "physical_row": %r, "row": %r}, '
    '"cat": "exec", "dur": %r, "name": %s, "ph": %s, "track": %s, "ts": %r}\n'
)
_INF = float("inf")


def _number_ok(value) -> bool:
    """True for an exact int or a finite exact float (``%r`` == dumps)."""
    kind = type(value)
    return kind is float and -_INF < value < _INF or kind is int


def _str_json(value, cache: Dict[str, str]) -> Optional[str]:
    """JSON text of an exact ``str`` (memoized), else None."""
    if type(value) is not str:
        return None
    text = cache.get(value)
    if text is None:
        text = cache[value] = _json_str(value)
    return text


def _tuple_json(value, cache: Dict[Tuple, Tuple[Tuple, str]]) -> Optional[str]:
    """JSON list text of a flat tuple of exact ints/strs, else None.

    Memoized by value. A hit on the very same object is trusted at
    once; an equal tuple is re-checked first, because ``0``, ``0.0``
    and ``False`` compare (and hash) equal but dump differently.
    """
    try:
        cached = cache.get(value)
    except TypeError:  # not hashable: a list, or a tuple holding one
        return None
    if cached is not None and cached[0] is value:
        return cached[1]
    if type(value) is not tuple:
        return None
    parts = []
    for item in value:
        kind = type(item)
        if kind is int:
            parts.append(repr(item))
        elif kind is str:
            parts.append(_json_str(item))
        else:
            return None
    text = "[" + ", ".join(parts) + "]"
    cache[value] = (value, text)
    return text


def _cmd_line(entry: Tuple, strings, tuples) -> Optional[str]:
    """Template line of a raw ``dram.cmd`` 4-tuple, or None."""
    name, ts_ns, track, row = entry
    if type(row) is not int or not _number_ok(ts_ns):
        return None
    name_text = _str_json(name, strings)
    track_text = _tuple_json(track, tuples)
    if name_text is None or track_text is None:
        return None
    return _CMD_LINE % (row, name_text, track_text, ts_ns)


def _exec_line(entry: Tuple, strings, tuples) -> Optional[str]:
    """Template line of a raw ``exec`` 7-tuple carrying the flat
    ``(row, physical_row, bank, hit)`` quad, or None."""
    category, name, ts_ns, track, dur_ns, args, phase = entry
    if category != "exec" or type(args) is not tuple or len(args) != 4:
        return None
    row, physical_row, bank, hit = args
    if (
        type(row) is not int
        or type(physical_row) is not int
        or not _number_ok(dur_ns)
        or not dur_ns
        or not _number_ok(ts_ns)
    ):
        return None
    if hit is True:
        hit_text = "true"
    elif hit is False:
        hit_text = "false"
    elif type(hit) is int:
        hit_text = repr(hit)
    else:
        return None
    bank_text = (
        repr(bank) if type(bank) is int else _tuple_json(bank, tuples)
    )
    name_text = _str_json(name, strings)
    phase_text = _str_json(phase, strings)
    track_text = _tuple_json(track, tuples)
    if (
        bank_text is None
        or name_text is None
        or phase_text is None
        or track_text is None
    ):
        return None
    return _EXEC_LINE % (
        bank_text, hit_text, physical_row, row, dur_ns, name_text,
        phase_text, track_text, ts_ns,
    )


def _dumps_line(entry) -> str:
    """The reference line, as :meth:`JsonlSink.write` writes it."""
    return json.dumps(_materialize(entry).to_dict(), sort_keys=True) + "\n"


class JsonlSink:
    """Streaming sink: one JSON object per line, append-only.

    Suited to long runs whose event volume exceeds any sensible ring:
    the Perfetto exporter can rebuild a trace from the file afterwards
    via :func:`read_jsonl`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w")
        self.received = 0
        self.dropped = 0
        # JSON text of the names/phases and track/bank tuples seen so
        # far: a run has a few dozen of each.
        self._str_text: Dict[str, str] = {}
        self._tuple_text: Dict[Tuple, Tuple[Tuple, str]] = {}

    def write(self, event: TraceEvent) -> None:
        self.received += 1
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True))
        self._handle.write("\n")

    def write_batch(self, batch: List) -> None:
        """Serialize a buffered batch: the same bytes :meth:`write`
        gives each event, in order, in one file write.

        The two hot raw shapes are formatted from sorted-key templates
        (:func:`_cmd_line`, :func:`_exec_line`); every other entry, and
        any field a template cannot reproduce exactly, takes the
        dict+``json.dumps`` line (:func:`_dumps_line`).
        """
        self.received += len(batch)
        strings = self._str_text
        tuples = self._tuple_text
        lines = []
        append = lines.append
        for entry in batch:
            line = None
            if type(entry) is tuple:
                size = len(entry)
                if size == 4:
                    line = _cmd_line(entry, strings, tuples)
                elif size == 7:
                    line = _exec_line(entry, strings, tuples)
            append(_dumps_line(entry) if line is None else line)
        self._handle.write("".join(lines))

    @property
    def events(self) -> List[TraceEvent]:
        """Events re-read from the file (flushes first)."""
        self.flush()
        return read_jsonl(self.path)

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def read_jsonl(path: str) -> List[TraceEvent]:
    """Parse a JSONL trace file back into :class:`TraceEvent` records."""
    events: List[TraceEvent] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            events.append(
                TraceEvent(
                    category=data["cat"],
                    name=data["name"],
                    ts_ns=data["ts"],
                    track=tuple(data.get("track", ("sys", "run"))),
                    dur_ns=data.get("dur", 0.0),
                    args=data.get("args"),
                    phase=data.get("ph", PHASE_INSTANT),
                )
            )
    return events


# Shared-buffer drain threshold: hot probes append raw tuples to
# ``Tracer.buffer`` and drain it into the sink whenever it reaches this
# many entries (a length check per event, a sink call per batch).
BUFFER_FLUSH_AT = 4096
# Coarser backstop for the per-command probe: the request-completion
# probe drives the regular drain (one length check per request covers
# the handful of command events that request produced), so the command
# probe only guards against request-free stretches — attack drivers
# hammering ACTs through ``Bank.activate`` — where no completion ever
# fires. Bounds the buffer without paying a tight check per command.
BUFFER_FLUSH_BACKSTOP = 8 * BUFFER_FLUSH_AT


class Tracer:
    """Category-filtered event recorder.

    ``categories=None`` records everything. Probes should ask
    :meth:`wants` (or use the guard idiom) before building event
    arguments, so filtered-out categories never allocate.

    Recording is buffered: every emitted event — probe raw tuples and
    :meth:`emit` events alike — lands in :attr:`buffer`, which drains
    into the sink in :data:`BUFFER_FLUSH_AT` blocks. One shared buffer
    keeps events in exact emission order while making the hot-path
    cost a single ``list.append``; install-time-composed probes bind
    ``tracer.buffer.append`` and :meth:`flush_buffer` directly and
    skip even the method-call layer (see :mod:`repro.obs.install`).
    Readers (:attr:`events`, :attr:`emitted`, :attr:`dropped`,
    :meth:`flush`) drain the buffer first, so buffering is invisible
    outside this module.
    """

    __slots__ = ("sink", "categories", "enabled", "buffer", "_ingest")

    def __init__(
        self,
        sink: Optional[RingSink] = None,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        self.sink = sink if sink is not None else RingSink()
        if categories is None:
            self.categories = None
        else:
            chosen = frozenset(categories)
            unknown = chosen - set(CATEGORIES)
            if unknown:
                raise ValueError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"valid: {', '.join(CATEGORIES)}"
                )
            self.categories = chosen
        self.enabled = True
        self.buffer: List = []
        # Sinks without batch support (third-party test doubles) get a
        # materializing per-event fallback.
        ingest = getattr(self.sink, "write_batch", None)
        if ingest is None:
            sink_write = self.sink.write

            def ingest(batch: List) -> None:
                for entry in batch:
                    sink_write(_materialize(entry))

        self._ingest = ingest

    def wants(self, category: str) -> bool:
        """True when events of ``category`` are being recorded."""
        if not self.enabled:
            return False
        return self.categories is None or category in self.categories

    def emit(
        self,
        category: str,
        name: str,
        ts_ns: float,
        track: Tuple = ("sys", "run"),
        dur_ns: float = 0.0,
        args: Optional[Dict[str, Any]] = None,
        phase: str = PHASE_INSTANT,
    ) -> None:
        """Record one event (drops it when the category is filtered)."""
        if not self.wants(category):
            return
        buffer = self.buffer
        buffer.append(
            TraceEvent(
                category=category,
                name=name,
                ts_ns=ts_ns,
                track=track,
                dur_ns=dur_ns,
                args=args,
                phase=phase,
            )
        )
        if len(buffer) >= BUFFER_FLUSH_AT:
            self.flush_buffer()

    def flush_buffer(self) -> None:
        """Drain the shared event buffer into the sink."""
        buffer = self.buffer
        if buffer:
            self._ingest(buffer)
            buffer.clear()

    @property
    def emitted(self) -> int:
        """Events recorded, counted at the sink (every recorded event
        reaches the sink exactly once)."""
        self.flush_buffer()
        return getattr(self.sink, "received", 0)

    def complete(
        self,
        category: str,
        name: str,
        ts_ns: float,
        dur_ns: float,
        track: Tuple = ("sys", "run"),
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a duration-carrying (complete) event."""
        self.emit(
            category,
            name,
            ts_ns,
            track=track,
            dur_ns=dur_ns,
            args=args,
            phase=PHASE_COMPLETE,
        )

    @property
    def events(self) -> List[TraceEvent]:
        """The sink's retained events."""
        self.flush_buffer()
        return self.sink.events

    @property
    def dropped(self) -> int:
        self.flush_buffer()
        return self.sink.dropped

    def flush(self) -> None:
        self.flush_buffer()
        self.sink.flush()

    def close(self) -> None:
        self.flush_buffer()
        self.sink.close()


def parse_categories(spec: str) -> Optional[frozenset]:
    """Parse a ``REPRO_TRACE``/``--categories`` value.

    ``"1"``/``"all"``/``"*"`` mean every category (returns None, the
    Tracer's "no filter" encoding); otherwise a comma-separated list.
    """
    spec = spec.strip()
    if spec in ("1", "all", "*"):
        return None
    chosen = frozenset(part.strip() for part in spec.split(",") if part.strip())
    unknown = chosen - set(CATEGORIES)
    if unknown:
        raise ValueError(
            f"unknown trace categories {sorted(unknown)}; "
            f"valid: {', '.join(CATEGORIES)}"
        )
    if not chosen:
        return None
    return chosen


def tracer_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[Tracer]:
    """Build a tracer from ``REPRO_TRACE*`` env vars; None when off."""
    env = os.environ if environ is None else environ
    spec = env.get(_ENV_TRACE, "")
    if not spec or spec == "0":
        return None
    categories = parse_categories(spec)
    sink_kind = env.get(_ENV_SINK, "jsonl")
    if sink_kind == "ring":
        capacity = int(env.get(_ENV_BUFFER, str(DEFAULT_RING_CAPACITY)))
        sink: RingSink = RingSink(capacity)
    elif sink_kind == "jsonl":
        sink = JsonlSink(env.get(_ENV_FILE, DEFAULT_TRACE_FILE))
    else:
        raise ValueError(
            f"unknown {_ENV_SINK} value {sink_kind!r} (expected 'jsonl' or 'ring')"
        )
    return Tracer(sink=sink, categories=categories)
