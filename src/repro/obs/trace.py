"""Structured JSONL run tracing: schema, emitter, reader, summariser.

Every trace record is one JSON object per line with a fixed envelope —
``schema`` (the schema version), ``seq`` (a per-run monotonically
increasing sequence number), ``type`` and ``t`` (simulation time in
seconds) — plus type-specific payload fields declared in
:data:`EVENT_FIELDS`.  The emitter is observation-only: it serialises
values that the simulation already computed and never perturbs any RNG
stream, so a traced run is tick-for-tick identical to an untraced one.

:func:`validate_event` checks a decoded record against the schema (the
CI trace job runs it over every line a traced ``repro run`` emits), and
:func:`summarize_events` recomputes headline statistics — average
temperature, rainflow cycle count, decision count — from the trace
alone, which ``repro trace summarize`` compares against the run's
results artefact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Dict, IO, Iterable, Iterator, List, Mapping, Optional, Union

#: Version stamped into (and required of) every trace record.
SCHEMA_VERSION = 1

_NUMBER = (int, float)
_STR = (str,)
_BOOL = (bool,)
_LIST = (list,)
_NULLABLE_NUMBER = (int, float, type(None))
_NULLABLE_STR = (str, type(None))
_NULLABLE_LIST = (list, type(None))

#: Required payload fields (and accepted JSON types) per event type.
#: Read-only: trace emitters run inside engine worker processes, so the
#: schema table must never be mutable shared state.
EVENT_FIELDS: Mapping[str, Dict[str, tuple]] = MappingProxyType({
    "run_start": {
        "num_cores": (int,),
        "governor": _STR,
        "apps": _LIST,
        "seed": (int,),
    },
    "tick": {
        "temps_c": _LIST,
    },
    "decision": {
        "epoch": (int,),
        "state": (int,),
        "action": (int,),
        "action_label": _STR,
        "phase": _STR,
        "alpha": _NUMBER,
    },
    "q_update": {
        "state": (int,),
        "action": (int,),
        "reward": _NUMBER,
        "alpha": _NUMBER,
        "q_value": _NUMBER,
    },
    "governor_change": {
        "governor": _STR,
        "frequency_hz": _NULLABLE_NUMBER,
        "outcome": _STR,
    },
    "mapping_change": {
        "mapping": _NULLABLE_LIST,
        "outcome": _STR,
    },
    "variation": {
        "kind": _STR,
        "delta_stress_ma": _NUMBER,
        "delta_aging_ma": _NUMBER,
        "applied": _BOOL,
    },
    "fault": {
        "path": _STR,
        "kind": _STR,
        "count": (int,),
    },
    "supervisor": {
        "intervention": _STR,
        "count": (int,),
    },
    "app_switch": {
        "index": (int,),
        "app": _STR,
        "dataset": _STR,
    },
    "run_end": {
        "total_time_s": _NUMBER,
        "completed": _BOOL,
        "ticks": (int,),
    },
})

#: Actuation outcomes a governor/mapping-change event may carry.
ACTUATION_OUTCOMES = ("ok", "fail", "noop")


class TraceValidationError(ValueError):
    """A trace record does not conform to the schema."""


def validate_event(event: dict) -> None:
    """Raise :class:`TraceValidationError` unless ``event`` is valid.

    Checks the envelope (schema version, sequence number, type, time)
    and the per-type required payload fields.  Unknown extra fields are
    rejected, so the schema stays an exact contract rather than a
    lower bound.
    """
    if not isinstance(event, dict):
        raise TraceValidationError(f"event must be an object, got {type(event)}")
    for key in ("schema", "seq", "type", "t"):
        if key not in event:
            raise TraceValidationError(f"event missing envelope field {key!r}")
    if event["schema"] != SCHEMA_VERSION:
        raise TraceValidationError(
            f"unsupported schema version {event['schema']!r} "
            f"(this reader understands {SCHEMA_VERSION})"
        )
    if not isinstance(event["seq"], int) or event["seq"] < 0:
        raise TraceValidationError(f"seq must be a non-negative int: {event['seq']!r}")
    etype = event["type"]
    if etype not in EVENT_FIELDS:
        raise TraceValidationError(f"unknown event type {etype!r}")
    if not isinstance(event["t"], _NUMBER) or isinstance(event["t"], bool):
        raise TraceValidationError(f"t must be a number, got {event['t']!r}")
    spec = EVENT_FIELDS[etype]
    for name, types in spec.items():
        if name not in event:
            raise TraceValidationError(f"{etype} event missing field {name!r}")
        value = event[name]
        if isinstance(value, bool) and bool not in types:
            raise TraceValidationError(
                f"{etype}.{name} must be {types}, got bool"
            )
        if not isinstance(value, types):
            raise TraceValidationError(
                f"{etype}.{name} must be {types}, got {type(value).__name__}"
            )
    extras = set(event) - {"schema", "seq", "type", "t"} - set(spec)
    if extras:
        raise TraceValidationError(
            f"{etype} event carries undeclared fields {sorted(extras)}"
        )
    if etype in ("governor_change", "mapping_change"):
        if event["outcome"] not in ACTUATION_OUTCOMES:
            raise TraceValidationError(
                f"{etype}.outcome must be one of {ACTUATION_OUTCOMES}, "
                f"got {event['outcome']!r}"
            )


class TraceEmitter:
    """Writes schema-versioned JSONL events to a stream.

    Parameters
    ----------
    stream:
        A text file-like object; ``None`` keeps events in memory only
        (they are always retained in :attr:`events` for programmatic
        access either way).
    """

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream
        self._seq = 0
        self.events: List[dict] = []

    @property
    def seq(self) -> int:
        """Number of events emitted so far."""
        return self._seq

    def emit(self, etype: str, t: float, **fields) -> dict:
        """Build, record and (when streaming) write one event."""
        if etype not in EVENT_FIELDS:
            raise ValueError(f"unknown event type {etype!r}")
        event = {
            "schema": SCHEMA_VERSION,
            "seq": self._seq,
            "type": etype,
            "t": float(t),
        }
        event.update(fields)
        self._seq += 1
        self.events.append(event)
        if self._stream is not None:
            self._stream.write(json.dumps(event, sort_keys=True) + "\n")
        return event

    def flush(self) -> None:
        """Flush the underlying stream, if any."""
        if self._stream is not None:
            self._stream.flush()


def write_events(events: Iterable[dict], path: Union[str, Path]) -> Path:
    """Write an event sequence to a JSONL file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def read_events(path: Union[str, Path]) -> Iterator[dict]:
    """Iterate the events of a JSONL trace file (no validation)."""
    with Path(path).open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceValidationError(
                    f"{path}:{line_no}: not valid JSON: {exc}"
                ) from exc


@dataclass
class TraceSummary:
    """Headline statistics recomputed from a trace alone."""

    #: Events per type, in schema order.
    events_by_type: Dict[str, int] = field(default_factory=dict)
    total_events: int = 0
    #: Mean of every per-core temperature in the tick events (degC).
    avg_temp_c: float = 0.0
    #: Peak per-core temperature across the tick events (degC).
    peak_temp_c: float = 0.0
    #: Rainflow cycles summed over every core's tick-event series.
    num_cycles: float = 0.0
    #: Decision epochs recorded.
    decisions: int = 0
    #: Final simulation time (from run_end, else the last event's t).
    total_time_s: float = 0.0

    def as_dict(self) -> dict:
        """JSON-ready dump (what ``result.json`` embeds)."""
        return {
            "events_by_type": dict(self.events_by_type),
            "total_events": self.total_events,
            "avg_temp_c": self.avg_temp_c,
            "peak_temp_c": self.peak_temp_c,
            "num_cycles": self.num_cycles,
            "decisions": self.decisions,
            "total_time_s": self.total_time_s,
        }


def summarize_events(
    events: Iterable[dict], validate: bool = True
) -> TraceSummary:
    """Recompute the headline statistics of a trace.

    The rainflow cycle count uses the same counting code the
    reliability models use (:mod:`repro.reliability.rainflow`), so a
    trace summary agrees exactly with the run's own accounting over the
    same samples.
    """
    from repro.reliability.rainflow import count_cycles, total_cycle_count

    summary = TraceSummary(
        events_by_type={name: 0 for name in EVENT_FIELDS}
    )
    series: List[List[float]] = []
    temp_sum = 0.0
    temp_count = 0
    peak = -math.inf
    last_t = 0.0
    for event in events:
        if validate:
            validate_event(event)
        summary.events_by_type[event["type"]] += 1
        summary.total_events += 1
        last_t = float(event["t"])
        if event["type"] == "tick":
            temps = event["temps_c"]
            if not series:
                series = [[] for _ in temps]
            for core, temp in enumerate(temps):
                series[core].append(float(temp))
                temp_sum += float(temp)
                peak = max(peak, float(temp))
            temp_count += len(temps)
        elif event["type"] == "decision":
            summary.decisions += 1
        elif event["type"] == "run_end":
            summary.total_time_s = float(event["total_time_s"])
    if summary.total_time_s == 0.0:
        summary.total_time_s = last_t
    if temp_count:
        summary.avg_temp_c = temp_sum / temp_count
        summary.peak_temp_c = peak
    summary.num_cycles = float(
        sum(total_cycle_count(count_cycles(core_series)) for core_series in series)
    )
    return summary


def format_summary(summary: TraceSummary) -> str:
    """Human-readable rendering of a :class:`TraceSummary`."""
    lines = [f"{summary.total_events} events over {summary.total_time_s:.1f} s:"]
    for name, count in summary.events_by_type.items():
        if count:
            lines.append(f"  {name:<16} {count:8d}")
    lines.append(f"  avg temperature : {summary.avg_temp_c:8.2f} C")
    lines.append(f"  peak temperature: {summary.peak_temp_c:8.2f} C")
    lines.append(f"  rainflow cycles : {summary.num_cycles:8.1f}")
    lines.append(f"  decisions       : {summary.decisions:8d}")
    return "\n".join(lines)
