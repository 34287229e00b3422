"""Deterministic capture/restore of the full simulation closure.

Every stateful class in the job closure declares its state once, as two
class attributes:

* ``STATE_FIELDS`` — the attributes a snapshot carries, in restore order;
* ``DERIVED_FIELDS`` — everything else the class assigns: construction
  values and per-tick caches that the constructor or ``prepare()``
  rebuilds (a fresh value recomputes identically on the first resumed
  tick).

:func:`capture_state` and :func:`restore_state` derive a snapshot from
``STATE_FIELDS`` alone, for the scalar
:class:`~repro.soc.simulator.Simulation` and the vectorized
:class:`~repro.ensemble.engine.EnsembleSimulation` alike.  A class whose
caches must be re-derived from restored fields defines
``_after_restore()``.  ``tests/test_state_declarations.py`` checks that
every attribute a stateful class assigns is in exactly one of its lists,
so a new field cannot silently drop out of snapshots.

Values are rendered as JSON-ready primitives:

* ``None``, bools, ints, floats and strings as themselves (numpy scalars
  via ``item()``; non-finite floats ride on Python's non-strict JSON
  encoding — both ends of the round-trip are this package);
* lists as lists;
* ndarrays (dtype and shape kept), tuples, dicts, sets, deques, enums and
  plain dataclasses as one-key dicts tagged ``#ndarray``, ``#tuple``, …;
  enum and dataclass tags name their ``repro`` type;
* declared objects as a dict of their state fields, restored *in place*
  into the fresh object at the same position;
* numpy generators via ``bit_generator.state``, also restored in place.

Identity is kept by a memo, as in :mod:`pickle`: a declared object or
generator met a second time is written as ``{"#ref": n}``.  That is what
re-keys the scheduler's thread-keyed dicts against the restored threads,
and what keeps an RNG shared by reference (an application and its
threads, a batched draw buffer and its members' generators) shared.

Three value kinds keep named encoders: governors (rebuilt against the
owning simulation's OPP ladder, since a run may switch governor type),
the actuation supervisor's ``_UNSET`` sentinel, and attached
instrumentation (trace events and metric instruments, restored only when
both ends have it — observability only observes).

A declared object present on one side only (a snapshot with fault
injector state restored into a simulation built without faults, or the
reverse) raises :class:`~repro.checkpoint.store.CheckpointStateError`.

The restore protocol is *prepare-then-overwrite*, the same for both
engines (:class:`~repro.soc.simulator.RunLoop`): the fresh simulation
runs its normal ``prepare()`` (so all attach-time side effects —
manager binding, first-application adoption, lazily-built baseline
Q-tables — happen exactly once), after which every state field is
overwritten from the snapshot.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
from collections import deque
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, List

import numpy as np

from repro.checkpoint.store import CheckpointStateError
from repro.faults.supervisor import _UNSET
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sched.governors import Governor, UserspaceGovernor, make_governor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.soc.simulator import RunLoop

_PRIMITIVES = (bool, int, float, str)


def _declared(value: Any) -> bool:
    return hasattr(type(value), "STATE_FIELDS")


def _type_name(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


@lru_cache(maxsize=None)
def _named_type(name: str) -> type:
    """The ``repro`` class a ``#enum``/``#dataclass`` tag names."""
    module, _, qualname = name.partition(":")
    if module != "repro" and not module.startswith("repro."):
        raise CheckpointStateError(f"snapshot names a non-repro type {name!r}")
    try:
        found: Any = importlib.import_module(module)
        for part in qualname.split("."):
            found = getattr(found, part)
    except (ImportError, AttributeError) as exc:
        raise CheckpointStateError(f"snapshot names unknown type {name!r}") from exc
    if not isinstance(found, type):
        raise CheckpointStateError(f"snapshot type {name!r} is not a class")
    return found


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


class _Encoder:
    def __init__(self, root: Any) -> None:
        # id -> memo index; ``keep`` pins every memoized object so no id
        # can be recycled while the snapshot is being built.
        self.memo: Dict[int, int] = {id(root): 0}
        self.keep: List[Any] = [root]

    def fields(self, obj: Any) -> Dict[str, Any]:
        return {name: self.value(getattr(obj, name)) for name in type(obj).STATE_FIELDS}

    def _remember(self, value: Any) -> None:
        self.memo[id(value)] = len(self.keep)
        self.keep.append(value)

    def value(self, value: Any) -> Any:
        if value is None or type(value) in _PRIMITIVES:
            return value
        if type(value) is list:
            return [
                item if item is None or type(item) in _PRIMITIVES else self.value(item)
                for item in value
            ]
        if isinstance(value, np.ndarray):
            return {"#ndarray": [value.dtype.str, list(value.shape), value.tolist()]}
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, enum.Enum):
            return {"#enum": [_type_name(type(value)), value.value]}
        if value is _UNSET:
            return {"#unset": None}
        if isinstance(value, Governor):
            return {"#governor": _encode_governor(self, value)}
        if isinstance(value, Instrumentation):
            return {"#instrumentation": _encode_instrumentation(value)}
        ref = self.memo.get(id(value))
        if ref is not None:
            return {"#ref": ref}
        if _declared(value):
            self._remember(value)
            return self.fields(value)
        if isinstance(value, np.random.Generator):
            self._remember(value)
            return {"#rng": value.bit_generator.state}
        if isinstance(value, tuple):
            return {"#tuple": [self.value(item) for item in value]}
        if isinstance(value, dict):
            return {"#dict": [[self.value(k), self.value(v)] for k, v in value.items()]}
        if isinstance(value, (set, frozenset)):
            return {f"#{type(value).__name__}": self._members(value)}
        if isinstance(value, deque):
            return {"#deque": [value.maxlen, [self.value(item) for item in value]]}
        if dataclasses.is_dataclass(value):
            fields = {
                field.name: self.value(getattr(value, field.name))
                for field in dataclasses.fields(value)
            }
            return {"#dataclass": [_type_name(type(value)), fields]}
        raise CheckpointStateError(f"cannot checkpoint a {type(value).__name__} value")

    def _members(self, values: Any) -> List[Any]:
        """A set's members, sorted so the encoding is deterministic."""
        known = len(self.keep)
        encoded = [self.value(item) for item in values]
        if len(self.keep) != known:
            # Iteration order of a set is not reproducible, so a first
            # sighting inside one would number the memo differently on
            # restore.  Sets may hold values and already-seen objects only.
            raise CheckpointStateError("a checkpointed set holds an unseen object")
        return sorted(encoded, key=repr)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class _Decoder:
    def __init__(self, root: Any) -> None:
        self.memo: List[Any] = [root]

    def fields(self, obj: Any, state: Dict[str, Any]) -> None:
        names = type(obj).STATE_FIELDS
        owner = type(obj).__name__
        if len(state) != len(names) or any(name not in state for name in names):
            raise CheckpointStateError(
                f"{owner} snapshot has fields {sorted(state)}, expected {sorted(names)}"
            )
        for name in names:
            template = getattr(obj, name, None)
            setattr(obj, name, self.value(state[name], template, obj, f"{owner}.{name}"))
        after_restore = getattr(obj, "_after_restore", None)
        if after_restore is not None:
            after_restore()

    def value(self, encoded: Any, template: Any, owner: Any, where: str) -> Any:
        if type(encoded) is list:
            return self._sequence(encoded, template, owner, where)
        if type(encoded) is dict:
            if len(encoded) == 1:
                tag = next(iter(encoded))
                if tag[0] == "#":
                    return self._tagged(tag, encoded[tag], template, owner, where)
            if template is None or not _declared(template):
                raise CheckpointStateError(
                    f"{where}: the snapshot carries its state but the restored "
                    "object was built without one"
                )
            self.memo.append(template)
            self.fields(template, encoded)
            return template
        if encoded is None and template is not None and _declared(template):
            raise CheckpointStateError(
                f"{where}: the snapshot has none but the restored object was "
                "built with one"
            )
        return encoded

    def _sequence(self, encoded: list, template: Any, owner: Any, where: str) -> list:
        if isinstance(template, (list, tuple)) and len(template) == len(encoded):
            return [
                self.value(item, slot, owner, where)
                for item, slot in zip(encoded, template)
            ]
        if isinstance(template, (list, tuple)) and any(map(_declared, template)):
            raise CheckpointStateError(
                f"{where}: the snapshot has {len(encoded)} entries, the restored "
                f"object has {len(template)}"
            )
        return [self.value(item, None, owner, where) for item in encoded]

    def _tagged(self, tag: str, payload: Any, template: Any, owner: Any, where: str) -> Any:
        if tag == "#ref":
            return self.memo[payload]
        if tag == "#ndarray":
            dtype, shape, data = payload
            return np.asarray(data, dtype=np.dtype(dtype)).reshape(shape)
        if tag == "#rng":
            if not isinstance(template, np.random.Generator):
                raise CheckpointStateError(f"{where}: no generator to restore into")
            template.bit_generator.state = payload
            self.memo.append(template)
            return template
        if tag == "#tuple":
            return tuple(self._sequence(payload, template, owner, where))
        if tag == "#dict":
            return {
                self.value(key, None, owner, where): self.value(item, None, owner, where)
                for key, item in payload
            }
        if tag == "#set":
            return {self.value(item, None, owner, where) for item in payload}
        if tag == "#frozenset":
            return frozenset(self.value(item, None, owner, where) for item in payload)
        if tag == "#deque":
            maxlen, items = payload
            return deque((self.value(item, None, owner, where) for item in items), maxlen)
        if tag == "#enum":
            name, raw = payload
            return _named_type(name)(raw)
        if tag == "#dataclass":
            name, fields = payload
            cls = _named_type(name)
            if not dataclasses.is_dataclass(cls):
                raise CheckpointStateError(f"snapshot type {name!r} is not a dataclass")
            return cls(
                **{key: self.value(item, None, owner, where) for key, item in fields.items()}
            )
        if tag == "#unset":
            return _UNSET
        if tag == "#governor":
            return _decode_governor(self, payload, owner)
        if tag == "#instrumentation":
            if template is not None:
                _restore_instrumentation(template, payload)
            return template
        raise CheckpointStateError(f"{where}: unknown snapshot tag {tag!r}")


def capture_state(obj: Any) -> Dict[str, Any]:
    """JSON-ready snapshot of a declared object's ``STATE_FIELDS``."""
    return _Encoder(obj).fields(obj)


def restore_state(obj: Any, state: Dict[str, Any]) -> None:
    """Overwrite a declared object's state from :func:`capture_state`."""
    _Decoder(obj).fields(obj, state)


# ----------------------------------------------------------------------
# Named encoders
# ----------------------------------------------------------------------


def _encode_governor(encoder: _Encoder, governor: Governor) -> list:
    fields = encoder.fields(governor)
    if isinstance(governor, UserspaceGovernor):
        return ["userspace", governor.target_frequency_hz, fields]
    return [governor.name, None, fields]


def _decode_governor(decoder: _Decoder, payload: list, owner: Any) -> Governor:
    # Governors belong to a Simulation; a run may have switched type, so
    # the snapshot's kind is rebuilt against the owner's OPP ladder.
    kind, target_hz, fields = payload
    governor = make_governor(
        kind, owner.chip.ladder, owner.platform.num_cores, target_hz
    )
    decoder.fields(governor, fields)
    return governor


def _encode_instrumentation(obs: Instrumentation) -> Dict[str, Any]:
    captured: Dict[str, Any] = {}
    if obs.tracer is not None:
        captured["trace"] = {
            "seq": obs.tracer._seq,
            "events": [dict(event) for event in obs.tracer.events],
        }
    if obs.registry is not None:
        entries: List[dict] = []
        for name, instrument in obs.registry._instruments.items():
            entry: Dict[str, Any] = {
                "name": name,
                "kind": instrument.kind,
                "help": instrument.help,
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
                entry["bucket_counts"] = list(instrument.bucket_counts)
                entry["sum"] = instrument.sum
                entry["count"] = instrument.count
            else:
                entry["value"] = instrument.value
            entries.append(entry)
        captured["metrics"] = entries
    return captured


def _restore_instrumentation(obs: Instrumentation, state: Dict[str, Any]) -> None:
    trace = state.get("trace")
    if trace is not None and obs.tracer is not None:
        obs.tracer.events = [dict(event) for event in trace["events"]]
        obs.tracer._seq = int(trace["seq"])
    metrics = state.get("metrics")
    if metrics is not None and obs.registry is not None:
        _restore_metrics(obs.registry, metrics)


def _restore_metrics(registry: MetricsRegistry, entries: List[dict]) -> None:
    registry._instruments.clear()
    for entry in entries:
        kind = entry["kind"]
        if kind == Counter.kind:
            registry.counter(entry["name"], entry["help"]).value = float(
                entry["value"]
            )
        elif kind == Gauge.kind:
            registry.gauge(entry["name"], entry["help"]).value = float(
                entry["value"]
            )
        elif kind == Histogram.kind:
            histogram = registry.histogram(
                entry["name"], entry["buckets"], entry["help"]
            )
            histogram.bucket_counts = [int(c) for c in entry["bucket_counts"]]
            histogram.sum = float(entry["sum"])
            histogram.count = int(entry["count"])
        else:
            raise CheckpointStateError(f"unknown metric kind {kind!r} in snapshot")


# ----------------------------------------------------------------------
# Full-simulation capture / restore
# ----------------------------------------------------------------------


def capture_simulation(sim: "RunLoop") -> Dict[str, Any]:
    """Snapshot everything a tick boundary needs to continue from.

    ``sim`` is either engine: a scalar
    :class:`~repro.soc.simulator.Simulation` or an
    :class:`~repro.ensemble.engine.EnsembleSimulation`.  It must be
    prepared, and is captured at a tick boundary (from the run loop,
    after ``step``).
    """
    if not sim._prepared:
        raise CheckpointStateError(
            "can only checkpoint a prepared simulation (after prepare or "
            "a restore)"
        )
    return capture_state(sim)


def restore_simulation(sim: "RunLoop", state: Dict[str, Any]) -> None:
    """Rebuild a snapshot's exact state inside a fresh simulation.

    ``sim``, either engine, must have been constructed with the same
    arguments as the checkpointed run (the snapshot carries run-time
    state only, not configuration).  The engine is prepared first, by
    the one prepared rule, so every attach-time side effect happens
    through the normal path; the snapshot then overwrites all of it, and
    ``run()`` (which finds the engine prepared) continues mid-stream.
    """
    sim._ensure_prepared()
    restore_state(sim, state)
