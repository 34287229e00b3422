"""Lumped RC thermal network with an exact discrete-time propagator.

The network state is the vector of node temperatures ``T`` (cores then
spreader) obeying

.. math::

    C \\, \\dot{T} = P_{ext} + g_{amb} T_{amb} e_{spr} - G T

a linear ODE with constant matrices.  For a fixed simulation tick the
solution under piecewise-constant power is

.. math::

    T^{+} = A_d T + S (P_{ext} + g_{amb} T_{amb} e_{spr})

with ``A_d = exp(M dt)``, ``S = M^{-1} (A_d - I) N``, ``M = -C^{-1} G``
and ``N = C^{-1}``.  Both matrices are precomputed once, so a step is a
5x5 matrix-vector product: unconditionally stable and exact regardless
of the tick length (important because the experiments sweep sampling
intervals up to 10 s).

``A_d`` is the one thing here that needs SciPy (``scipy.linalg.expm``),
and importing ``scipy.linalg`` costs a process about 0.3 s and 28 MB,
while the models a run builds share a handful of ``M dt`` matrices.  So
:func:`propagator` serves ``A_d`` from a content-keyed memo file,
``<cache root>/propagator-memo.json``, and imports ``scipy.linalg`` only
when the memo misses.  The key covers SciPy's ``version.py``, NumPy's
version and the exact bytes of ``M dt``; the value is the raw float64
bytes ``expm`` returned, so a hit is bit-for-bit what ``expm`` gives.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import importlib.util
from contextlib import suppress
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.config import ThermalConfig
from repro.ioutil import ContentMemo, default_cache_root
from repro.thermal.floorplan import Floorplan

#: The propagator memo's file name inside the cache root.
PROPAGATOR_MEMO_FILENAME = "propagator-memo.json"

#: Version of the propagator memo's key; bumping it retires every entry.
PROPAGATOR_SCHEMA_VERSION = 1

#: Layout of the propagator memo file; a file of any other format is ignored.
PROPAGATOR_MEMO_FORMAT = 1

#: One memo per memo file: each process reads a file at most once, and
#: pool workers forked afterwards inherit what it holds.
_MEMOS: Dict[Path, ContentMemo[bytes]] = {}  # repro: noqa[MUT001] reason=content-keyed memo; a value is a pure function of its key, so processes cannot diverge


@functools.lru_cache(maxsize=None)
def _scipy_version_bytes() -> bytes:
    """SciPy's ``version.py``, read without importing SciPy (empty if absent)."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return b""
    with suppress(OSError):
        return (Path(spec.origin).parent / "version.py").read_bytes()
    return b""


def propagator_key(m_dt: np.ndarray) -> str:
    """Content key of ``expm(m_dt)``: everything its bits depend on."""
    header = "\0".join(
        (
            str(PROPAGATOR_SCHEMA_VERSION),
            hashlib.sha256(_scipy_version_bytes()).hexdigest(),
            np.__version__,
            m_dt.dtype.str,
            repr(m_dt.shape),
            "",
        )
    )
    return hashlib.sha256(header.encode("utf-8") + m_dt.tobytes()).hexdigest()


def _decode_entry(raw: object) -> Optional[bytes]:
    if not isinstance(raw, str):
        return None
    try:
        return base64.b64decode(raw, validate=True)
    except ValueError:  # binascii.Error: not base64
        return None


def _encode_entry(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def propagator(m_dt: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm(m_dt)``, from the propagator memo when it holds it.

    A miss (or an entry of the wrong length) imports ``scipy.linalg``,
    calls ``expm`` exactly as an uncached model would and rewrites the
    memo file.  The memo never creates the cache root (so ``--no-cache``
    on a fresh root leaves no directory behind), and a root that does
    not exist or cannot be written only costs the next process the same
    computation.
    """
    m_dt = np.ascontiguousarray(m_dt, dtype=np.float64)
    path = default_cache_root() / PROPAGATOR_MEMO_FILENAME
    memo = _MEMOS.get(path)
    if memo is None:
        memo = _MEMOS[path] = ContentMemo(
            path, PROPAGATOR_MEMO_FORMAT, _decode_entry, _encode_entry
        )
    key = propagator_key(m_dt)
    raw = memo.get(key)
    if raw is not None and len(raw) == m_dt.nbytes:
        return np.frombuffer(raw, dtype=m_dt.dtype).reshape(m_dt.shape).copy()
    from scipy.linalg import expm

    result = expm(m_dt)
    memo.put(key, result.tobytes())
    if path.parent.is_dir():
        memo.save()
    return result


class RCThermalModel:
    """Discrete-time integrator of the die's RC thermal network.

    Parameters
    ----------
    floorplan:
        Die topology.
    config:
        RC parameters (conductances, capacitances, ambient).
    dt:
        Simulation tick in seconds used to precompute the propagator.
    initial_temps_c:
        Optional initial node temperatures; defaults to ambient
        everywhere (a cold start).
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_temps", "_ambient_c")
    #: Network matrices, scratch buffers and the ambient injection
    #: (re-derived from ``_ambient_c`` after a restore).
    DERIVED_FIELDS = (
        "floorplan",
        "config",
        "dt",
        "_num_nodes",
        "_ambient_unit",
        "_ambient_injection",
        "_propagator",
        "_input_matrix",
        "_g",
        "_injection",
        "_mv_state",
        "_mv_input",
    )

    def __init__(
        self,
        floorplan: Floorplan,
        config: ThermalConfig,
        dt: float,
        initial_temps_c: Optional[Sequence[float]] = None,
    ) -> None:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.floorplan = floorplan
        self.config = config
        self.dt = dt
        self._num_nodes = floorplan.num_cores + 1

        g = floorplan.conductance_matrix(config)
        caps = floorplan.capacitance_vector(config)
        self._ambient_unit = floorplan.ambient_vector(config)
        self._ambient_c = config.ambient_c
        self._ambient_injection = self._ambient_unit * config.ambient_c

        inv_c = np.diag(1.0 / caps)
        m = -inv_c @ g
        self._propagator = propagator(m * dt)
        # S = M^{-1} (A_d - I) C^{-1}; M is invertible because the network
        # is grounded through the ambient leg.
        self._input_matrix = np.linalg.solve(
            m, (self._propagator - np.eye(self._num_nodes)) @ inv_c
        )
        self._g = g

        if initial_temps_c is None:
            self._temps = np.full(self._num_nodes, config.ambient_c, dtype=float)
        else:
            temps = np.asarray(initial_temps_c, dtype=float)
            if temps.shape != (self._num_nodes,):
                raise ValueError(
                    f"initial temperatures must have {self._num_nodes} entries"
                )
            self._temps = temps.copy()

        # Scratch buffers of the per-tick fast path (_step_into): the
        # injection vector and the two matrix-vector products.  They are
        # reused every tick so a step allocates nothing.
        self._injection = np.empty(self._num_nodes, dtype=float)
        self._mv_state = np.empty(self._num_nodes, dtype=float)
        self._mv_input = np.empty(self._num_nodes, dtype=float)

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def num_cores(self) -> int:
        """Number of core nodes."""
        return self.floorplan.num_cores

    def core_temps_c(self) -> np.ndarray:
        """Current true core temperatures in degrees Celsius."""
        return self._temps[: self.num_cores].copy()

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------

    def step(
        self, core_powers_w: Sequence[float], spreader_power_w: float = 0.0
    ) -> np.ndarray:
        """Advance one tick under the given power draw.

        Parameters
        ----------
        core_powers_w:
            Heat dissipated by each core during the tick, in watts
            (assumed constant over the tick).
        spreader_power_w:
            Uncore/package heat injected directly into the spreader node.

        Returns
        -------
        numpy.ndarray
            The new core temperatures in degrees Celsius.
        """
        powers = np.asarray(core_powers_w, dtype=float)
        if powers.shape != (self.num_cores,):
            raise ValueError(f"expected {self.num_cores} core powers")
        if np.any(powers < 0.0) or spreader_power_w < 0.0:
            raise ValueError("power cannot be negative")
        self._step_into(powers, spreader_power_w)
        return self.core_temps_c()

    def _step_into(self, core_powers_w, spreader_power_w: float) -> None:
        """Unchecked in-place tick: the hot path behind :meth:`step`.

        Advances ``_temps`` exactly as ``step`` does — same matrices,
        same operation order — but writes into preallocated scratch
        buffers instead of concatenating/allocating, and performs no
        argument validation.  ``core_powers_w`` may be any length-matched
        sequence (the chip passes a plain list).  Callers other than
        :meth:`step` (i.e. :meth:`repro.soc.chip.Chip.step`) are
        responsible for non-negative, correctly-sized inputs.

        ``A @ x`` on a 2-D/1-D pair *is* ``np.matmul``, so routing the
        two products through ``np.matmul(..., out=...)`` reproduces the
        seed's ``propagator @ temps + input_matrix @ injection``
        bit-for-bit while reusing the output buffers.
        """
        injection = self._injection
        injection[:-1] = core_powers_w
        injection[-1] = spreader_power_w
        injection += self._ambient_injection
        np.matmul(self._propagator, self._temps, out=self._mv_state)
        np.matmul(self._input_matrix, injection, out=self._mv_input)
        np.add(self._mv_state, self._mv_input, out=self._temps)

    def steady_state(
        self, core_powers_w: Sequence[float], spreader_power_w: float = 0.0
    ) -> np.ndarray:
        """Steady-state node temperatures under constant power.

        Solves ``G T = P + ambient`` directly; used by tests and by the
        warm-start option of the simulator.
        """
        powers = np.asarray(core_powers_w, dtype=float)
        injection = np.concatenate([powers, [spreader_power_w]]) + self._ambient_injection
        return np.linalg.solve(self._g, injection)

    def set_ambient_c(self, ambient_c: float) -> None:
        """Update the effective ambient temperature (airflow drift)."""
        self._ambient_c = ambient_c
        self._ambient_injection = self._ambient_unit * ambient_c

    def _after_restore(self) -> None:
        self.set_ambient_c(self._ambient_c)

    @property
    def ambient_c(self) -> float:
        """The current effective ambient temperature."""
        return self._ambient_c

    def warm_start(
        self, core_powers_w: Sequence[float], spreader_power_w: float = 0.0
    ) -> None:
        """Jump directly to the steady state for the given power draw."""
        self._temps = self.steady_state(core_powers_w, spreader_power_w)
