"""Batched chip: power model + RC thermal network + energy meter.

Mirrors :class:`repro.soc.chip.Chip` over the ensemble axis.  All
members share one platform (validated at adoption), so the propagator
and input matrices are shared ``(nodes, nodes)`` arrays while the node
temperatures, ambient injection and energy accumulators are batched.

Two FP-faithfulness constraints shape the implementation:

* The thermal step uses a *broadcast stacked matmul*
  (``P[None] @ T[:, :, None]``), which NumPy evaluates as one GEMV per
  member — bit-identical to the scalar path.  A GEMM/einsum over a
  ``(members, nodes)`` matrix would reassociate the dot products.
* Leakage uses ``math.exp`` per element (via ``map`` over the raveled
  exponents): ``np.exp`` is allowed to differ from libm in the last ulp.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.soc.chip import Chip

#: Ambient-drift noise draws buffered per refill (chunked draws from a
#: Generator are bit-identical to repeated scalar draws).
_DRIFT_CHUNK = 256


class BatchedChip:
    """All members' die state, stepped in one vectorized tick."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "node_temps",
        "ambient_c",
        "ambient_injection",
        "dynamic_j",
        "static_j",
        "energy_elapsed_s",
        "_drift_rngs",
        "_drift_chunk",
        "_drift_cursor",
    )
    #: Shared platform constants and per-tick scratch buffers.
    DERIVED_FIELDS = (
        "num_members",
        "num_cores",
        "num_nodes",
        "propagator",
        "input_matrix",
        "ambient_unit",
        "c_eff",
        "t_leak",
        "freqs_asc",
        "voltage_by_idx",
        "leak_scale_by_idx",
        "idle_package_power_w",
        "uncore_per_active_w",
        "drift_enabled",
        "ambient_target_c",
        "drift_tau_s",
        "drift_sigma_c",
        "_injection",
        "_mv_state",
        "_mv_input",
    )

    def __init__(self, template: Chip, num_members: int) -> None:
        config = template.config
        self.num_members = num_members
        self.num_cores = config.num_cores
        self.num_nodes = self.num_cores + 1
        m, n = num_members, self.num_nodes
        thermal = template.thermal
        # Shared, read-only matrices (uniform platform).
        self.propagator = thermal._propagator
        self.input_matrix = thermal._input_matrix
        self.ambient_unit = thermal._ambient_unit
        # Power-table constants, indexed by OPP ladder position.
        table = template.power_table
        self.c_eff = float(table.c_eff)
        self.t_leak = float(table.t_leak)
        ladder = template.ladder
        self.freqs_asc = np.asarray(ladder.frequencies(), dtype=np.float64)
        self.voltage_by_idx = np.asarray(
            [p.voltage_v for p in ladder.points], dtype=np.float64
        )
        self.leak_scale_by_idx = np.asarray(
            [
                table._by_frequency[p.frequency_hz].leakage_scale_w
                for p in ladder.points
            ],
            dtype=np.float64,
        )
        self.idle_package_power_w = float(config.power.idle_package_power)
        self.uncore_per_active_w = float(config.power.uncore_power_per_active_core)
        # Batched state.
        self.node_temps = np.zeros((m, n), dtype=np.float64)
        self.ambient_c = np.full(m, config.thermal.ambient_c, dtype=np.float64)
        self.ambient_injection = np.zeros((m, n), dtype=np.float64)
        self.dynamic_j = np.zeros(m, dtype=np.float64)
        self.static_j = np.zeros(m, dtype=np.float64)
        self.energy_elapsed_s = np.zeros(m, dtype=np.float64)
        # Ornstein-Uhlenbeck ambient drift (chunked per-member draws).
        self.drift_enabled = template._drift_enabled
        self.ambient_target_c = float(config.thermal.ambient_c)
        self.drift_tau_s = float(config.thermal.ambient_drift_tau_s)
        self.drift_sigma_c = float(config.thermal.ambient_drift_sigma_c)
        self._drift_rngs: List[np.random.Generator] = []
        self._drift_chunk = np.zeros((m, _DRIFT_CHUNK), dtype=np.float64)
        self._drift_cursor = _DRIFT_CHUNK
        # Scratch buffers for the per-tick thermal step.
        self._injection = np.empty((m, n), dtype=np.float64)
        self._mv_state = np.empty((m, n, 1), dtype=np.float64)
        self._mv_input = np.empty((m, n, 1), dtype=np.float64)

    def adopt_row(self, member: int, chip: Chip) -> None:
        """Import one member's live chip state (post warm start)."""
        thermal = chip.thermal
        self.node_temps[member] = thermal._temps
        self.ambient_c[member] = thermal.ambient_c
        self.ambient_injection[member] = thermal._ambient_injection
        meter = chip.energy
        self.dynamic_j[member] = meter.dynamic_j
        self.static_j[member] = meter.static_j
        self.energy_elapsed_s[member] = meter.elapsed_s
        self._drift_rngs.append(chip._drift_rng)

    def core_temps(self) -> np.ndarray:
        """(members, cores) view of the true core temperatures."""
        return self.node_temps[:, : self.num_cores]

    def _drift_normals(self) -> np.ndarray:
        """One standard-normal draw per member from the chunked buffers."""
        if self._drift_cursor >= _DRIFT_CHUNK:
            for m, rng in enumerate(self._drift_rngs):
                self._drift_chunk[m] = rng.normal(size=_DRIFT_CHUNK)
            self._drift_cursor = 0
        draws = self._drift_chunk[:, self._drift_cursor]
        self._drift_cursor += 1
        return draws

    def step(self, activity: np.ndarray, freq: np.ndarray, dt: float) -> None:
        """Advance every member's die one tick.

        ``activity`` and ``freq`` are (members, cores); ``freq`` holds
        exact OPP frequencies (the engine passes the pre-update governor
        copy, as the scalar loop does).
        """
        m, c = self.num_members, self.num_cores
        if self.drift_enabled:
            pull_gain = dt / self.drift_tau_s
            kick_scale = self.drift_sigma_c * np.sqrt(2.0 * dt / self.drift_tau_s)
            pull = (self.ambient_target_c - self.ambient_c) * pull_gain
            kick = kick_scale * self._drift_normals()
            self.ambient_c = self.ambient_c + pull + kick
            self.ambient_injection = (
                self.ambient_unit[None, :] * self.ambient_c[:, None]
            )
        # Per-core power; the OPP dict lookup becomes an index gather
        # (frequencies are exact ladder values by construction).
        freq_idx = self.freqs_asc.searchsorted(freq)
        voltage = self.voltage_by_idx[freq_idx]
        dynamic = activity * self.c_eff * voltage * voltage * freq
        exponent = self.t_leak * self.core_temps()
        exp_vals = np.fromiter(
            map(math.exp, exponent.ravel().tolist()),
            dtype=np.float64,
            count=m * c,
        ).reshape(m, c)
        static = self.leak_scale_by_idx[freq_idx] * exp_vals
        # Ordered per-core reductions mirror the scalar sum() calls.
        act_sum = np.zeros(m, dtype=np.float64)
        for core in range(c):
            act_sum = act_sum + activity[:, core]
        uncore = self.idle_package_power_w + self.uncore_per_active_w * act_sum
        dyn_sum = np.zeros(m, dtype=np.float64)
        stat_sum = np.zeros(m, dtype=np.float64)
        for core in range(c):
            dyn_sum = dyn_sum + dynamic[:, core]
            stat_sum = stat_sum + static[:, core]
        self.dynamic_j = self.dynamic_j + (dyn_sum + uncore) * dt
        self.static_j = self.static_j + stat_sum * dt
        self.energy_elapsed_s = self.energy_elapsed_s + dt
        # Thermal step: one GEMV per member via broadcast stacked matmul.
        injection = self._injection
        injection[:, :c] = dynamic + static
        injection[:, c] = uncore
        injection += self.ambient_injection
        np.matmul(
            self.propagator[None, :, :],
            self.node_temps[:, :, None],
            out=self._mv_state,
        )
        np.matmul(
            self.input_matrix[None, :, :], injection[:, :, None], out=self._mv_input
        )
        np.add(
            self._mv_state[:, :, 0], self._mv_input[:, :, 0], out=self.node_temps
        )
