"""Per-OPP power lookup table for the chip's per-tick hot loop.

Everything about a core's power draw that depends only on the operating
point — the supply voltage, the full-activity dynamic power, and the
voltage-scaled leakage prefactor — is fixed the moment the OPP ladder is
fixed, yet the seed ``Chip.step`` re-derived it every tick for every
core: a linear ``OppLadder.index_of`` scan for the voltage plus the
argument validation inside :func:`~repro.power.dynamic.dynamic_power_w`
and :func:`~repro.power.leakage.leakage_power_w`.  A :class:`PowerTable`
precomputes one :class:`OppPowerEntry` per operating point, keyed by the
exact ladder frequency, so the per-core work becomes one dict lookup and
a handful of scalar multiplies.

Bit-identity contract: ``Chip.step`` evaluates the entries with the
*exact* floating-point operation order of the free functions.  In
particular the dynamic-power chain ``a * c_eff * v * v * f`` associates
left-to-right, so it must not be folded into ``a * precomputed_coeff`` —
only the leakage prefactor ``k_leak * v`` (a genuine left-to-right
prefix of the leakage chain) is safe to precompute.  ``dynamic_coeff_w``
equals the chain at ``a = 1.0`` exactly (multiplying by 1.0 first is an
FP no-op) and is exposed for reporting and tests.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.config import PowerConfig
from repro.power.opp import OppLadder


class OppPowerEntry(NamedTuple):
    """Precomputed power constants of one operating point.

    Attributes
    ----------
    frequency_hz:
        The operating point's clock frequency.
    voltage_v:
        The operating point's supply voltage.
    dynamic_coeff_w:
        Dynamic power at full activity, ``c_eff * v * v * f``; equals
        ``dynamic_power_w(1.0, v, f, config)`` bit-for-bit.
    leakage_scale_w:
        The leakage prefactor ``k_leak * v``; equals
        ``leakage_power_w(0.0, v, config)`` bit-for-bit (``exp(0) = 1``).
    """

    frequency_hz: float
    voltage_v: float
    dynamic_coeff_w: float
    leakage_scale_w: float


class PowerTable:
    """Per-OPP constants for allocation-free power evaluation.

    Parameters
    ----------
    ladder:
        The platform's OPP ladder.
    config:
        Power-model constants.
    """

    def __init__(self, ladder: OppLadder, config: PowerConfig) -> None:
        self.ladder = ladder
        self.config = config
        self.c_eff = config.c_eff
        self.t_leak = config.t_leak
        entries = []
        by_frequency: Dict[float, OppPowerEntry] = {}
        for point in ladder.points:
            voltage = point.voltage_v
            frequency = point.frequency_hz
            if voltage <= 0.0 or frequency <= 0.0:
                raise ValueError("voltage and frequency must be positive")
            entry = OppPowerEntry(
                frequency_hz=frequency,
                voltage_v=voltage,
                dynamic_coeff_w=config.c_eff * voltage * voltage * frequency,
                leakage_scale_w=config.k_leak * voltage,
            )
            entries.append(entry)
            by_frequency[frequency] = entry
        self.entries: Tuple[OppPowerEntry, ...] = tuple(entries)
        self._by_frequency = by_frequency

    def entry_for_hz(self, frequency_hz: float) -> OppPowerEntry:
        """The entry of the operating point at this frequency.

        An exact float match (the common case — governors hand back the
        ladder's own frequencies) is a dict hit; anything else falls back
        to the ladder's tolerant linear scan.

        Raises
        ------
        KeyError
            If the frequency is not on the ladder.
        """
        entry = self._by_frequency.get(frequency_hz)
        if entry is not None:
            return entry
        return self.entries[self.ladder.index_of(frequency_hz)]
