"""Die floorplan: which cores are thermally adjacent.

The default quad-core is laid out as a 2x2 grid (cores 0-1 on the top
row, 2-3 on the bottom), so each core has two lateral neighbours.  The
floorplan's job is to turn that adjacency plus the per-interface
conductances into the conductance matrix the RC model integrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import ThermalConfig


@dataclass(frozen=True)
class Floorplan:
    """Thermal topology of the die.

    Attributes
    ----------
    num_cores:
        Number of core nodes.
    adjacency:
        Pairs of core indices that share a lateral thermal interface.
    """

    num_cores: int
    adjacency: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        for a, b in self.adjacency:
            if not (0 <= a < self.num_cores and 0 <= b < self.num_cores):
                raise ValueError(f"adjacency ({a}, {b}) outside 0..{self.num_cores - 1}")
            if a == b:
                raise ValueError("a core cannot be adjacent to itself")

    @classmethod
    def grid_2x2(cls) -> "Floorplan":
        """The default 2x2 quad-core floorplan."""
        return cls(num_cores=4, adjacency=((0, 1), (0, 2), (1, 3), (2, 3)))

    @classmethod
    def line(cls, num_cores: int) -> "Floorplan":
        """A 1-D row of cores (used for what-if floorplan tests)."""
        pairs = tuple((i, i + 1) for i in range(num_cores - 1))
        return cls(num_cores=num_cores, adjacency=pairs)

    def neighbours(self, core: int) -> Tuple[int, ...]:
        """Indices of the cores laterally adjacent to ``core``."""
        result = []
        for a, b in self.adjacency:
            if a == core:
                result.append(b)
            elif b == core:
                result.append(a)
        return tuple(sorted(result))

    def conductance_matrix(self, config: ThermalConfig) -> np.ndarray:
        """Build the (N+1)x(N+1) conductance Laplacian ``G``.

        Node ``N`` is the heat spreader.  ``G`` is constructed so that the
        heat-flow equation reads ``C dT/dt = P_ext - G T - g_amb e_N *
        (-Tamb)`` i.e. ``G`` contains the ambient leg on the spreader's
        diagonal; the ambient injection vector is supplied separately by
        :meth:`ambient_vector`.

        Returns
        -------
        numpy.ndarray
            Symmetric positive-definite conductance matrix in W/K.
        """
        n = self.num_cores
        g = np.zeros((n + 1, n + 1))
        # Core <-> spreader legs.
        for i in range(n):
            g[i, i] += config.core_to_spreader
            g[n, n] += config.core_to_spreader
            g[i, n] -= config.core_to_spreader
            g[n, i] -= config.core_to_spreader
        # Core <-> core lateral legs.
        for a, b in self.adjacency:
            g[a, a] += config.core_to_core
            g[b, b] += config.core_to_core
            g[a, b] -= config.core_to_core
            g[b, a] -= config.core_to_core
        # Spreader <-> ambient leg (grounds the network).
        g[n, n] += config.spreader_to_ambient
        return g

    def ambient_vector(self, config: ThermalConfig) -> np.ndarray:
        """Heat injected per node by the ambient at 1 K (W/K units)."""
        vec = np.zeros(self.num_cores + 1)
        vec[self.num_cores] = config.spreader_to_ambient
        return vec

    def capacitance_vector(self, config: ThermalConfig) -> np.ndarray:
        """Per-node heat capacities in J/K (cores then spreader)."""
        caps = np.full(self.num_cores + 1, config.core_capacitance)
        caps[self.num_cores] = config.spreader_capacitance
        return caps
