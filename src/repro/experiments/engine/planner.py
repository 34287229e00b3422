"""The ensemble grid planner: batch scalar sweep cells into ensembles.

Every experiment grid submits plain scalar :class:`JobSpec` cells.  The
planner is the pass that lets the engine execute those same cells
through the vectorized ensemble engine instead: it partitions a batch
into :class:`EnsembleJobSpec`-shaped member groups plus the scalar
leftovers too few to be worth an ensemble.

The one grouping rule is the ensemble engine's own precondition: members
of one group share the *exact* ``platform`` field — ``None`` ("the
runner's default") is deliberately distinct from an explicit
default-valued :class:`~repro.config.PlatformConfig`, because that is
the uniformity :class:`EnsembleJobSpec` validates and the one the member
cache keys encode.  A platform with fewer than :data:`MIN_GROUP` cells
stays scalar.

Everything else — job kind, app or scenario, dataset, policy, seed,
agent config, action space, affinity mapping, fault schedule,
supervisor, Ge&Qiu config — may vary freely *within* a group: the ensemble data plane is bit-faithful per
member regardless of who shares the batch (cross-member isolation), and
heterogeneous control-plane members simply fall back to the scalar
per-member manager path inside the ensemble tick.

Determinism: groups appear in order of their platform's first
appearance in the batch, member indices ascend within a group, and the
scalar leftovers ascend — so the shard job specs derived from a plan
(and hence their content hashes and failure records) are a pure
function of the submitted batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import PlatformConfig
from repro.experiments.engine.spec import JobSpec

#: Fewest members worth an ensemble, and fewest per shard.  The
#: vectorized tick has a fixed dispatch cost, so narrow ensembles lose
#: to scalar runs: N members as one ensemble against N scalar runs
#: (scale 0.2, 2-vCPU host, scalar CPU / ensemble CPU) measured 0.36x
#: at 2 members, 1.14x (tachyon/linux) and 1.01x (face_rec/proposed)
#: at 8, 2.07x/1.80x at 16.  Eight is the measured break-even; smaller
#: groups stay on the scalar path.
MIN_GROUP = 8


@dataclass(frozen=True)
class GridPlan:
    """A deterministic partition of one batch of job specs.

    ``groups`` holds tuples of batch indices destined for one
    :class:`EnsembleJobSpec` each; ``scalar`` holds the indices left on
    the scalar execution path.  Together they cover every submitted
    index exactly once.
    """

    groups: Tuple[Tuple[int, ...], ...] = ()
    scalar: Tuple[int, ...] = ()

    @property
    def batched_members(self) -> int:
        """Members routed through the ensemble engine."""
        return sum(len(group) for group in self.groups)

    def indices(self) -> List[int]:
        """Every planned index, sorted (for coverage checks)."""
        flat = [index for group in self.groups for index in group]
        flat.extend(self.scalar)
        return sorted(flat)


def plan_grid(specs: Sequence[JobSpec]) -> GridPlan:
    """Partition a batch into ensemble groups plus scalar leftovers.

    Platforms with fewer than :data:`MIN_GROUP` cells (read at call
    time) fall back to the scalar path.

    Parameters
    ----------
    specs:
        The batch, in submission order.  Callers pass the *pending*
        (cache-missed, deduplicated) specs, so planning never changes
        what the cache already resolved.
    """
    by_platform: Dict[Optional[PlatformConfig], List[int]] = {}
    order: List[Optional[PlatformConfig]] = []
    for index, spec in enumerate(specs):
        if spec.platform not in by_platform:
            by_platform[spec.platform] = []
            order.append(spec.platform)
        by_platform[spec.platform].append(index)
    groups: List[Tuple[int, ...]] = []
    scalar: List[int] = []
    for key in order:
        members = by_platform[key]
        if len(members) >= MIN_GROUP:
            groups.append(tuple(members))
        else:
            scalar.extend(members)
    scalar.sort()
    return GridPlan(groups=tuple(groups), scalar=tuple(scalar))

