"""Content-addressed on-disk result cache.

Completed :class:`~repro.experiments.runner.RunSummary` objects are
stored under ``.repro-cache/results/<key[:2]>/<key>.pkl`` where ``key``
is :func:`repro.experiments.engine.spec.job_key` — a stable hash of the
job spec, the package version and the behavior-closure digest.  Because
the simulations are deterministic, a hit is bit-identical to re-running
the job.

Invalidation is **closure-digest-driven**: the digest fingerprints every
module transitively reachable from the job executors (see
:mod:`repro.analysis.lint.closure`), so editing simulation code
cold-misses stale entries automatically — no manual cache clearing —
while doc-only edits keep the cache warm.  ``repro.__version__`` still
participates in the key, but bumping it is for cut releases, not the
edit-run-edit loop.  Each stored payload records the version and digest
it was keyed under; :func:`repro.analysis.lint.report.explain_job_key`
(``repro lint --explain KEY``) decodes why any entry is fresh or stale.

The cache also owns the *artifact routing* policy: formatted artefact
tables regenerated at full scale belong in the repository's committed
``results/`` directory, while reduced-scale sweeps are routed into the
cache tree (``results-scale-<s>/``) so they can never clobber the
committed full-scale artefacts.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import repro
from repro.experiments.engine.spec import JobSpec, behavior_digest, job_key
from repro.ioutil import CACHE_DIR_ENV as CACHE_DIR_ENV  # re-exported
from repro.ioutil import DEFAULT_CACHE_DIRNAME as DEFAULT_CACHE_DIRNAME  # re-exported
from repro.ioutil import atomic_write, default_cache_root


def artifact_dir(scale: float, results_dir: Path) -> Path:
    """Where regenerated artefact tables for ``scale`` belong.

    Full-scale output goes to the repository's ``results_dir``;
    anything else is routed into the cache tree so reduced-scale sweeps
    cannot overwrite the committed artefacts.
    """
    if scale == 1.0:
        return results_dir
    return default_cache_root() / f"results-scale-{scale:g}"


@dataclass
class CacheStats:
    """Hit/miss/store/invalidation counters of one cache instance.

    ``invalidated`` is the total number of evicted entries; ``corrupt``
    (unreadable pickles) and ``mismatched`` (readable entries keyed
    under a different version or closure digest) break that total down
    by cause for the evictions :meth:`ResultCache.get` performs.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0
    corrupt: int = 0
    mismatched: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (for logging and tests), in field order."""
        return asdict(self)


@dataclass
class ResultCache:
    """Pickle-backed content-addressed store of run summaries.

    Parameters
    ----------
    root:
        Cache root directory (``None`` -> :func:`default_cache_root`).
    version:
        Version string mixed into every key (``None`` -> the installed
        ``repro.__version__``).
    """

    root: Optional[Path] = None
    version: Optional[str] = None
    #: Behavior-closure digest entries are keyed and validated under
    #: (``None`` -> the current tree's, see ``spec.behavior_digest``).
    closure: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root) if self.root is not None else default_cache_root()
        self.version = self.version if self.version is not None else repro.__version__
        self.closure = self.closure if self.closure is not None else behavior_digest()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def key_for(self, spec: JobSpec) -> str:
        """One job's content address under this cache's version + closure."""
        return job_key(spec, self.version, self.closure)

    def _path_for(self, key: str) -> Path:
        return self.root / "results" / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Store / load
    # ------------------------------------------------------------------

    def get(self, spec: JobSpec):
        """The cached summary for ``spec``, or ``None`` (counted miss).

        A corrupt entry (unreadable pickle) or a mismatched one (keyed
        under a different version or closure digest) is deleted and
        reported as a miss; the two causes are counted distinctly in
        ``stats.corrupt`` / ``stats.mismatched`` on top of the shared
        ``stats.invalidated`` total.
        """
        path = self._path_for(self.key_for(spec))
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
            summary = payload["summary"]
        except Exception:
            path.unlink(missing_ok=True)
            self.stats.corrupt += 1
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        if (
            payload.get("version") != self.version
            or payload.get("closure") != self.closure
        ):
            path.unlink(missing_ok=True)
            self.stats.mismatched += 1
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return summary

    def put(self, spec: JobSpec, summary) -> str:
        """Store one summary; atomic and durable against crashes."""
        key = self.key_for(spec)
        path = self._path_for(key)
        payload = {
            "version": self.version,
            "closure": self.closure,
            "key": key,
            "summary": summary,
        }
        atomic_write(
            path,
            lambda handle: pickle.dump(
                payload, handle, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
        self.stats.stores += 1
        return key

    # ------------------------------------------------------------------
    # Invalidation / eviction
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        store = self.root / "results"
        if not store.exists():
            return 0
        return sum(1 for _ in store.rglob("*.pkl"))
