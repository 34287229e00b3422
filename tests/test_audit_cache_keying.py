"""End-to-end tests for behavior-closure-driven cache keying.

The contract under test: a job key covers the spec, the package version
and the behavior-closure digest, so editing simulation *code* cold-misses
stale cache entries automatically while doc-only edits keep the cache
warm.  The end-to-end tests copy the real ``repro`` package into a
temporary tree and point ``$REPRO_CLOSURE_ROOT`` at it, so they can edit
"the simulator" without touching the checkout.
"""

import pickle
import shutil
from pathlib import Path

import pytest

from repro.analysis.lint import clear_closure_cache
from repro.experiments.engine import (
    CLOSURE_DIGEST_ENV,
    CLOSURE_ROOT_ENV,
    ResultCache,
    behavior_digest,
    canonical_json,
    job_key,
    workload_job,
)

SRC_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture
def spec():
    return workload_job("mpeg_dec", policy="proposed", iteration_scale=0.05)


class TestKeyDerivation:
    def test_canonical_document_carries_the_closure(self, spec, monkeypatch):
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "feedface" * 8)
        document = canonical_json(spec)
        assert '"closure":"' + "feedface" * 8 + '"' in document

    def test_pinned_digest_changes_the_key(self, spec, monkeypatch):
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "a" * 64)
        first = job_key(spec)
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "b" * 64)
        assert job_key(spec) != first

    def test_explicit_closure_argument_overrides(self, spec, monkeypatch):
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "a" * 64)
        assert job_key(spec, closure="c" * 64) == job_key(
            spec, closure="c" * 64
        )
        assert job_key(spec, closure="c" * 64) != job_key(spec)

    def test_behavior_digest_prefers_the_pin(self, monkeypatch):
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "d" * 64)
        assert behavior_digest() == "d" * 64


class TestEndToEndInvalidation:
    """Edit a copy of the real package; watch the cache react."""

    @pytest.fixture
    def tree(self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        shutil.copytree(
            SRC_PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        monkeypatch.delenv(CLOSURE_DIGEST_ENV, raising=False)
        monkeypatch.setenv(CLOSURE_ROOT_ENV, str(package))
        # The fingerprint memo lives beside the result store, so these
        # edits re-key through it.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_closure_cache()
        yield package
        clear_closure_cache()

    def cache_for(self, tmp_path):
        # A fresh instance resolves the closure digest of the (possibly
        # just-edited) tree; the on-disk store is shared across them.
        return ResultCache(root=tmp_path / "cache")

    def test_doc_only_edit_keeps_the_cache_warm(self, tree, tmp_path, spec):
        self.cache_for(tmp_path).put(spec, {"ok": True})

        chip = tree / "soc" / "chip.py"
        source = chip.read_text(encoding="utf-8")
        assert '"""' in source
        chip.write_text(
            "# annotation: doc-only edit for the keying test\n"
            + source.replace('"""', '"""Doc-only tweak. ', 1),
            encoding="utf-8",
        )
        clear_closure_cache()

        warm = self.cache_for(tmp_path)
        assert warm.get(spec) == {"ok": True}
        assert warm.stats.as_dict() == {
            "hits": 1,
            "misses": 0,
            "stores": 0,
            "invalidated": 0,
            "corrupt": 0,
            "mismatched": 0,
        }

    def test_behavior_edit_cold_misses(self, tree, tmp_path, spec):
        before = self.cache_for(tmp_path)
        before.put(spec, {"ok": True})

        chip = tree / "soc" / "chip.py"
        chip.write_text(
            chip.read_text(encoding="utf-8") + "\n_KEYING_PROBE = 1\n",
            encoding="utf-8",
        )
        clear_closure_cache()

        after = self.cache_for(tmp_path)
        assert after.closure != before.closure
        assert after.key_for(spec) != before.key_for(spec)
        assert after.get(spec) is None
        assert after.stats.misses == 1
        # The old entry is still addressable under the old digest.
        assert before.get(spec) == {"ok": True}


class TestEvictionAccounting:
    """Corrupt and mismatched entries are evicted — and counted apart."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "e" * 64)
        return ResultCache(root=tmp_path / "cache")

    def entry_path(self, cache, spec):
        path = cache._path_for(cache.key_for(spec))
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def test_corrupt_entry_is_counted_as_corrupt(self, cache, spec):
        self.entry_path(cache, spec).write_bytes(b"not a pickle")
        assert cache.get(spec) is None
        stats = cache.stats.as_dict()
        assert stats["corrupt"] == 1
        assert stats["mismatched"] == 0
        assert stats["invalidated"] == 1
        assert stats["misses"] == 1

    def test_stale_closure_is_counted_as_mismatched(self, cache, spec):
        payload = {
            "version": cache.version,
            "closure": "f" * 64,  # keyed under some older tree
            "key": cache.key_for(spec),
            "summary": {"ok": True},
        }
        with self.entry_path(cache, spec).open("wb") as handle:
            pickle.dump(payload, handle)
        assert cache.get(spec) is None
        stats = cache.stats.as_dict()
        assert stats["corrupt"] == 0
        assert stats["mismatched"] == 1
        assert stats["invalidated"] == 1
        assert stats["misses"] == 1

    def test_stale_version_is_counted_as_mismatched(self, cache, spec):
        payload = {
            "version": "0.0.0-ancient",
            "closure": cache.closure,
            "key": cache.key_for(spec),
            "summary": {"ok": True},
        }
        with self.entry_path(cache, spec).open("wb") as handle:
            pickle.dump(payload, handle)
        assert cache.get(spec) is None
        assert cache.stats.mismatched == 1

    def test_both_evictions_clear_the_entry_from_disk(self, cache, spec):
        path = self.entry_path(cache, spec)
        path.write_bytes(b"junk")
        cache.get(spec)
        assert not path.exists()

    def test_round_trip_is_a_hit(self, cache, spec):
        cache.put(spec, {"ok": True})
        assert cache.get(spec) == {"ok": True}
        assert cache.stats.hits == 1
        assert cache.stats.invalidated == 0
