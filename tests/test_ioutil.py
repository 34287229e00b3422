"""Tests for the shared atomic-write helpers.

The one property every artefact writer (result cache, manifests,
checkpoints) leans on: readers observe either the old content or the
new content, never a prefix — and a failed write leaves neither a
damaged target nor temp-file litter behind.
"""

import pytest

from repro.ioutil import atomic_write, atomic_write_bytes, atomic_write_text


def test_writes_content(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(target, b"\x00\x01payload")
    assert target.read_bytes() == b"\x00\x01payload"


def test_replaces_existing_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"


def test_creates_parent_directories(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(target, "deep")
    assert target.read_text() == "deep"


def test_failed_write_leaves_target_untouched(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("precious")

    def explode(handle):
        handle.write(b"partial")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError):
        atomic_write(target, explode)
    assert target.read_text() == "precious"


def test_failed_write_leaves_no_temp_litter(tmp_path):
    target = tmp_path / "out.txt"

    def explode(handle):
        raise RuntimeError("nope")

    with pytest.raises(RuntimeError):
        atomic_write(target, explode)
    assert list(tmp_path.iterdir()) == []


def test_successful_write_leaves_only_the_target(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "only me")
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]


def test_text_encoding(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "héllo", encoding="latin-1")
    assert target.read_bytes() == "héllo".encode("latin-1")
