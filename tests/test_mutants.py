"""The mutant table stays applicable: every anchor occurs exactly once.

Applying the mutants runs the suite many times, so it is a CI job of its
own (``python tests/mutants.py``); this check reads files only.
"""

import pytest

from tests.mutants import MUTANTS, REPO


@pytest.mark.parametrize(
    "mutant", MUTANTS, ids=[f"{i}-{m.file.rsplit('/', 1)[-1]}" for i, m in enumerate(MUTANTS)]
)
def test_every_anchor_occurs_exactly_once(mutant):
    text = (REPO / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.anchor) == 1, f"{mutant.file}: {mutant.anchor!r}"
    assert mutant.replacement != mutant.anchor
    path, _, name = mutant.test.partition("::")
    assert (REPO / path).is_file() and name, mutant.test
