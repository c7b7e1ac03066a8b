"""The golden behaviour corpus: episodes equal the checked-in record exactly.

``tests/data/golden_episodes.json`` pins the outcome, times, step
counts, channel statistics and ego command digest of every cell of the
engine-oracle grid (see ``tests/golden.py``).  A change that alters any
of them fails here, naming the cells and fields that moved; one that
does so on purpose reruns ``make golden-update`` and shows its diff.
"""

from __future__ import annotations

import pytest

from tests import golden


@pytest.fixture(scope="module")
def corpus(tiny_conservative_spec, scenario):
    return golden.build_corpus(golden.engine_cases(tiny_conservative_spec, scenario))


class TestGoldenCorpus:
    def test_corpus_unchanged(self, corpus):
        lines = golden.corpus_diff(golden.load_corpus(), corpus)
        assert not lines, (
            f"{len(lines)} golden fields moved (make golden-update rewrites "
            "the corpus and prints this diff):\n" + "\n".join(lines[:40])
        )

    def test_grid_is_covered(self, corpus):
        expected = (
            len(golden.CONFIGS) * len(golden.GOLDEN_SETTINGS) * golden.N_SEEDS
        )
        assert len(corpus) == expected
        outcomes = {cell["outcome"] for cell in corpus.values()}
        assert {"reached", "timeout"} <= outcomes
        assert any(cell["emergency_steps"] for cell in corpus.values())
        assert any(cell["channel_stats"] for cell in corpus.values())

    def test_diff_names_cells(self):
        old = {"a/b/0": {"steps": 3, "outcome": "reached"}}
        new = {"a/b/0": {"steps": 4, "outcome": "reached"}, "a/b/1": {}}
        assert golden.corpus_diff(old, new) == [
            "a/b/0 steps: 3 -> 4",
            "a/b/1: added",
        ]
