"""Tests for seeded RNG streams."""

import numpy as np
import pytest

from repro.utils.rng import RngStream, child_seed, spawn_streams


class TestReproducibility:
    def test_same_seed_same_draws(self):
        a = RngStream(42)
        b = RngStream(42)
        assert float(a.uniform()) == float(b.uniform())
        assert list(a.normal(size=5)) == list(b.normal(size=5))

    def test_different_seeds_differ(self):
        a = RngStream(1)
        b = RngStream(2)
        assert float(a.uniform()) != float(b.uniform())

    def test_spawn_reproducible(self):
        kids_a = RngStream(7).spawn(3)
        kids_b = RngStream(7).spawn(3)
        for ka, kb in zip(kids_a, kids_b):
            assert float(ka.uniform()) == float(kb.uniform())

    def test_spawn_children_independent(self):
        kids = RngStream(7).spawn(2)
        assert float(kids[0].uniform()) != float(kids[1].uniform())

    def test_spawn_streams_helper(self):
        streams = spawn_streams(3, 4)
        assert len(streams) == 4
        draws = {float(s.uniform()) for s in streams}
        assert len(draws) == 4

    def test_spawn_seeds_are_the_spawned_streams(self):
        # spawn_seeds continues the same child count spawn does.
        a = RngStream(7)
        b = RngStream(7)
        for _ in range(2):
            ours = [RngStream(seed) for seed in a.spawn_seeds(3)]
            theirs = b.spawn(3)
            for x, y in zip(ours, theirs):
                assert list(x.random(size=4)) == list(y.random(size=4))

    @pytest.mark.parametrize("index", [0, 1, 4])
    def test_child_seed_is_the_spawned_child(self, index):
        parent = RngStream(11).spawn_seeds(2)[1]
        spawned = np.random.SeedSequence(
            parent.entropy, spawn_key=parent.spawn_key, pool_size=parent.pool_size
        ).spawn(index + 1)[index]
        ours = child_seed(parent, index)
        assert ours.spawn_key == spawned.spawn_key == parent.spawn_key + (index,)
        assert list(ours.generate_state(4)) == list(spawned.generate_state(4))
        assert parent.n_children_spawned == 0

    def test_child_differs_from_parent_sequence(self):
        parent = RngStream(9)
        child = parent.child()
        assert float(parent.uniform()) != float(child.uniform())


class TestDraws:
    def test_uniform_range(self, rng):
        samples = rng.uniform(2.0, 3.0, size=100)
        assert np.all(samples >= 2.0)
        assert np.all(samples < 3.0)

    def test_integers_range(self, rng):
        samples = rng.integers(0, 5, size=200)
        assert set(np.unique(samples)).issubset({0, 1, 2, 3, 4})

    def test_bernoulli_extremes(self, rng):
        assert rng.bernoulli(1.0) is True
        assert rng.bernoulli(0.0) is False

    def test_bernoulli_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_bernoulli_rate(self):
        rng = RngStream(5)
        hits = sum(rng.bernoulli(0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    def test_choice(self, rng):
        picked = rng.choice([10, 20, 30])
        assert picked in (10, 20, 30)

    def test_permutation(self, rng):
        perm = rng.permutation(10)
        assert sorted(perm) == list(range(10))

    def test_shuffle_in_place(self, rng):
        arr = np.arange(20)
        rng.shuffle(arr)
        assert sorted(arr) == list(range(20))


class TestLazyGenerator:
    """A stream builds its numpy generator only when it is drawn from."""

    @pytest.fixture()
    def built(self, monkeypatch):
        calls = []
        default_rng = np.random.default_rng

        def counting(seed):
            calls.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        return calls

    def test_spawn_only_stream_builds_no_generator(self, built):
        stream = RngStream(11)
        stream.spawn_seeds(5)
        children = stream.spawn(3)
        assert built == []
        children[0].uniform(-1.0, 1.0)
        assert len(built) == 1

    @pytest.mark.parametrize(
        "first_use",
        [
            lambda s: s.random(),
            lambda s: s.normal(),
            lambda s: s.generator,
            lambda s: s.integers(0, 5),
        ],
        ids=["scalar", "sized", "generator", "integers"],
    )
    def test_first_use_builds_one_generator(self, built, first_use):
        stream = RngStream(12)
        first_use(stream)
        stream.uniform()
        stream.normal()
        assert len(built) == 1
