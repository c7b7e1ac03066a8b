"""Tests for the minibatch trainer."""

import copy

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrainingError
from repro.nn.layers import Dense, Sequential, Tanh
from repro.nn.optimizers import Adam
from repro.nn.serialization import load_model, save_model
from repro.nn.training import Trainer


def _net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(1, 16, rng, init="xavier"), Tanh(), Dense(16, 1, rng)])


def _sine_data(n=512, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=(n, 1))
    y = np.sin(x)
    return x, y


class TestFit:
    def test_learns_sine(self):
        x, y = _sine_data()
        net = _net()
        trainer = Trainer(net, optimizer=Adam(net, 1e-2), batch_size=64,
                          rng=np.random.default_rng(2))
        history = trainer.fit(x, y, epochs=150, patience=None,
                              validation_fraction=0.0)
        assert history.train_loss[-1] < 0.01
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_lengths(self):
        x, y = _sine_data(128)
        net = _net()
        trainer = Trainer(net, rng=np.random.default_rng(3))
        history = trainer.fit(x, y, epochs=5, patience=None)
        assert history.epochs_run == 5
        assert len(history.val_loss) == 5

    def test_early_stopping_triggers(self):
        x, y = _sine_data(256)
        net = _net()
        trainer = Trainer(net, optimizer=Adam(net, 1e-2), batch_size=64,
                          rng=np.random.default_rng(4))
        history = trainer.fit(x, y, epochs=500, patience=5, min_delta=1e-3)
        assert history.stopped_early
        assert history.epochs_run < 500

    def test_best_weights_restored(self):
        x, y = _sine_data(256)
        net = _net()
        trainer = Trainer(net, optimizer=Adam(net, 1e-2), batch_size=64,
                          rng=np.random.default_rng(5))
        history = trainer.fit(x, y, epochs=60, patience=10)
        final_val = trainer.evaluate(x, y)
        # Evaluating on the whole set is not the val split, but the
        # restored best weights must at least be in the same regime as
        # the best recorded val loss.
        assert final_val < history.val_loss[0]

    def test_deterministic_given_seeds(self):
        x, y = _sine_data(128)

        def run():
            net = _net(seed=7)
            trainer = Trainer(net, optimizer=Adam(net, 1e-3), batch_size=32,
                              rng=np.random.default_rng(8))
            trainer.fit(x, y, epochs=3, patience=None)
            return net.forward(x[:5]).copy()

        assert np.allclose(run(), run())


class TestValidation:
    def test_empty_dataset_rejected(self):
        net = _net()
        with pytest.raises(TrainingError):
            Trainer(net).fit(np.zeros((0, 1)), np.zeros((0, 1)))

    def test_length_mismatch_rejected(self):
        net = _net()
        with pytest.raises(TrainingError):
            Trainer(net).fit(np.zeros((4, 1)), np.zeros((3, 1)))

    def test_bad_fraction_rejected(self):
        net = _net()
        with pytest.raises(TrainingError):
            Trainer(net).fit(
                np.zeros((4, 1)), np.zeros((4, 1)), validation_fraction=1.0
            )

    def test_bad_epochs_rejected(self):
        net = _net()
        with pytest.raises(TrainingError):
            Trainer(net).fit(np.zeros((4, 1)), np.zeros((4, 1)), epochs=0)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(TrainingError):
            Trainer(_net(), batch_size=0)

    def test_single_sample_trains_without_split(self):
        net = _net()
        trainer = Trainer(net, rng=np.random.default_rng(0))
        history = trainer.fit(
            np.ones((1, 1)), np.ones((1, 1)), epochs=2, patience=None
        )
        assert history.epochs_run == 2
        assert history.val_loss == []

    def test_evaluate_does_not_change_model(self):
        x, y = _sine_data(64)
        net = _net()
        trainer = Trainer(net)
        before = net.forward(x[:3]).copy()
        trainer.evaluate(x, y)
        assert np.allclose(net.forward(x[:3]), before)


class TestOptimizerBinding:
    def test_optimizer_of_another_model_rejected(self):
        net, other = _net(0), _net(1)
        with pytest.raises(ConfigurationError):
            Trainer(net, optimizer=Adam(other))

    def test_trained_model_is_an_ordinary_sequential(self, tmp_path):
        x, y = _sine_data(128)
        net = _net()
        Trainer(net, rng=np.random.default_rng(3)).fit(x, y, epochs=3)
        expected = net.forward(x[:7]).copy()
        twin = copy.deepcopy(net)
        assert np.array_equal(twin.forward(x[:7]), expected)
        restored = load_model(save_model(net, tmp_path / "model"))
        assert np.array_equal(restored.forward(x[:7]), expected)
        # The twin trains on its own arrays; the original does not move.
        Trainer(twin, rng=np.random.default_rng(4)).fit(x, y, epochs=2)
        assert not np.array_equal(twin.forward(x[:7]), expected)
        assert np.array_equal(net.forward(x[:7]), expected)


class TestLayerChain:
    @pytest.mark.parametrize(
        "layers, width",
        [
            (lambda rng: [Dense(2, 4, rng), Tanh(), Dense(4, 1, rng)], 1),
            (lambda rng: [Dense(1, 4, rng), Tanh(), Dense(5, 1, rng)], 1),
            (lambda rng: [Dense(1, 4, rng), Sequential([Tanh()]), Dense(4, 1, rng)], 1),
            (lambda rng: [Dense(1, 4, rng), Tanh(), Dense(4, 1, rng)], 2),
        ],
        ids=["input-width", "hidden-width", "nested", "target-width"],
    )
    def test_malformed_chain_rejected_before_any_epoch(self, layers, width):
        net = Sequential(layers(np.random.default_rng(0)))
        epochs = []
        trainer = Trainer(
            net, rng=np.random.default_rng(0),
            schedule=lambda epoch: epochs.append(epoch) or 1e-3,
        )
        before = {name: p.copy() for name, p in net.parameters().items()}
        with pytest.raises(ConfigurationError):
            trainer.fit(np.zeros((8, 1)), np.zeros((8, width)), epochs=2)
        assert epochs == []
        for name, param in net.parameters().items():
            assert np.array_equal(param, before[name])


class TestEvaluateCachesNothing:
    def _caches(self, net):
        return [
            layer._input if isinstance(layer, Dense) else layer._cache
            for layer in net.layers
        ]

    def test_fit_and_evaluate_leave_no_caches(self):
        x, y = _sine_data(200)
        net = _net()
        trainer = Trainer(net, rng=np.random.default_rng(0))
        trainer.fit(x, y, epochs=2)
        trainer.evaluate(x, y)
        assert self._caches(net) == [None] * len(net.layers)

    def test_evaluate_leaves_existing_caches_alone(self):
        x, y = _sine_data(64)
        net = _net()
        net.forward(x[:5])
        before = self._caches(net)
        Trainer(net).evaluate(x, y)
        after = self._caches(net)
        assert all(a is b for a, b in zip(after, before))
