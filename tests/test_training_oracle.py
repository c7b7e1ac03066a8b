"""Differential test: the fused training step against the per-layer loop.

``repro.nn.training.Trainer`` runs each minibatch as one fused step: a
bare forward pass over the layer chain, a backward pass that writes the
dense gradients straight into the optimizer's flat gradient vector, and
one flat ``Adam``/``SGD`` update.  ``tests/training_oracle.py`` keeps the
loop it replaced: per-parameter optimizers driving the public
``Layer.forward``/``backward`` API.  Both train twin models from the same
seeds, and everything must be exactly equal (``np.array_equal``, NaNs in
the same places):

* every weight, bias and gradient array of the trained model;
* the ``TrainingHistory``: ``train_loss``, ``val_loss``, ``best_epoch``,
  ``stopped_early``;
* the optimizer state: learning rate, Adam's step count and moments,
  SGD's velocity.

The cases cover both tiny planner styles of ``conftest.py``, Adam with
weight decay and with gradient clipping (firing and not firing), SGD
with and without momentum, a cosine schedule, the MSE, MAE and Huber
losses, a Sigmoid/Identity/Tanh/ReLU stack with two outputs, batch sizes
that do not divide the training set (down to a one-row last batch), no
validation split, no patience, an early stop, a diverging run, two
consecutive ``fit`` calls, and manual ``forward``/``backward``/``step()``
after ``fit``, including on replaced arrays and a copied optimizer.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn import schedules
from repro.nn.layers import Dense, Identity, ReLU, Sequential, Sigmoid, Tanh
from repro.nn.losses import HuberLoss, MAELoss, MSELoss
from repro.nn.optimizers import SGD, Adam
from repro.nn.training import Trainer
from repro.planners import factory
from tests import training_oracle as oracle
from tests.conftest import TINY_DEMO

FAST = SimpleNamespace(Trainer=Trainer, Adam=Adam, SGD=SGD)
SLOW = SimpleNamespace(Trainer=oracle.Trainer, Adam=oracle.Adam, SGD=oracle.SGD)


class _ClipCountingAdam(oracle.Adam):
    """The oracle Adam, counting the steps on which clipping fires."""

    fired = 0

    def _prepare(self) -> None:
        grads = self._model.gradients().values()
        total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
        self.fired += total > self.grad_clip
        super()._prepare()


def _planner_net(seed: int) -> Sequential:
    return factory.build_network(np.random.default_rng(seed), hidden=16)


def _mixed_net(seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dense(5, 12, rng),
            Sigmoid(),
            Dense(12, 10, rng, init="xavier"),
            Identity(),
            Tanh(),
            Dense(10, 8, rng),
            ReLU(),
            Dense(8, 2, rng),
            Identity(),
        ]
    )


def _data(n: int, outputs: int = 1, seed: int = 0, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    y = np.sin(x[:, :outputs] * 2.0) + x[:, 1:1 + outputs] * x[:, 2:2 + outputs]
    return x, scale * y


def _flat(named) -> np.ndarray:
    return np.concatenate([value.ravel() for value in named.values()])


def _assert_arrays(fast, slow, what: str) -> None:
    assert fast.keys() == slow.keys(), what
    for name in fast:
        assert fast[name].shape == slow[name].shape, f"{what} {name}"
        assert np.array_equal(fast[name], slow[name], equal_nan=True), (
            f"{what} {name} differs"
        )


def _assert_losses(fast, slow, what: str) -> None:
    assert len(fast) == len(slow), what
    assert np.array_equal(np.array(fast), np.array(slow), equal_nan=True), what


def _assert_same(fast, slow) -> None:
    (f_model, f_opt, f_histories), (s_model, s_opt, s_histories) = fast, slow
    _assert_arrays(f_model.parameters(), s_model.parameters(), "parameter")
    _assert_arrays(f_model.gradients(), s_model.gradients(), "gradient")
    assert len(f_histories) == len(s_histories)
    for fit, (f_hist, s_hist) in enumerate(zip(f_histories, s_histories)):
        _assert_losses(f_hist.train_loss, s_hist.train_loss, f"fit {fit} train_loss")
        _assert_losses(f_hist.val_loss, s_hist.val_loss, f"fit {fit} val_loss")
        assert f_hist.best_epoch == s_hist.best_epoch, f"fit {fit}"
        assert f_hist.stopped_early == s_hist.stopped_early, f"fit {fit}"
    assert f_opt.learning_rate == s_opt.learning_rate
    if isinstance(f_opt, Adam):
        assert f_opt._t == s_opt._t
        assert np.array_equal(f_opt._m, _flat(s_opt._m), equal_nan=True)
        assert np.array_equal(f_opt._v, _flat(s_opt._v), equal_nan=True)
    else:
        assert np.array_equal(f_opt._velocity, _flat(s_opt._velocity), equal_nan=True)


def _train(impl, build, make_optimizer, data, fits, loss=MSELoss, batch_size=32,
           schedule=None, seed=3):
    x, y = data
    model = build(seed)
    optimizer = make_optimizer(impl, model)
    trainer = impl.Trainer(
        model,
        loss=loss(),
        optimizer=optimizer,
        batch_size=batch_size,
        rng=np.random.default_rng(seed + 1),
        schedule=schedule,
    )
    histories = [trainer.fit(x, y, **kwargs) for kwargs in fits]
    return model, optimizer, histories


def _differential(build, make_optimizer, data, fits, **kwargs):
    fast = _train(FAST, build, make_optimizer, data, fits, **kwargs)
    slow = _train(SLOW, build, make_optimizer, data, fits, **kwargs)
    _assert_same(fast, slow)
    return fast, slow


ONE_FIT = [dict(epochs=12, validation_fraction=0.1, patience=5)]


@pytest.mark.parametrize("style, seed", [("conservative", 11), ("aggressive", 12)])
def test_tiny_planner_styles(style, seed, scenario, monkeypatch):
    def spec():
        return factory.train_left_turn_planner(
            style,
            scenario.geometry,
            scenario.ego_limits,
            scenario.oncoming_limits,
            seed=seed,
            demo_config=TINY_DEMO,
            epochs=15,
            hidden=16,
        )

    fast = spec()
    monkeypatch.setattr(factory, "Trainer", oracle.Trainer)
    monkeypatch.setattr(factory, "Adam", oracle.Adam)
    slow = spec()
    _assert_arrays(fast.model.parameters(), slow.model.parameters(), "parameter")
    _assert_arrays(fast.model.gradients(), slow.model.gradients(), "gradient")
    for name in ("train_loss", "val_loss"):
        _assert_losses(getattr(fast.history, name), getattr(slow.history, name), name)
    assert fast.history.best_epoch == slow.history.best_epoch
    assert fast.history.stopped_early == slow.history.stopped_early


@pytest.mark.parametrize(
    "make_optimizer",
    [
        lambda impl, model: impl.Adam(model, 3e-3),
        lambda impl, model: impl.Adam(model, 3e-3, weight_decay=0.05),
        lambda impl, model: impl.SGD(model, 0.05),
        lambda impl, model: impl.SGD(model, 0.02, momentum=0.9),
        lambda impl, model: impl.SGD(
            model, 0.02, momentum=0.5, weight_decay=0.01, grad_clip=0.3
        ),
    ],
    ids=["adam", "adam-decay", "sgd", "sgd-momentum", "sgd-all"],
)
def test_optimizers(make_optimizer):
    _differential(_planner_net, make_optimizer, _data(300), ONE_FIT)


@pytest.mark.parametrize("clip, fires", [(1.0, True), (1e6, False)])
def test_adam_grad_clip(clip, fires):
    def make_optimizer(impl, model):
        adam = _ClipCountingAdam if impl is SLOW else impl.Adam
        return adam(model, 3e-3, grad_clip=clip)

    _, (_, slow_optimizer, _) = _differential(
        _planner_net, make_optimizer, _data(300), ONE_FIT
    )
    steps = slow_optimizer._t
    if fires:
        assert 0 < slow_optimizer.fired < steps
    else:
        assert slow_optimizer.fired == 0


@pytest.mark.parametrize("loss", [MSELoss, MAELoss, lambda: HuberLoss(0.3)],
                         ids=["mse", "mae", "huber"])
def test_losses(loss):
    _differential(
        _planner_net,
        lambda impl, model: impl.Adam(model, 3e-3),
        _data(300, scale=2.0),
        ONE_FIT,
        loss=loss,
    )


def test_cosine_schedule():
    _differential(
        _planner_net,
        lambda impl, model: impl.Adam(model, 1e-2),
        _data(300),
        [dict(epochs=10, validation_fraction=0.1, patience=None)],
        schedule=schedules.cosine(1e-2, total_epochs=10, floor=1e-4),
    )


def test_mixed_activation_stack_two_outputs():
    _differential(
        _mixed_net,
        lambda impl, model: impl.Adam(model, 5e-3, weight_decay=0.01, grad_clip=1.0),
        _data(300, outputs=2),
        ONE_FIT,
    )


@pytest.mark.parametrize(
    "n, batch_size, fraction",
    [(97, 32, 0.0), (110, 32, 0.1), (50, 7, 0.0), (40, 64, 0.0), (3, 2, 0.0)],
    ids=["one-row-last", "split-ragged", "small-batches", "one-batch", "tiny"],
)
def test_ragged_batches_without_validation(n, batch_size, fraction):
    _differential(
        _planner_net,
        lambda impl, model: impl.Adam(model, 3e-3),
        _data(n),
        [dict(epochs=4, validation_fraction=fraction, patience=None)],
        batch_size=batch_size,
    )


def test_early_stop():
    fast, _ = _differential(
        _planner_net,
        lambda impl, model: impl.Adam(model, 1e-2),
        _data(300),
        [dict(epochs=200, validation_fraction=0.2, patience=3, min_delta=1e-3)],
    )
    history = fast[2][0]
    assert history.stopped_early
    assert history.best_epoch < history.epochs_run - 1


def test_diverging_run_matches_nan_for_nan():
    with np.errstate(all="ignore"):
        fast, _ = _differential(
            _planner_net,
            lambda impl, model: impl.SGD(model, 5.0),
            _data(200, scale=50.0),
            [dict(epochs=6, validation_fraction=0.1, patience=None)],
        )
    assert np.isnan(fast[0].parameters()["layer0.weight"]).any()


def test_two_fits_on_one_trainer():
    _differential(
        _planner_net,
        lambda impl, model: impl.Adam(model, 3e-3),
        _data(300),
        [
            dict(epochs=5, validation_fraction=0.1, patience=None),
            dict(epochs=8, validation_fraction=0.2, patience=2, min_delta=1e-2),
        ],
    )


def _manual_step(model, optimizer, x, y, zero_grad=True) -> None:
    loss = MSELoss()
    if zero_grad:
        optimizer.zero_grad()
    model.backward(loss.gradient(model.forward(x), y))
    optimizer.step()


@pytest.mark.parametrize("kind", ["adam", "sgd-momentum"])
def test_manual_steps_after_fit(kind):
    def make_optimizer(impl, model):
        if kind == "adam":
            return impl.Adam(model, 3e-3, weight_decay=0.01, grad_clip=0.5)
        return impl.SGD(model, 0.02, momentum=0.9, grad_clip=0.5)

    x, y = _data(300)
    fast, slow = _differential(_planner_net, make_optimizer, (x, y), ONE_FIT)
    # Without zero_grad the gradients accumulate onto the last step's.
    for model, optimizer, _ in (fast, slow):
        _manual_step(model, optimizer, x[:9], y[:9], zero_grad=False)
        _manual_step(model, optimizer, x[9:40], y[9:40])
    _assert_same(fast, slow)
    # Arrays replaced in a layer are the ones updated from then on.
    for model, optimizer, _ in (fast, slow):
        for layer in model.layers:
            if isinstance(layer, Dense):
                layer.weight = layer.weight.copy()
                layer.grad_bias = layer.grad_bias.copy()
        _manual_step(model, optimizer, x[40:80], y[40:80])
    _assert_same(fast, slow)
    # A copied optimizer updates its copy of the model, and only that.
    copies = []
    for model, optimizer, histories in (fast, slow):
        twin = copy.deepcopy(optimizer)
        before = _flat(model.parameters())
        _manual_step(twin._model, twin, x[80:120], y[80:120])
        assert np.array_equal(_flat(model.parameters()), before)
        copies.append((twin._model, twin, histories))
    _assert_same(*copies)
