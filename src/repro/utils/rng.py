"""Seeded random-number streams.

Every stochastic component in the library (channel drops, sensor noise, the
opposing vehicle's acceleration profile, NN weight initialisation) draws
from its own :class:`RngStream` so that

* a single experiment seed reproduces a whole batch of simulations, and
* components can be re-ordered or removed without perturbing the random
  numbers seen by unrelated components (no shared global state).

Streams are thin wrappers around :class:`numpy.random.Generator` seeded via
:class:`numpy.random.SeedSequence`, which provides high-quality independent
substreams through ``spawn``.

A stream builds its generator on its first draw (or
:attr:`RngStream.generator` access), so a stream only spawned from,
such as an episode's, never builds one.

Scalar ``uniform``/``random``/``bernoulli`` draws are served from a block
of :data:`BLOCK_SIZE` doubles taken by one ``Generator.random`` call, which
takes numpy's per-call overhead off the control step.  Every other draw,
and every access to :attr:`RngStream.generator`, first re-syncs the
generator to where the same scalar draws made one by one would have left
it, so a stream yields bit for bit the sequence of an unbuffered one.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = ["BLOCK_SIZE", "RngStream", "child_seed", "spawn_streams"]

SeedLike = Union[int, Sequence[int], np.random.SeedSequence, None]

#: Doubles a stream takes from its generator per refill.
BLOCK_SIZE = 64

#: Argument types whose scalar ``uniform`` is computed here, in floats.
_REALS = (float, int)

_MAX_FLOAT = sys.float_info.max


class RngStream:
    """An independent, seedable random stream.

    Parameters
    ----------
    seed:
        Anything acceptable to :class:`numpy.random.SeedSequence`; ``None``
        draws entropy from the OS (non-reproducible — tests and experiments
        always pass explicit seeds).

    Examples
    --------
    >>> a = RngStream(7)
    >>> b = RngStream(7)
    >>> float(a.uniform(-1, 1)) == float(b.uniform(-1, 1))
    True
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._seed_seq = seed
        else:
            self._seed_seq = np.random.SeedSequence(seed)
        # Built on the first draw, generator access or sync.
        self._generator: Optional[np.random.Generator] = None
        # The current block, its length (kept, so a draw makes no len()
        # call), how much of it is used, and the bit-generator state it
        # was drawn from.
        self._block: List[float] = []
        self._size = 0
        self._used = 0
        self._state_at_fill: Optional[dict] = None

    @property
    def generator(self) -> np.random.Generator:
        """The underlying :class:`numpy.random.Generator`.

        Re-synced first, so its next draw is the stream's next draw.  Do
        not interleave draws on a held generator with the stream's own:
        the stream's next scalar draw refills its block from wherever the
        generator is then.
        """
        self._sync()
        return self._generator

    # ------------------------------------------------------------------
    # Block buffer
    # ------------------------------------------------------------------
    def _next_double(self) -> float:
        """The next double of ``Generator.random()``, from the block."""
        used = self._used
        if used == self._size:
            if self._generator is None:
                self._sync()
            generator = self._generator
            self._state_at_fill = generator.bit_generator.state
            self._block = generator.random(BLOCK_SIZE).tolist()
            self._size = BLOCK_SIZE
            used = 0
        self._used = used + 1
        return self._block[used]

    def _sync(self) -> None:
        """Build the generator, or leave it where unbuffered draws would have."""
        if self._generator is None:
            self._generator = np.random.default_rng(self._seed_seq)
            return
        if self._used < self._size:
            self._generator.bit_generator.state = self._state_at_fill
            if self._used:
                self._generator.random(self._used)
        self._block = []
        self._size = 0
        self._used = 0

    # ------------------------------------------------------------------
    # Substreams
    # ------------------------------------------------------------------
    def spawn(self, n: int) -> List["RngStream"]:
        """Create ``n`` statistically independent child streams."""
        return [RngStream(ss) for ss in self._seed_seq.spawn(n)]

    def spawn_seeds(self, n: int) -> List[np.random.SeedSequence]:
        """The seeds of the ``n`` children :meth:`spawn` would create.

        ``RngStream(seed)`` of each is the stream :meth:`spawn` returns in
        its place; a caller that draws from only some children builds
        only those streams.
        """
        return self._seed_seq.spawn(n)

    def child(self) -> "RngStream":
        """Create a single independent child stream."""
        return self.spawn(1)[0]

    # ------------------------------------------------------------------
    # Draws (typed for the use-sites in this library)
    # ------------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform draw(s) on ``[low, high)``.

        A scalar draw is numpy's ``low + (high - low) * random()``; bad
        bounds go to numpy, which raises.

        Effects: draws-rng
        """
        if size is None and isinstance(low, _REALS) and isinstance(high, _REALS):
            low = float(low)
            span = float(high) - low
            if 0.0 <= span <= _MAX_FLOAT:
                # _next_double, served from the current block in place.
                used = self._used
                if used < self._size:
                    self._used = used + 1
                    return low + span * self._block[used]
                return low + span * self._next_double()
        self._sync()
        return self._generator.uniform(low, high, size=size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        """Gaussian draw(s).

        Effects: draws-rng
        """
        self._sync()
        return self._generator.normal(loc, scale, size=size)

    def random(self, size=None):
        """Uniform draw(s) on ``[0, 1)``.

        Effects: draws-rng
        """
        if size is None:
            used = self._used
            if used < self._size:
                self._used = used + 1
                return self._block[used]
            return self._next_double()
        self._sync()
        return self._generator.random(size=size)

    def integers(self, low: int, high: Optional[int] = None, size=None):
        """Integer draw(s) on ``[low, high)``.

        Effects: draws-rng
        """
        self._sync()
        return self._generator.integers(low, high, size=size)

    def choice(self, a, size=None, replace: bool = True, p=None):
        """Random selection from ``a``.

        Effects: draws-rng
        """
        self._sync()
        return self._generator.choice(a, size=size, replace=replace, p=p)

    def bernoulli(self, p: float) -> bool:
        """Single Bernoulli trial with success probability ``p``.

        Effects: draws-rng
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        if p == 0.0:
            return False
        if p == 1.0:  # safelint: disable=SFL001 - probability sentinel
            return True
        return bool(self._next_double() < p)

    def shuffle(self, array) -> None:
        """In-place shuffle of ``array`` along its first axis.

        Effects: mutates-args, draws-rng
        """
        self._sync()
        self._generator.shuffle(array)

    def permutation(self, n: int) -> np.ndarray:
        """A random permutation of ``range(n)``.

        Effects: draws-rng
        """
        self._sync()
        return self._generator.permutation(n)


def child_seed(seed: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """Child ``index`` of a seed that has spawned no children yet.

    Equal to ``seed.spawn(index + 1)[index]``: numpy derives a child from
    its parent's entropy, spawn key and pool size alone.  Built without
    the children before it.
    """
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key + (index,), pool_size=seed.pool_size
    )


def spawn_streams(seed: SeedLike, n: int) -> List[RngStream]:
    """Create ``n`` independent streams from one experiment seed.

    Convenience for experiment harnesses that need one stream per
    simulation: ``streams = spawn_streams(experiment_seed, n_sims)``.
    """
    return RngStream(seed).spawn(n)
