"""Test-only oracle: the unbuffered ``RngStream`` the block-buffered one replaced.

This is ``repro.utils.rng.RngStream`` as it stood before scalar draws
were served from blocks: every draw is one call into
:class:`numpy.random.Generator`.  It is kept unchanged as the slow
counterpart of the fast path, apart from ``spawn_seeds``, which the
engine spawns an episode's streams with; ``tests/test_rng_oracle.py``
checks the buffered stream against it draw by draw and episode by
episode.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = ["RngStream", "spawn_streams"]

SeedLike = Union[int, Sequence[int], np.random.SeedSequence, None]


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
        self._generator = np.random.default_rng(self._seed_seq)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying :class:`numpy.random.Generator`."""
        return self._generator

    # ------------------------------------------------------------------
    # Substreams
    # ------------------------------------------------------------------
    def spawn(self, n: int) -> List["RngStream"]:
        """Create ``n`` statistically independent child streams."""
        return [RngStream(ss) for ss in self._seed_seq.spawn(n)]

    def spawn_seeds(self, n: int) -> List[np.random.SeedSequence]:
        """The seeds of the ``n`` children :meth:`spawn` would create."""
        return self._seed_seq.spawn(n)

    def child(self) -> "RngStream":
        """Create a single independent child stream."""
        return self.spawn(1)[0]

    # ------------------------------------------------------------------
    # Draws (delegating; typed for the use-sites in this library)
    # ------------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform draw(s) on ``[low, high)``."""
        return self._generator.uniform(low, high, size=size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        """Gaussian draw(s)."""
        return self._generator.normal(loc, scale, size=size)

    def random(self, size=None):
        """Uniform draw(s) on ``[0, 1)``."""
        return self._generator.random(size=size)

    def integers(self, low: int, high: Optional[int] = None, size=None):
        """Integer draw(s) on ``[low, high)``."""
        return self._generator.integers(low, high, size=size)

    def choice(self, a, size=None, replace: bool = True, p=None):
        """Random selection from ``a``."""
        return self._generator.choice(a, size=size, replace=replace, p=p)

    def bernoulli(self, p: float) -> bool:
        """Single Bernoulli trial with success probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        if p == 0.0:
            return False
        if p == 1.0:  # safelint: disable=SFL001 - probability sentinel
            return True
        return bool(self._generator.random() < p)

    def shuffle(self, array) -> None:
        """In-place shuffle of ``array`` along its first axis."""
        self._generator.shuffle(array)

    def permutation(self, n: int) -> np.ndarray:
        """A random permutation of ``range(n)``."""
        return self._generator.permutation(n)


def spawn_streams(seed: SeedLike, n: int) -> List[RngStream]:
    """Create ``n`` independent streams from one experiment seed.

    Convenience for experiment harnesses that need one stream per
    simulation: ``streams = spawn_streams(experiment_seed, n_sims)``.
    """
    return RngStream(seed).spawn(n)
