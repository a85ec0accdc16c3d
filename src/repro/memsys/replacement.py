"""Replacement policies for fixed-capacity fully/set-associative structures.

A single policy object manages the ways of *one* set.  The classes back the
IP-stride prefetcher's 24-entry history table: the paper concludes from
Figure 8b that the prefetcher replacement is a Bit-PLRU variant (contiguous
evictions, cheaper than true LRU), so :class:`BitPLRU` is exercised by the
reverse-engineering benches.  The caches are true LRU and keep their order
in :class:`~repro.memsys.cache.Cache` itself, one ordered dict per set.

Protocol
--------
``touch(way)``    — the way was accessed (hit or just filled).
``fill(way)``     — a new line landed in the way (implies a touch).
``victim()``      — choose the way to evict; does not mutate state.
``reset()``       — forget all history.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.rng import make_rng


class ReplacementPolicy(ABC):
    """Replacement state for one associative set of ``n_ways`` ways."""

    def __init__(self, n_ways: int) -> None:
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        self.n_ways = n_ways

    @abstractmethod
    def touch(self, way: int) -> None:
        """Record an access to ``way``."""

    def fill(self, way: int) -> None:
        """Record that a new line was installed in ``way``."""
        self.touch(way)

    @abstractmethod
    def victim(self) -> int:
        """Return the way to evict next (state is not mutated)."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all replacement history."""

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.n_ways:
            raise IndexError(f"way {way} out of range [0, {self.n_ways})")


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used: victim is the way with the oldest access."""

    def __init__(self, n_ways: int) -> None:
        super().__init__(n_ways)
        self._clock = 0
        self._stamp = [0] * n_ways

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._clock += 1
        self._stamp[way] = self._clock

    def victim(self) -> int:
        return min(range(self.n_ways), key=self._stamp.__getitem__)

    def reset(self) -> None:
        self._clock = 0
        self._stamp = [0] * self.n_ways


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: hits do not refresh a way's position."""

    def __init__(self, n_ways: int) -> None:
        super().__init__(n_ways)
        self._clock = 0
        self._filled_at = [0] * n_ways

    def touch(self, way: int) -> None:
        self._check_way(way)

    def fill(self, way: int) -> None:
        self._check_way(way)
        self._clock += 1
        self._filled_at[way] = self._clock

    def victim(self) -> int:
        return min(range(self.n_ways), key=self._filled_at.__getitem__)

    def reset(self) -> None:
        self._clock = 0
        self._filled_at = [0] * self.n_ways


class BitPLRU(ReplacementPolicy):
    """Bit-PLRU (MRU-bit) replacement.

    Each way has an MRU bit, set on access.  When setting a bit would make
    all bits one, every *other* bit is cleared first, starting a new
    generation.  The victim is the lowest-numbered way whose bit is clear.

    This produces the contiguous-run eviction pattern the paper observes in
    Figure 8b for the IP-stride prefetcher, which a tree PLRU would not.
    """

    def __init__(self, n_ways: int) -> None:
        super().__init__(n_ways)
        self._mru = [False] * n_ways
        #: How many MRU bits are set (``sum(self._mru)``, kept per touch).
        self._n_set = 0

    def touch(self, way: int) -> None:
        self._check_way(way)
        mru = self._mru
        if not mru[way]:
            if self._n_set == self.n_ways - 1:
                mru = self._mru = [False] * self.n_ways
                self._n_set = 0
            mru[way] = True
            self._n_set += 1

    def victim(self) -> int:
        for way, bit in enumerate(self._mru):
            if not bit:
                return way
        # Unreachable by construction (touch() never leaves all bits set),
        # but a direct answer beats an assertion for robustness.
        return 0

    def reset(self) -> None:
        self._mru = [False] * self.n_ways
        self._n_set = 0


class TreePLRU(ReplacementPolicy):
    """Classic binary-tree pseudo-LRU (requires a power-of-two way count)."""

    def __init__(self, n_ways: int) -> None:
        super().__init__(n_ways)
        if n_ways & (n_ways - 1):
            raise ValueError(f"TreePLRU needs a power-of-two way count, got {n_ways}")
        self._bits = [False] * max(n_ways - 1, 1)

    def touch(self, way: int) -> None:
        self._check_way(way)
        node = 0
        lo, hi = 0, self.n_ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            went_right = way >= mid
            # Point the bit *away* from the touched way.
            self._bits[node] = not went_right
            if went_right:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid

    def victim(self) -> int:
        node = 0
        lo, hi = 0, self.n_ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._bits[node]:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        return lo

    def reset(self) -> None:
        self._bits = [False] * len(self._bits)


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim selection (baseline for ablation benches)."""

    def __init__(self, n_ways: int, rng: np.random.Generator | None = None) -> None:
        super().__init__(n_ways)
        self._rng = rng if rng is not None else make_rng(0)

    def touch(self, way: int) -> None:
        self._check_way(way)

    def victim(self) -> int:
        return int(self._rng.integers(0, self.n_ways))

    def reset(self) -> None:
        pass


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "bit-plru": BitPLRU,
    "tree-plru": TreePLRU,
    "random": RandomPolicy,
}


def make_policy(name: str, n_ways: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Known names: ``lru``, ``fifo``, ``bit-plru``, ``tree-plru``, ``random``.
    """
    key = name.strip().lower()
    if key not in _POLICIES:
        raise KeyError(f"unknown replacement policy {name!r}; known: {sorted(_POLICIES)}")
    return _POLICIES[key](n_ways)
