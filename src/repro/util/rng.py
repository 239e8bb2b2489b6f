"""Deterministic random-number streams for reproducible experiments.

Every stochastic component in the library (loss channels, workload
generators, campaign drivers) draws from an :class:`RngStream` rather
than a module-level RNG, so that

* two runs with the same seed produce byte-identical traces, and
* independent components never perturb each other's sequences.

Streams are spawned hierarchically from a root seed with
:func:`spawn_streams`, mirroring ``numpy``'s ``SeedSequence`` design
but with a tiny, dependency-light wrapper API tailored to this library.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Iterable, List, Optional, Sequence

__all__ = ["RngStream", "spawn_streams", "derive_seed"]

#: ``4 * exp(-0.5) / sqrt(2)`` — CPython's Kinderman–Monahan constant,
#: recomputed here with the same expression so :meth:`RngStream.lognormal_block`
#: is bit-identical to ``random.Random.lognormvariate`` on every platform.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)

_MIX_CONSTANT = 0x9E3779B97F4A7C15  # 64-bit golden-ratio constant


def derive_seed(root_seed: int, *path: object) -> int:
    """Derive a child seed from ``root_seed`` and a hashable path.

    The derivation is a SplitMix64-style integer mix over the root seed
    and the (stringified) path elements.  It is stable across Python
    processes and platforms, unlike the builtin ``hash``.
    """
    state = (root_seed ^ _MIX_CONSTANT) & 0xFFFFFFFFFFFFFFFF
    for element in path:
        for byte in str(element).encode("utf-8"):
            state = (state ^ byte) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
        state = _splitmix64(state)
    return state


def _splitmix64(state: int) -> int:
    state = (state + _MIX_CONSTANT) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class RngStream:
    """A named, seeded random stream.

    Thin wrapper over :class:`random.Random` exposing only the draws the
    library needs, so the stochastic surface of every component is
    explicit and easy to stub in tests.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(name={self.name!r}, seed={self.seed})"

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw a float uniformly from ``[low, high)``."""
        return self._random.uniform(low, high)

    def random(self) -> float:
        """Draw a float uniformly from ``[0, 1)``."""
        return self._random.random()

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    # -- batched draws --------------------------------------------------
    #
    # The hot-path loss models and link jitter consume their streams in
    # pre-drawn blocks (see repro.simulator.channel and .connection).
    # Batched draws are element-for-element identical to the scalar
    # methods above: random_block(n) yields exactly the values n
    # successive random() calls would, and lognormal_block(n) replays
    # lognormal()'s rejection loop with the same arithmetic.  Each call
    # returns a fresh ``array('d')``.

    def random_block(self, n: int) -> Sequence[float]:
        """Draw ``n`` uniforms from ``[0, 1)`` in one Python-level call.

        Identical values, in order, to ``n`` calls of :meth:`random`.
        """
        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        random = self._random.random
        return array("d", [random() for _ in range(n)])

    def lognormal_block(self, mu: float, sigma: float, n: int) -> Sequence[float]:
        """``n`` log-normal draws, identical to ``n`` :meth:`lognormal` calls.

        Replicates CPython's Kinderman–Monahan rejection loop
        (``random.Random.normalvariate``) bit for bit — same draws
        consumed, same accept condition, same arithmetic — then
        exponentiates, so batching the per-packet jitter stream cannot
        change a single delivery time.
        """
        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        random = self._random.random
        log = math.log
        exp = math.exp
        magic = _NV_MAGICCONST
        values = []
        append = values.append
        for _ in range(n):
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            append(exp(mu + z * sigma))
        return array("d", values)

    def randint(self, low: int, high: int) -> int:
        """Draw an integer uniformly from ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence):
        """Pick one element of a non-empty sequence uniformly."""
        return self._random.choice(items)

    def shuffle(self, items: List) -> None:
        """Shuffle a list in place."""
        self._random.shuffle(items)

    def expovariate(self, rate: float) -> float:
        """Draw from an exponential distribution with the given rate."""
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Draw from a normal distribution."""
        return self._random.gauss(mu, sigma)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Draw from a log-normal distribution."""
        return self._random.lognormvariate(mu, sigma)

    def geometric(self, success_probability: float) -> int:
        """Number of Bernoulli trials up to and including the first success.

        Returns at least 1.  ``success_probability`` must be in (0, 1].
        """
        if not 0.0 < success_probability <= 1.0:
            raise ValueError(
                f"geometric() needs success probability in (0, 1], got {success_probability}"
            )
        count = 1
        while not self.bernoulli(success_probability):
            count += 1
        return count

    def spawn(self, *path: object) -> "RngStream":
        """Create an independent child stream identified by ``path``."""
        child_seed = derive_seed(self.seed, self.name, *path)
        child_name = "/".join([self.name, *map(str, path)])
        return RngStream(child_seed, child_name)


def spawn_streams(root_seed: int, names: Iterable[str], prefix: Optional[str] = None) -> dict:
    """Spawn one independent stream per name from a root seed."""
    root = RngStream(root_seed, prefix or "root")
    return {name: root.spawn(name) for name in names}
