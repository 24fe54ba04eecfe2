"""Seeded random-number streams.

Large simulations need *independent, reproducible* randomness per concern
(arrivals at node 3, document popularity, topology generation, ...): reusing
one generator couples unrelated components, so adding a node would perturb
every other node's arrival sequence.  :class:`RngStreams` derives a stable
child ``random.Random`` per name from a master seed using SHA-256, so

* the same ``(seed, name)`` always yields the same stream, across runs and
  Python processes (no reliance on ``hash()`` randomization), and
* distinct names yield effectively independent streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Tuple, Union

from ..fields import check_fields, count

__all__ = ["RngStreams", "derive_seed"]

_Key = Union[str, int, Tuple[Union[str, int], ...]]


def derive_seed(master: int, *key: Union[str, int]) -> int:
    """A stable 64-bit seed derived from ``master`` and a name tuple."""
    text = repr((int(master),) + tuple(key)).encode()
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A family of named, independent ``random.Random`` streams.

    Example::

        streams = RngStreams(seed=42)
        arrivals = streams.get("arrivals", node=3)
        topology = streams.get("topology")
    """

    FIELD_KINDS = {"seed": count(None)}

    def __init__(self, seed: int = 0) -> None:
        check_fields(self, locals())
        self._seed = seed
        self._streams: Dict[Tuple, random.Random] = {}

    def get(self, name: str, **scope: Union[str, int]) -> random.Random:
        """The stream for ``name`` within an optional keyword scope.

        Streams are cached: repeated calls with the same name and scope
        return the *same* generator object (so consumption is shared), which
        is what simulation components want when they look up their stream
        lazily.
        """
        key = (name,) + tuple(sorted(scope.items()))
        stream = self._streams.get(key)
        if stream is None:
            flat = [name]
            for k, v in sorted(scope.items()):
                flat.extend((k, v))
            stream = random.Random(derive_seed(self._seed, *flat))
            self._streams[key] = stream
        return stream

    def fresh(self, name: str, **scope: Union[str, int]) -> random.Random:
        """A brand-new generator with the stream's seed (not cached)."""
        flat = [name]
        for k, v in sorted(scope.items()):
            flat.extend((k, v))
        return random.Random(derive_seed(self._seed, *flat))
