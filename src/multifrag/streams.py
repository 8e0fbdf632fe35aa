"""Reproducible random streams.

Philox is a 64-bit counter-based generator; keying it with (seed, replica)
gives statistically independent streams whose output never depends on how
many other replicas ran, or in which order.
"""

import numpy as np

from .errors import InvalidArgument

_MASK64 = (1 << 64) - 1


def replica_stream(seed: int, replica: int) -> np.random.Generator:
    """Stream for one replica, keyed by integers seed, replica in [0, 2^64)."""
    for name, value in (("seed", seed), ("replica", replica)):
        if not (isinstance(value, (int, np.integer)) and 0 <= value <= _MASK64):
            raise InvalidArgument(f"{name} = {value!r} is not an integer in "
                                  f"[0, 2^64)")
    key = np.array([seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
