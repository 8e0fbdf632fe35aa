"""Reproducible random streams.

Philox is a 64-bit counter-based generator; keying it with (seed, replica)
gives statistically independent streams whose output never depends on how
many other replicas ran, or in which order.
"""

import numpy as np

from .errors import InvalidArgument

_MASK64 = (1 << 64) - 1


def replica_stream(seed: int, replica: int) -> np.random.Generator:
    """Stream for one replica, derived from (seed, replica) only."""
    if not 0 <= seed <= _MASK64:
        raise InvalidArgument("seed must fit in 64 bits")
    if replica < 0:
        raise InvalidArgument("replica index must be nonnegative")
    key = np.array([seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
