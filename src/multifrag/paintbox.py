"""Paintbox sampling: exchangeable typed partitions from a typed mass-partition.

Each of n labels lands on component j with probability x_j and in the dust
with the leftover probability.  Labels sharing a component form a block of
that component's type; dust labels become singletons of type 0 (as does a
component that caught a single label, by the singleton convention).

Both samplers place a uniform with ``bisect_right`` on the running sums of
the masses, in pure Python: the partition engine cuts mostly blocks of a
few labels, where numpy's fixed cost per call would dominate.
"""

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .errors import InvalidArgument, admit
from .partitions import TypedBlockPartition, TypedMassPartition

# per label: each label alone on its own component, n = 44,000
PAINTBOX_LABEL_BYTES = 368


def sample_paintbox(x: TypedMassPartition, n: int,
                    rng: np.random.Generator) -> TypedBlockPartition:
    """Sample the paintbox based on x, restricted to {1..n}, from the n
    uniforms of one ``rng.random(n)``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidArgument(f"n = {n!r} is not an integer")
    if n < 1:
        raise InvalidArgument("need n >= 1")
    admit(n, PAINTBOX_LABEL_BYTES, "paintbox labels")
    cum = list(accumulate(x.masses()))
    dust = len(x.parts)  # the component index of the dust
    groups: dict[int, list[int]] = {}
    for elem, u in enumerate(rng.random(n).tolist(), start=1):
        groups.setdefault(bisect_right(cum, u), []).append(elem)
    blocks = []
    for lab, elems in groups.items():
        if lab == dust:
            blocks.extend(((e,), 0) for e in elems)
        else:
            typ = x.parts[lab][1] if len(elems) >= 2 else 0
            blocks.append((tuple(elems), typ))
    # the blocks are disjoint, with sorted elements and singleton-rule types;
    # ranked by least element they are canonical and need no checking
    return TypedBlockPartition(int(n), tuple(sorted(blocks)))


def size_biased_tag(x: TypedMassPartition,
                    rng: np.random.Generator) -> tuple[float, int]:
    """One size-biased pick: (x_n, i_n) with probability x_n, (0, 0) on dust."""
    lab = bisect_right(list(accumulate(x.masses())), rng.random())
    if lab == len(x.parts):
        return 0.0, 0
    return x.parts[lab]
