"""Paintbox sampling: exchangeable typed partitions from a typed mass-partition.

Each of n labels lands on component j with probability x_j and in the dust
with the leftover probability.  Labels sharing a component form a block of
that component's type; dust labels become singletons of type 0 (as does a
component that caught a single label, by the singleton convention).
"""

import numpy as np

from .errors import InvalidArgument
from .partitions import TypedBlockPartition, TypedMassPartition


def sample_paintbox(x: TypedMassPartition, n: int,
                    rng: np.random.Generator) -> TypedBlockPartition:
    """Sample the paintbox based on x, restricted to {1..n}."""
    if n < 1:
        raise InvalidArgument("need n >= 1")
    cum = np.cumsum(x.masses())
    # label == len(parts) means the dust
    labels = np.searchsorted(cum, rng.random(n), side="right")
    # a stable sort keeps each component's labels in increasing order
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    blocks = []
    for elems in np.split(order + 1, cuts):
        lab = labels[elems[0] - 1]
        if lab == len(x.parts):
            blocks.extend(((e,), 0) for e in elems.tolist())
        else:
            typ = x.parts[lab][1] if len(elems) >= 2 else 0
            blocks.append((tuple(elems.tolist()), typ))
    # the blocks are disjoint, with sorted elements and singleton-rule types;
    # ranked by least element they are canonical and need no checking
    return TypedBlockPartition(n, tuple(sorted(blocks)))


def size_biased_tag(x: TypedMassPartition,
                    rng: np.random.Generator) -> tuple[float, int]:
    """One size-biased pick: (x_n, i_n) with probability x_n, (0, 0) on dust."""
    cum = np.cumsum(x.masses())
    lab = int(np.searchsorted(cum, rng.random(), side="right"))
    if lab == len(x.parts):
        return 0.0, 0
    return x.parts[lab]
