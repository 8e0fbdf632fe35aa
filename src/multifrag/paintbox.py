"""Paintbox sampling: exchangeable typed partitions from a typed mass-partition.

Each label lands on component j with probability x_j and in the dust with
the leftover probability.  Labels sharing a component form a block of that
component's type; dust labels become singletons of type 0 (as does a
component that caught a single label, by the singleton convention).

``paint`` applies it to any ascending labels, by ``bisect_right`` on the
running sums of the masses in pure Python: the partition engine paints a
block's own labels, mostly a few, where numpy's fixed cost per call dominates.
"""

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .errors import admit, check_count
from .partitions import TypedBlockPartition, TypedMassPartition

# per label: each label alone on its own component, n = 44,000
PAINTBOX_LABEL_BYTES = 368


def paint(cum, types, labels, uniforms) -> list:
    """The (elements, type) blocks of ascending ``labels``, by least element:
    ``labels[i]`` joins component ``j = bisect_right(cum, uniforms[i])``, of
    type ``types[j]``, or the dust when ``j == len(types)``."""
    dust = len(types)
    groups: dict[int, list[int]] = {}
    for elem, u in zip(labels, uniforms):
        groups.setdefault(bisect_right(cum, u), []).append(elem)
    blocks = []
    while groups:  # popping frees each list as its block is made
        lab, elems = groups.popitem()
        if lab == dust:
            blocks.extend(((e,), 0) for e in elems)
        else:
            blocks.append((tuple(elems), types[lab] if len(elems) >= 2 else 0))
    # disjoint sorted blocks with singleton-rule types: canonical once ranked
    return sorted(blocks)


def sample_paintbox(x: TypedMassPartition, n: int,
                    rng: np.random.Generator) -> TypedBlockPartition:
    """Sample the paintbox based on x, restricted to {1..n}, from the n
    uniforms of one ``rng.random(n)``."""
    n = check_count(n, "n")
    admit(n, PAINTBOX_LABEL_BYTES, "paintbox labels")
    return TypedBlockPartition(n, tuple(paint(
        list(accumulate(x.masses())), x.types(), range(1, n + 1),
        rng.random(n).tolist())))


def size_biased_tag(x: TypedMassPartition,
                    rng: np.random.Generator) -> tuple[float, int]:
    """One size-biased pick: (x_n, i_n) with probability x_n, (0, 0) on dust."""
    lab = bisect_right(list(accumulate(x.masses())), rng.random())
    if lab == len(x.parts):
        return 0.0, 0
    return x.parts[lab]
