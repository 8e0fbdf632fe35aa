"""Typed mass-partitions and typed set-partitions.

A typed mass-partition is a finite ranked list of (mass, type) pairs with
masses in (0, 1] summing to at most 1; the missing mass is dust.  A typed
block partition splits {1..n} into blocks carrying types, where empty
blocks and singletons always carry the special type 0.  Both objects are
immutable; every operation here is a pure function.
"""

from dataclasses import dataclass

from .errors import (
    EmptyGroundSet,
    GroundSizeMismatch,
    InvalidArgument,
    MassSumExceedsOne,
    NegativeMass,
    TypeOutOfRange,
    ZeroMassWithNonzeroType,
)

MASS_TOL = 1e-12


@dataclass(frozen=True)
class TypedMassPartition:
    """Ranked (mass, type) pairs; dust = 1 - sum of masses.

    Pairs are non-increasing in the lexicographic order: masses descend,
    and equal masses are ordered by descending type.  Zero-mass components
    are never stored, so type 0 never appears among the parts.
    """

    parts: tuple[tuple[float, int], ...]
    dust: float

    def masses(self) -> tuple[float, ...]:
        return tuple(m for m, _ in self.parts)

    def types(self) -> tuple[int, ...]:
        return tuple(i for _, i in self.parts)

    def total_mass(self) -> float:
        return sum(m for m, _ in self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def build_typed_mass_partition(pairs, k: int | None = None) -> TypedMassPartition:
    """Validate, drop zero-mass entries, rank, and compute dust.

    ``pairs`` is any iterable of (mass, type).  Positive masses must carry a
    type in 1..k (type 0 is reserved for absent components), zero masses must
    carry type 0 and are dropped.  ``k`` bounds the admissible types when
    given; otherwise any positive integer type is accepted.
    """
    kept = []
    for mass, typ in pairs:
        mass = float(mass)
        typ = int(typ)
        if mass != mass:
            raise InvalidArgument(f"mass {mass} is not a number")
        if mass < 0.0:
            raise NegativeMass(f"mass {mass} < 0")
        if typ < 0 or (k is not None and typ > k):
            raise TypeOutOfRange(f"type {typ} outside 0..{k}")
        if mass == 0.0:
            if typ != 0:
                raise ZeroMassWithNonzeroType(f"zero mass with type {typ}")
            continue
        if typ == 0:
            # positive mass must carry a genuine type: x_n = 0 <=> i_n = 0
            raise TypeOutOfRange(f"mass {mass} > 0 with type 0")
        kept.append((mass, typ))
    kept.sort(key=lambda p: (-p[0], -p[1]))
    # summing in ranked order makes rebuilding a partition bit-stable
    total = sum(m for m, _ in kept)
    if total > 1.0 + MASS_TOL:
        raise MassSumExceedsOne(f"masses sum to {total} > 1")
    dust = min(1.0, max(0.0, 1.0 - total))
    return TypedMassPartition(parts=tuple(kept), dust=dust)


def dislocate_term(x: TypedMassPartition, index: int,
                   outcome: TypedMassPartition) -> TypedMassPartition:
    """Replace the index-th term (y, j) of x by y * outcome, re-ranked.

    Mass y * outcome.dust leaves the ranked parts and shows up in the dust
    of the result.
    """
    if not 0 <= index < len(x.parts):
        raise InvalidArgument(
            f"no term {index} in a {len(x.parts)}-part partition")
    y, _ = x.parts[index]
    pairs = [p for n, p in enumerate(x.parts) if n != index]
    pairs.extend((y * m, i) for m, i in outcome.parts)
    return build_typed_mass_partition(pairs)


@dataclass(frozen=True)
class TypedBlockPartition:
    """Partition of {1..n} into typed blocks, ranked by least element.

    Each block is a sorted tuple of elements; type 0 if and only if the
    block is a singleton (empty blocks are never stored).
    """

    ground_size: int
    blocks: tuple[tuple[tuple[int, ...], int], ...]

    def block_of(self, element: int) -> tuple[tuple[int, ...], int]:
        for elems, typ in self.blocks:
            if element in elems:
                return elems, typ
        raise InvalidArgument(f"element {element} not covered")

    def __len__(self) -> int:
        return len(self.blocks)


def typed_block_partition(ground_size: int, blocks) -> TypedBlockPartition:
    """Validate and canonicalize a typed block partition.

    ``blocks`` is an iterable of (elements, type).  Raises if the blocks do
    not partition {1..ground_size} or if a type violates the singleton rule.
    """
    if ground_size < 1:
        raise EmptyGroundSet("ground size must be >= 1")
    seen: set[int] = set()
    canon = []
    for elems, typ in blocks:
        elems = tuple(sorted(int(e) for e in elems))
        typ = int(typ)
        if not elems:
            continue
        if elems[0] < 1 or elems[-1] > ground_size:
            raise GroundSizeMismatch(f"elements {elems} outside 1..{ground_size}")
        if seen.intersection(elems):
            raise GroundSizeMismatch(f"overlapping block {elems}")
        seen.update(elems)
        if len(elems) == 1:
            if typ != 0:
                raise TypeOutOfRange(f"singleton {elems} with type {typ}")
        elif typ < 1:
            raise TypeOutOfRange(f"non-singleton {elems} with type {typ}")
        canon.append((elems, typ))
    if len(seen) != ground_size:
        missing = sorted(set(range(1, ground_size + 1)) - seen)
        raise GroundSizeMismatch(f"elements {missing} not covered")
    canon.sort(key=lambda b: b[0][0])
    return TypedBlockPartition(ground_size=ground_size, blocks=tuple(canon))


def one_block_partition(ground_size: int, typ: int) -> TypedBlockPartition:
    """The partition with the single block {1..n} of the given type."""
    if ground_size == 1:
        return typed_block_partition(1, [((1,), 0)])
    return typed_block_partition(
        ground_size, [(tuple(range(1, ground_size + 1)), typ)])


def _restricted_blocks(p: TypedBlockPartition, elements):
    """Blocks of p cut down to ``elements``, original labels kept."""
    keep = set(elements)
    out = []
    for elems, typ in p.blocks:
        inter = tuple(e for e in elems if e in keep)
        if not inter:
            continue
        out.append((inter, typ if len(inter) >= 2 else 0))
    return out


def restrict(p: TypedBlockPartition, subset) -> TypedBlockPartition:
    """Restriction of p to a subset B, re-indexed to {1..|B|}.

    A block keeps its type unless the intersection became empty or a
    singleton, in which case the type drops to 0.
    """
    subset = sorted(set(int(e) for e in subset))
    if not subset:
        raise EmptyGroundSet("cannot restrict to the empty set")
    if subset[0] < 1 or subset[-1] > p.ground_size:
        raise GroundSizeMismatch(f"subset {subset} outside 1..{p.ground_size}")
    relabel = {e: n + 1 for n, e in enumerate(subset)}
    blocks = [(tuple(relabel[e] for e in elems), typ)
              for elems, typ in _restricted_blocks(p, subset)]
    return typed_block_partition(len(subset), blocks)


def frag(pi: TypedBlockPartition, splitters) -> TypedBlockPartition:
    """Split each block of pi by the matching splitter partition.

    ``splitters[n]`` is a typed partition on the same ground set as pi; it is
    restricted to the n-th block of pi internally.  Blocks that come out as
    singletons drop to type 0, and the result is re-ranked by least element.
    """
    splitters = list(splitters)
    if len(splitters) < len(pi.blocks):
        raise GroundSizeMismatch(
            f"{len(pi.blocks)} blocks but only {len(splitters)} splitters")
    out = []
    for (elems, _), splitter in zip(pi.blocks, splitters):
        if splitter.ground_size < elems[-1]:
            raise GroundSizeMismatch(
                f"splitter on {splitter.ground_size} elements cannot split "
                f"a block reaching {elems[-1]}")
        out.extend(_restricted_blocks(splitter, elems))
    return typed_block_partition(pi.ground_size, out)


def asymptotic_frequencies(p: TypedBlockPartition) -> TypedMassPartition:
    """Block frequencies |block|/n with types; singletons feed the dust."""
    n = p.ground_size
    pairs = [(len(elems) / n, typ) for elems, typ in p.blocks if len(elems) >= 2]
    return build_typed_mass_partition(pairs)


def mass_partition_distance(a: TypedMassPartition, b: TypedMassPartition) -> float:
    """max_n of |x_n - x'_n| when types agree and x_n + x'_n when they differ.

    Shorter sequences are padded with zero-mass (type 0) entries.  This is
    the simple diagnostic metric, strictly stronger than the topology the
    state space actually carries.
    """
    best = 0.0
    for n in range(max(len(a.parts), len(b.parts))):
        xa, ia = a.parts[n] if n < len(a.parts) else (0.0, 0)
        xb, ib = b.parts[n] if n < len(b.parts) else (0.0, 0)
        term = abs(xa - xb) if ia == ib else xa + xb
        best = max(best, term)
    return best
