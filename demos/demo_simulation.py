"""The three simulators and how their laws fit together.

The mass-valued path tracks every fragment's (mass, type) with full event
records; the partition-valued path runs the same dynamics on the blocks of
{1..n}; the tagged path follows only the fragment holding a marked point.
A size-biased pick from the full population at time t has exactly the law
of the tagged pair, which is what makes the analytic formulas testable.
"""

import math

from multifrag import (
    asymptotic_frequencies,
    fragmentation_spec,
    replica_stream,
    simulate_mass_fragmentation,
    simulate_partition_fragmentation,
    simulate_tagged,
)

spec = fragmentation_spec(2, {
    1: [(1.0, [(0.6, 1), (0.4, 2)])],
    2: [(1.0, [(0.5, 2), (0.3, 1), (0.2, 1)])],
})

# --- one mass-valued path --------------------------------------------------
path = simulate_mass_fragmentation(spec, 3.0, replica_stream(7, 0))
print(f"{len(path.events)} dislocations by t = 3; "
      f"{path.n_fragments} fragments ever")
for ev in path.events[:4]:
    parent = path.fragment(ev.parent)
    kids = [path.fragment(c) for c in ev.children]
    print(f"  t = {ev.time:.3f}: ({parent.mass:.3f}, {parent.type}) -> "
          + ", ".join(f"({k.mass:.3f}, {k.type})" for k in kids))
snap = path.snapshot(3.0)
print("state at t = 3 (ranked):", snap.mass_partition().parts[:4], "...")
print("total mass:", snap.total_mass())

# --- erosion as an exponential discount ---------------------------------------
melt = fragmentation_spec(2, {
    1: [(1.0, [(0.6, 1), (0.4, 2)])],
    2: [(1.0, [(0.5, 2), (0.3, 1), (0.2, 1)])],
}, erosion=[0.3, 0.3])
s = simulate_mass_fragmentation(melt, 2.0, replica_stream(7, 1)).snapshot(2.0)
print(f"\nwith erosion 0.3: mass left = {s.total_mass():.4f} "
      f"(= e^-0.6 = {math.exp(-0.6):.4f}), dust = {s.dust:.4f}")

# --- partition-valued path on {1..12} -------------------------------------------
ppath = simulate_partition_fragmentation(spec, 12, 2.0, replica_stream(7, 2))
print("\npartition path on {1..12}:")
for t in ppath.times[:4]:
    shown = ", ".join(f"{set(elems)}:{typ}"
                      for elems, typ in ppath.at(t).blocks)
    print(f"  t = {t:.3f}: {shown}")
print("block frequencies at t = 2:",
      asymptotic_frequencies(ppath.at(2.0)).parts)

# --- the tagged fragment ------------------------------------------------------------
tagged = simulate_tagged(spec, 5.0, replica_stream(7, 3))
print(f"\ntagged path: {tagged.n_jumps} jumps;"
      f" (J, S) at t = 5: {tagged.at(5.0)}")
print("piecewise-constant records (t, J, S):")
for t, j, s in list(zip(tagged.times, tagged.j_values, tagged.s_values))[:5]:
    print(f"  {t:6.3f}  {j}  {s:.4f}")
