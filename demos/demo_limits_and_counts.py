"""Monte Carlo checks of the limit predictions.

Four asymptotic statements are exercised at desk scale: the additive
martingale has constant mean v_i(theta); log-masses satisfy a CLT whose
variance is read off the second derivative of phi; the largest fragment
decays at rate phi'(theta_bar); and the number of fragments in a moving
mass window grows at rate (theta+1) phi'(theta) - phi(theta) with type
profile u(theta).
"""

import math

import numpy as np

from multifrag import (
    biggins_martingale,
    fragmentation_spec,
    gaussian_limit,
    ld_window_exponent,
    make_test_function,
    mass_ensemble,
    perron_eigen,
    replica_stream,
    simulate_mass_fragmentation,
    stationary_distribution,
    intensity_matrix,
    ld_window,
    tagged_ensemble,
    theta_bar,
)

spec = fragmentation_spec(2, {
    1: [(1.0, [(0.6, 1), (0.4, 2)])],
    2: [(1.0, [(0.5, 2), (0.3, 1), (0.2, 1)])],
})
tb, decay = theta_bar(spec)
print(f"theta_bar = {tb:.4f}, phi'(theta_bar) = {decay:.4f}")

# --- martingale means -------------------------------------------------------
theta = 0.4 * tb
sd = perron_eigen(spec, theta)
reps = 400
for t in (1.0, 2.0, 4.0):
    vals = np.empty(reps)
    for r in range(reps):
        path = simulate_mass_fragmentation(spec, t, replica_stream(90, r))
        vals[r] = biggins_martingale(path.snapshot(t), sd)
    se = vals.std(ddof=1) / math.sqrt(reps)
    print(f"mean M({theta:.3f}, {t}) = {vals.mean():.4f} +- {se:.4f} "
          f"(target v_1 = {sd.v[0]:.4f})")

# --- CLT for log-masses ---------------------------------------------------------
# population averages at large t equal tagged expectations (size-biased
# identity), so the check runs on the tagged pair
t = 50.0
sd0 = perron_eigen(spec, 0.0, with_derivatives=True)
u = stationary_distribution(intensity_matrix(spec))
f = make_test_function("bump", 0.0, 1.0)
j, s = tagged_ensemble(spec, [t], 5_000, 91)
clt = f((-s[0] + sd0.phi_d1 * t) / math.sqrt(t), j[0])
print(f"\nCLT functional at t = {t:.0f}: {clt.mean():.4f} "
      f"(Gaussian limit {gaussian_limit(f, u, -sd0.phi_d2):.4f})")
freqs = [round(float((j[0] == k).mean()), 4) for k in (1, 2)]
print(f"type frequencies: {freqs} (stationary {u.round(4)})")

# --- largest fragment --------------------------------------------------------------
t, reps = 15.0, 40
best = np.zeros((1, reps))


def track_max(ti, rep, mass, typ, frozen):
    np.maximum.at(best[ti], rep, mass)


mass_ensemble(spec, [t], reps, 92, track_max, mass_floor=1e-5,
              replica_chunk=10)
rate = (-np.log(best[0]) / t).mean()
print(f"\nlargest-fragment rate at t = {t:.0f}: {rate:.4f} "
      f"(tends to {decay:.4f} as t grows, from above by an O(log t / t) "
      f"front correction)")

# --- windowed counts -------------------------------------------------------------------
theta = 0.5 * tb
sd = perron_eigen(spec, theta, with_derivatives=True)
times = [6.0, 9.0, 12.0]
a, b = 0.5, 2.0
counts = np.zeros((len(times), 200))


def count_window(ti, rep, mass, typ, frozen):
    lo, hi = ld_window(times[ti], a, b, sd)
    sel = (mass >= lo) & (mass <= hi)
    np.add.at(counts[ti], rep[sel], 1.0)


# frozen fragments and their descendants stay below every window
mass_ensemble(spec, times, 200, 93, count_window,
              mass_floor=ld_window(times[-1], a, b, sd)[0], replica_chunk=100)
means = counts.mean(axis=1)
slope = np.polyfit(times, np.log(means * np.sqrt(times)), 1)[0]
print(f"\nwindow counts at t = {times}: {means.round(2)}")
print(f"growth rate of log(count sqrt(t)): {slope:.4f} "
      f"(predicted {ld_window_exponent(sd):.4f})")
