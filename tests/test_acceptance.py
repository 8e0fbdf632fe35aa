"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at their stated tolerances with fixed seeds.  The
per-criterion lines are echoed in an "acceptance criteria" section of the
terminal summary after the run.
"""

import math
import time

import numpy as np
from scipy import stats
from scipy.signal import lfilter

import conftest

from multifrag import (
    frag,
    intensity_matrix,
    make_test_function,
    mass_ensemble,
    perron_eigen,
    restrict,
    simulate_mass_fragmentation,
    stationary_distribution,
    tagged_ensemble,
    theta_bar,
    gaussian_limit,
)
from multifrag.cli import main
from multifrag.streams import replica_stream

LN2 = math.log(2.0)


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    text = f"criterion {num} ({name}): {status} — {detail}"
    conftest.ACCEPTANCE_LINES.append(text)
    print(text)


def _moment_accumulator(n_times, reps, thetas, k):
    acc = np.zeros((n_times, reps, len(thetas), k))

    def visit(ti, rep, mass, typ, frozen):
        for gi, th in enumerate(thetas):
            w = mass ** (1.0 + th)
            for j in range(1, k + 1):
                sel = typ == j
                np.add.at(acc[ti, :, gi, j - 1], rep[sel], w[sel])

    return acc, visit


# --- criterion 1 -----------------------------------------------------------------

def test_criterion_1_semigroup_identity(spec_b, spec_c):
    """Monte Carlo moments match the matrix exponential rows (3 SE)."""
    t_start = time.time()
    reps = 10_000
    thetas = [0.0, 0.5, 1.0, 2.0]
    times = [1.0, 3.0]
    worst = 0.0
    ok = True
    details = []
    for spec, name, seed in ((spec_b, "SPEC-B", 101), (spec_c, "SPEC-C", 102)):
        acc, visit = _moment_accumulator(len(times), reps, thetas, spec.k)
        mass_ensemble(spec, times, reps, seed, visit)
        for ti, t in enumerate(times):
            for gi, th in enumerate(thetas):
                exact = conftest.semigroup(spec, th, t)[0]
                for j in range(1, spec.k + 1):
                    vals = acc[ti, :, gi, j - 1]
                    se = vals.std(ddof=1) / math.sqrt(reps)
                    z = abs(vals.mean() - exact[j - 1]) / se
                    worst = max(worst, z)
                    if z >= 3.0:
                        ok = False
                        details.append(f"{name} t={t} th={th} j={j} z={z:.2f}")
    elapsed = time.time() - t_start
    ok = ok and elapsed < 120.0
    _line(1, "semigroup/Bernstein identity", ok,
          f"worst |z| = {worst:.2f} over 32 moments, {elapsed:.1f}s "
          f"{'; '.join(details)}")
    assert ok, f"moments off: {details}; elapsed {elapsed:.1f}s"


# --- criterion 2 -----------------------------------------------------------------

def _size_biased_rows(rows_rep, rows_mass, rows_typ, n_replicas, rng):
    """One mass-proportional pick per replica from collected rows."""
    order = np.argsort(rows_rep, kind="stable")
    rep_s = rows_rep[order]
    mass_s = rows_mass[order]
    typ_s = rows_typ[order]
    cums = np.cumsum(mass_s)
    starts = np.searchsorted(rep_s, np.arange(n_replicas))
    base = np.where(starts > 0, cums[starts - 1], 0.0)
    u = rng.random(n_replicas)
    idx = np.searchsorted(cums, base + u, side="left")
    idx = np.minimum(idx, np.append(starts[1:], len(cums)) - 1)
    return mass_s[idx], typ_s[idx]


def test_criterion_2_tagged_equivalence(spec_c):
    """(S_t, J_t) law agrees between tagged and full simulation at t = 2."""
    reps, t = 10_000, 2.0
    rows = {"rep": [], "mass": [], "typ": []}

    def visit(ti, rep, mass, typ, frozen):
        rows["rep"].append(rep.copy())
        rows["mass"].append(mass.copy())
        rows["typ"].append(typ.copy())

    mass_ensemble(spec_c, [t], reps, 201, visit)
    mass_pick, typ_pick = _size_biased_rows(
        np.concatenate(rows["rep"]), np.concatenate(rows["mass"]),
        np.concatenate(rows["typ"]), reps, replica_stream(202, 0))
    s_full = -np.log(mass_pick)
    j_tag, s_tag = tagged_ensemble(spec_c, [t], reps, 203)
    # S is discrete; align atoms computed via different float paths
    ks = stats.ks_2samp(s_full.round(9), s_tag[0].round(9))
    table = np.array([[np.sum(typ_pick == 1), np.sum(typ_pick == 2)],
                      [np.sum(j_tag[0] == 1), np.sum(j_tag[0] == 2)]])
    chi2 = stats.chi2_contingency(table)
    ok = ks.pvalue > 0.01 and chi2.pvalue > 0.01
    _line(2, "tagged-fragment equivalence", ok,
          f"KS p = {ks.pvalue:.3f}, chi2 p = {chi2.pvalue:.3f} "
          f"(alpha = 0.01, n = m = {reps})")
    assert ok


# --- criterion 3 -----------------------------------------------------------------

def test_criterion_3_martingale(spec_c):
    """Mean additive martingale sits at v_1(theta); exact mass at theta 0."""
    reps = 10_000
    times = [1.0, 2.0, 4.0]
    tb, _ = theta_bar(spec_c)
    thetas = [0.3 * tb, 0.6 * tb]
    sds = [perron_eigen(spec_c, th) for th in thetas]
    acc, visit = _moment_accumulator(len(times), reps, [0.0] + thetas, 2)
    mass_ensemble(spec_c, times, reps, 301, visit)
    ok = True
    worst = 0.0
    for ti, t in enumerate(times):
        # theta = 0: v = 1, phi = 0, so M is the conserved total mass
        m0 = acc[ti, :, 0, :].sum(axis=1)
        if np.max(np.abs(m0 - 1.0)) > 1e-9:
            ok = False
        for gi, (th, sd) in enumerate(zip(thetas, sds), start=1):
            m = math.exp(t * sd.phi) * (acc[ti, :, gi, 0] * sd.v[0]
                                        + acc[ti, :, gi, 1] * sd.v[1])
            se = m.std(ddof=1) / math.sqrt(reps)
            z = abs(m.mean() - sd.v[0]) / se
            worst = max(worst, z)
            ok = ok and z < 3.0
    _line(3, "additive martingale", ok,
          f"worst |z| = {worst:.2f} over 6 (theta, t) pairs; "
          f"M(0, t) = 1 to 1e-9 on all {reps} paths x {len(times)} times")
    assert ok


# --- criterion 4 -----------------------------------------------------------------

def _theta_bar_bisection_oracle():
    def g(t):
        return 1 - 2 ** (-t) - (t + 1) * 2 ** (-t) * LN2
    lo, hi = 0.5, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_4_critical_exponent(spec_a):
    """theta_bar for the halving model against a scalar bisection oracle."""
    oracle = _theta_bar_bisection_oracle()
    tb, d1 = theta_bar(spec_a)
    phi_tb = perron_eigen(spec_a, tb).phi
    resid = abs(phi_tb / (tb + 1.0) - d1)
    grid = np.linspace(1e-6, 50.0, 100)
    g = np.array([perron_eigen(spec_a, float(th)).phi / (th + 1.0)
                  for th in grid])
    peak = g.argmax()
    unimodal = (np.all(np.diff(g[:peak + 1]) > 0)
                and np.all(np.diff(g[peak:]) < 0))
    ok = abs(tb - oracle) <= 1e-3 and resid < 1e-6 and unimodal
    _line(4, "critical exponent", ok,
          f"theta_bar = {tb:.6f} vs oracle {oracle:.6f} "
          f"(|diff| = {abs(tb - oracle):.2e}), residual = {resid:.2e}, "
          f"unimodal on 100-point grid = {unimodal}")
    assert ok


# --- criterion 5 -----------------------------------------------------------------

def test_criterion_5_conservative_spectral_facts(spec_b, spec_c):
    """phi(0) = 0, u(0) stationary, SPEC-C stationary law = (5/9, 4/9)."""
    worst_phi = worst_resid = worst_stat = 0.0
    for spec in (spec_b, spec_c):
        sd = perron_eigen(spec, 0.0)
        worst_phi = max(worst_phi, abs(sd.phi))
        worst_resid = max(worst_resid, float(np.max(np.abs(
            sd.u @ intensity_matrix(spec)))))
    u_c = stationary_distribution(intensity_matrix(spec_c))
    worst_stat = float(np.max(np.abs(u_c - np.array([5 / 9, 4 / 9]))))
    ok = worst_phi < 1e-10 and worst_resid < 1e-10 and worst_stat < 1e-10
    _line(5, "conservative spectral facts", ok,
          f"|phi(0)| = {worst_phi:.1e}, |u Lambda| = {worst_resid:.1e}, "
          f"|u - (5/9, 4/9)| = {worst_stat:.1e}")
    assert ok


# --- criterion 6 -----------------------------------------------------------------

def test_criterion_6_lln_clt(spec_a, spec_c):
    """Variance law, CLT functional vs quadrature oracle, type marginals.

    Population averages at t = 100 are evaluated through the size-biased
    identity (their expectation equals the tagged-pair expectation), since
    direct population simulation at that horizon grows like e^t.
    """
    reps, t = 10_000, 100.0
    # variance law on the halving model: S_t = ln2 * Poisson(t)
    _, s_a = tagged_ensemble(spec_a, [t], reps, 601)
    var_ratio = s_a[0].var(ddof=1) / t
    ok_var = abs(var_ratio / LN2 ** 2 - 1.0) < 0.05

    sd0 = perron_eigen(spec_c, 0.0, with_derivatives=True)
    u = stationary_distribution(intensity_matrix(spec_c))
    f = make_test_function("bump", 0.0, 1.0)
    j_c, s_c = tagged_ensemble(spec_c, [t], reps, 602)
    clt_vals = f((-s_c[0] + sd0.phi_d1 * t) / math.sqrt(t), j_c[0])
    clt_se = clt_vals.std(ddof=1) / math.sqrt(reps)
    oracle = gaussian_limit(f, u, -sd0.phi_d2)
    z_clt = abs(clt_vals.mean() - oracle) / clt_se

    z_marg = 0.0
    for j in (1, 2):
        p_hat = (j_c[0] == j).mean()
        se = math.sqrt(p_hat * (1 - p_hat) / reps)
        z_marg = max(z_marg, abs(p_hat - u[j - 1]) / se)

    ok = ok_var and z_clt < 3.0 and z_marg < 3.0
    _line(6, "LLN/CLT functionals", ok,
          f"Var(S_t)/t = {var_ratio:.4f} vs (ln2)^2 = {LN2**2:.4f} "
          f"({100 * abs(var_ratio / LN2**2 - 1):.1f}%), CLT |z| = {z_clt:.2f} "
          f"(mean {clt_vals.mean():.4f} vs oracle {oracle:.4f}), "
          f"type-marginal |z| = {z_marg:.2f}")
    assert ok


# --- criterion 7 -----------------------------------------------------------------

def _min_generation_truth(times):
    """Exact E[min generation alive at t] for the binary halving model.

    q_m(t) = P(min generation >= m) satisfies the convolution recursion
    q_m(t) = e^-t int_0^t e^s q_{m-1}(s)^2 ds with q_0 = 1.  It is solved for
    p_m = 1 - q_m, which keeps every term bounded and does not amplify the
    quadrature error of squaring q near 1:

        p_m(t) = e^-t + int_0^t e^-(t-s) p_{m-1}(s) (2 - p_{m-1}(s)) ds,

    stepped on a grid of 200 points per unit time by the exponential
    integrator that is exact for piecewise-linear p_{m-1}(2 - p_{m-1}).  The
    minimum generation grows like 0.37 t, so ceil(t/2) + 20 levels carry
    the whole sum; the last one is checked to be negligible.  Returns the
    expectation at each of `times`, all read off one grid, independently
    of any simulation.
    """
    t_max = max(times)
    n = int(round(200 * t_max))
    h = t_max / n
    decay = math.exp(-h)
    left = (1.0 - decay * (1.0 + h)) / h
    right = 1.0 - decay - left
    idx = [int(round(t / h)) for t in times]
    assert all(abs(i * h - t) < 1e-9 for i, t in zip(idx, times))
    p = np.zeros(n + 1)
    expected = np.zeros(n + 1)
    for _ in range(math.ceil(t_max / 2) + 20):
        f = p * (2.0 - p)
        # p_m(0) = 1 for m >= 1: at t = 0 only generation 0 is alive
        steps, _ = lfilter([1.0], [1.0, -decay],
                           left * f[:-1] + right * f[1:], zi=[decay])
        p = np.concatenate([[1.0], steps])
        expected += 1.0 - p
    # q_m(t) grows with t, so the last level is largest at t_max
    assert 1.0 - p[-1] < 1e-12, f"levels cut short: q = {1.0 - p[-1]:.1e}"
    return expected[idx]


def test_criterion_7_largest_fragment(spec_a):
    """Largest fragment of the halving model against its exact law and limit.

    The limit theorem says -t^-1 ln X_1(t) -> phi'(theta_bar) as t -> inf.
    At finite t the mean rate is phi'(theta_bar) plus the branching random
    walk front correction (3/(2(theta_bar+1))) ln t / t + O(1/t), which
    leaves it 20% above the limit at t = 30.  X_1(t) = 2^-(min generation
    at t), so the exact finite-t mean rate is r(t) = ln2 E[min generation
    at t] / t.  The criterion checks:

    1. the simulated mean rate at t = 30 (200 replicas) is within 3 SE of
       r(30): the simulator's largest fragment has the right law;
    2. on the exact law, with no simulation, r(t) at t = 30, 60, 100, 200,
       400 strictly decreases, stays above phi'(theta_bar), is within 10% of
       it from t = 100 on, and the second-order remainder
       t (r(t) - phi'(theta_bar) - (3/(2(theta_bar+1))) ln t / t) is at most
       1 in size: the rate tends to the spectral limit, and the gap at
       finite t is the front correction.

    The mass floor is 2^-17 instead of the stated 1e-12: fragments below
    the floor can never carry the maximum (masses only shrink along
    lineages), so the largest-fragment statistic is unchanged except on an
    event of probability P(min generation >= 18) ~ 1e-10, while the stated
    floor would require ~2^40 events per path.
    """
    reps, t = 200, 30.0
    floor = 2.0 ** -17
    best = np.zeros((1, reps))

    def visit(ti, rep, mass, typ, frozen):
        np.maximum.at(best[ti], rep, mass)

    mass_ensemble(spec_a, [t], reps, 701, visit, mass_floor=floor,
                  replica_chunk=4)
    rates = -np.log(best[0]) / t
    mean_rate = float(rates.mean())
    se = float(rates.std(ddof=1)) / math.sqrt(reps)

    tb, target = theta_bar(spec_a)
    ladder = np.array([30.0, 60.0, 100.0, 200.0, 400.0])
    exact = LN2 * _min_generation_truth(ladder) / ladder
    z = abs(mean_rate - exact[0]) / se
    gaps = exact / target - 1.0
    remainders = ladder * (exact - target) - 1.5 / (tb + 1.0) * np.log(ladder)

    failures = []
    if z >= 3.0:
        failures.append(f"simulated mean rate {mean_rate:.4f} is |z| = "
                        f"{z:.2f} >= 3 from the exact r(30) = {exact[0]:.4f}")
    if not np.all(np.diff(exact) < 0):
        failures.append("exact r(t) does not strictly decrease along t")
    if not np.all(exact > target):
        failures.append(f"exact r(t) falls below phi'(theta_bar) = "
                        f"{target:.4f}")
    if not np.all(np.abs(gaps[ladder >= 100.0]) <= 0.10):
        failures.append("exact r(t) is more than 10% off phi'(theta_bar) "
                        "at some t >= 100")
    if not np.all(np.abs(remainders) <= 1.0):
        failures.append("second-order remainder exceeds 1 in size: the gap "
                        "is not the ln t / t front correction")

    rungs = ", ".join(f"{tt:.0f}: {r:.4f} ({100 * g:+.1f}%)"
                      for tt, r, g in zip(ladder, exact, gaps))
    _line(7, "largest-fragment decay", not failures,
          f"mean rate at t = 30 = {mean_rate:.4f} (SE {se:.4f}) vs exact "
          f"{exact[0]:.4f}: |z| = {z:.2f} (< 3); exact r(t) vs "
          f"phi'(theta_bar) = {target:.4f} at t = {rungs} (within 10% from "
          f"t = 100); remainders "
          f"{', '.join(f'{v:.2f}' for v in remainders)} (|.| <= 1)")
    assert not failures, "; ".join(failures)


# --- criterion 8 -----------------------------------------------------------------

def test_criterion_8_large_deviation_shape(spec_c):
    """Windowed count growth rate and type profile (soft criterion)."""
    reps = 300
    a, b = 0.5, 2.0
    times = [8.0, 10.0, 12.0, 14.0, 16.0]
    tb, _ = theta_bar(spec_c)
    theta = 0.5 * tb
    sd = perron_eigen(spec_c, theta, with_derivatives=True)
    floor = a * math.exp(-times[-1] * sd.phi_d1)
    counts = np.zeros((len(times), reps, 2))
    lows = [a * math.exp(-t * sd.phi_d1) for t in times]
    highs = [b * math.exp(-t * sd.phi_d1) for t in times]

    def visit(ti, rep, mass, typ, frozen):
        sel = (mass >= lows[ti]) & (mass <= highs[ti])
        for j in (1, 2):
            np.add.at(counts[ti, :, j - 1], rep[sel & (typ == j)], 1.0)

    mass_ensemble(spec_c, times, reps, 801, visit, mass_floor=floor,
                  replica_chunk=50)
    mean_total = counts.sum(axis=2).mean(axis=1)
    y = np.log(mean_total * np.sqrt(times))
    slope = float(np.polyfit(times, y, 1)[0])
    predicted = (theta + 1.0) * sd.phi_d1 - sd.phi
    rel_slope = abs(slope - predicted) / predicted

    mean_by_type = counts[-1].mean(axis=0)
    ratio = mean_by_type[0] / mean_by_type[1]
    ratio_pred = sd.u[0] / sd.u[1]
    rel_ratio = abs(ratio - ratio_pred) / ratio_pred

    ok = rel_slope <= 0.10 and rel_ratio <= 0.15
    _line(8, "large-deviation count shape", ok,
          f"slope = {slope:.4f} vs (theta+1)phi' - phi = {predicted:.4f} "
          f"({100 * rel_slope:.1f}%, tolerance 10%); type ratio at t = 16: "
          f"{ratio:.3f} vs u1/u2 = {ratio_pred:.3f} "
          f"({100 * rel_ratio:.1f}%, tolerance 15%)")
    assert ok


# --- criterion 9 -----------------------------------------------------------------

def _random_block_partition(rng, n, k=3):
    labels = rng.integers(0, max(2, n // 2), n)
    groups = {}
    for e, lab in enumerate(labels, start=1):
        groups.setdefault(int(lab), []).append(e)
    from multifrag import typed_block_partition
    blocks = [(tuple(el), int(rng.integers(1, k + 1)) if len(el) > 1 else 0)
              for el in groups.values()]
    return typed_block_partition(n, blocks)


def test_criterion_9_structural_exactness(spec_c, tmp_path):
    """Frag/restriction compatibility, event conservation, reproducibility."""
    rng = np.random.default_rng(901)
    compat = True
    for _ in range(1000):
        n = int(rng.integers(2, 14))
        pi = _random_block_partition(rng, n)
        splitters = [_random_block_partition(rng, n) for _ in pi.blocks]
        m = int(rng.integers(1, n + 1))
        left = restrict(frag(pi, splitters), range(1, m + 1))
        small = restrict(pi, range(1, m + 1))
        if left != frag(small, splitters[:len(small.blocks)]):
            compat = False
            break

    path = simulate_mass_fragmentation(spec_c, 13.0, replica_stream(902, 0),
                                       mass_floor=1e-4)
    n_events = len(path.events)
    worst = 0.0
    for ev in path.events:
        parent = path.fragment(ev.parent)
        got = sum(path.fragment(c).mass for c in ev.children)
        worst = max(worst, abs(got - parent.mass) / parent.mass)
    conserve = worst < 1e-9 and n_events >= 10_000

    import json
    spec_file = tmp_path / "c.json"
    from multifrag.cli import spec_to_document
    spec_file.write_text(json.dumps(spec_to_document(spec_c)))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["simulate", "--spec", str(spec_file), "--seed", "903",
            "--replicas", "20", "--t", "3", "--times", "1,2,3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    reproducible = out1.read_bytes() == out2.read_bytes()
    p2 = simulate_mass_fragmentation(spec_c, 13.0, replica_stream(902, 0),
                                     mass_floor=1e-4)
    reproducible = reproducible and p2.events == path.events

    ok = compat and conserve and reproducible
    _line(9, "structural exactness", ok,
          f"frag/restrict compatibility on 1000 instances = {compat}; "
          f"worst per-event relative mass error = {worst:.2e} over "
          f"{n_events} events; byte-identical reruns = {reproducible}")
    assert ok
