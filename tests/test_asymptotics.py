import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifrag import (
    Snapshot,
    adaptive_simpson,
    build_typed_mass_partition,
    biggins_martingale,
    bump,
    clt_statistic,
    coswin,
    dislocate_term,
    empirical_measure,
    fragmentation_spec,
    gaussian_limit,
    intensity_matrix,
    irreducibility_check,
    largest_fragment_rates,
    lattice_check,
    ld_count,
    ld_predicted_shape,
    ld_window,
    ld_window_exponent,
    lln_statistic,
    perron_eigen,
    sample_paintbox,
    sigmoid,
    simulate_mass_fragmentation,
    stationary_distribution,
    tagged_ensemble,
    make_test_function,
    one_block_partition,
    theta_bar,
)
from multifrag.errors import (
    InvalidArgument,
    InvalidWindow,
    LatticeJumpSizes,
    NoConvergence,
    NotConservative,
    NotIrreducible,
    ThetaAboveCritical,
)
from multifrag.asymptotics import (
    _FAMILY,
    GAUSSIAN_SPAN,
    SIMPSON_DEPTH,
    SIMPSON_TOL,
)
from multifrag.streams import replica_stream
from conftest import semigroup

LN2 = math.log(2.0)


def _snap(t, masses, types, dust=0.0):
    masses = np.asarray(masses, dtype=float)
    return Snapshot(t=t, masses=masses,
                    types=np.asarray(types, dtype=np.int64),
                    frozen=np.zeros(len(masses), dtype=bool), dust=dust)


# --- empirical measure --------------------------------------------------------

def test_empirical_measure_initial_state():
    em = empirical_measure(_snap(0.0, [1.0], [2]), k=3)
    assert em.count() == 1
    assert em.locations[1] == pytest.approx([0.0])
    assert em.locations[0].size == 0 and em.locations[2].size == 0


@pytest.mark.parametrize("masses, types, k", [
    ([0.5, 0.25, 0.25], [1, 3, 1], 3),
    ([1.0], [2], 2),
    ([], [], 1),
], ids=["three-types", "top-type-only", "no-fragments"])
def test_empirical_measure_without_k_uses_the_largest_type(masses, types, k):
    em = empirical_measure(_snap(1.0, masses, types))
    assert len(em.locations) == k and em.count() == len(masses)
    for j, loc in enumerate(em.locations, start=1):
        want = [-math.log(m) for m, i in zip(masses, types) if i == j]
        assert loc.tolist() == pytest.approx(want)


def test_empirical_measure_after_one_halving(spec_a):
    path = simulate_mass_fragmentation(spec_a, 5.0, replica_stream(40, 0))
    snap = path.snapshot(path.events[0].time)
    em = empirical_measure(snap, k=1)
    assert em.locations[0] == pytest.approx([LN2, LN2])


def test_empirical_measure_total_mass_closure(spec_c):
    path = simulate_mass_fragmentation(spec_c, 3.0, replica_stream(41, 0))
    em = empirical_measure(path.snapshot(3.0), k=2)
    total = sum(np.exp(-loc).sum() for loc in em.locations)
    assert total == pytest.approx(1.0, abs=1e-9)


# --- additive martingale ---------------------------------------------------------

def test_martingale_at_time_zero_is_v(spec_c):
    sd = perron_eigen(spec_c, 0.8)
    for i in (1, 2):
        snap = _snap(0.0, [1.0], [i])
        assert biggins_martingale(snap, sd) == pytest.approx(sd.v[i - 1])


def test_martingale_at_theta_zero_is_total_mass(spec_c):
    sd = perron_eigen(spec_c, 0.0)
    path = simulate_mass_fragmentation(spec_c, 4.0, replica_stream(42, 0))
    for ev in path.events[::5]:
        snap = path.snapshot(ev.time)
        assert biggins_martingale(snap, sd) == pytest.approx(1.0, abs=1e-9)


def test_martingale_mean_is_v(spec_c):
    tb, _ = theta_bar(spec_c)
    sd = perron_eigen(spec_c, 0.3 * tb)
    reps, t = 3000, 1.0
    vals = np.empty(reps)
    for r in range(reps):
        path = simulate_mass_fragmentation(spec_c, t, replica_stream(43, r))
        vals[r] = biggins_martingale(path.snapshot(t), sd)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - sd.v[0]) < 3.5 * se


def test_martingale_warns_above_critical(spec_c):
    tb, _ = theta_bar(spec_c)
    sd = perron_eigen(spec_c, 2.0)
    snap = _snap(0.0, [1.0], [1])
    with pytest.warns(ThetaAboveCritical):
        biggins_martingale(snap, sd, theta_bar=tb)


# --- LLN / CLT functionals ----------------------------------------------------------

def test_statistics_with_constant_function_return_total_mass(spec_c):
    path = simulate_mass_fragmentation(spec_c, 2.0, replica_stream(44, 0))
    snap = path.snapshot(2.0)
    one = lambda y, j: np.ones_like(np.asarray(y, dtype=float))
    assert lln_statistic(snap, one) == pytest.approx(1.0, abs=1e-9)
    assert clt_statistic(snap, one, drift=0.5) == pytest.approx(1.0, abs=1e-9)


def test_type_marginal_statistic_matches_matrix_exponential(spec_c):
    # E sum_n X_n 1{T_n = j} = (e^(t Lambda))_{1j} exactly
    t, reps = 1.5, 4000
    exact = semigroup(spec_c, 0.0, t)[0]
    f1 = make_test_function("bump", 0.0, 1e9, type_index=1)
    vals = np.empty(reps)
    for r in range(reps):
        path = simulate_mass_fragmentation(spec_c, t, replica_stream(45, r))
        vals[r] = lln_statistic(path.snapshot(t), f1)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - exact[0]) < 4 * se


def test_clt_statistic_mean_equals_tagged_expectation(spec_c):
    # the size-biased identity connecting population averages and the
    # tagged pair, at matched (finite) time
    t, reps = 2.0, 4000
    d1 = perron_eigen(spec_c, 0.0, with_derivatives=True).phi_d1
    f = make_test_function("bump", 0.0, 1.0)
    pop = np.empty(reps)
    for r in range(reps):
        path = simulate_mass_fragmentation(spec_c, t, replica_stream(46, r))
        pop[r] = clt_statistic(path.snapshot(t), f, drift=d1)
    j, s = tagged_ensemble(spec_c, [t], reps, 47)
    tag = f((-s[0] + d1 * t) / math.sqrt(t), j[0])
    se = math.hypot(pop.std(ddof=1), tag.std(ddof=1)) / math.sqrt(reps)
    assert abs(pop.mean() - tag.mean()) < 4 * se


# --- stationary law ------------------------------------------------------------------

def test_stationary_examples(spec_b, spec_c):
    assert stationary_distribution(intensity_matrix(spec_b)) == pytest.approx(
        [0.5, 0.5], abs=1e-12)
    assert stationary_distribution(intensity_matrix(spec_c)) == pytest.approx(
        [5 / 9, 4 / 9], abs=1e-12)
    assert stationary_distribution(np.zeros((1, 1))) == pytest.approx([1.0])


def test_stationary_requires_irreducible():
    with pytest.raises(NotIrreducible):
        stationary_distribution(np.array([[-1.0, 1.0], [0.0, 0.0]]))
    reducible = fragmentation_spec(2, {1: [(1.0, [(0.6, 1), (0.4, 2)])],
                                       2: [(1.0, [(0.5, 2), (0.5, 2)])]})
    assert not reducible.irreducible
    with pytest.raises(NotIrreducible):
        stationary_distribution(intensity_matrix(reducible))
    # a dusty model has no intensity matrix, hence no stationary law
    dusty = fragmentation_spec(2, {1: [(1.0, [(0.5, 1), (0.3, 2)])],
                                   2: [(1.0, [(0.5, 2), (0.4, 2)])]})
    with pytest.raises(NotConservative):
        intensity_matrix(dusty)


# --- largest fragment ------------------------------------------------------------------

def test_largest_fragment_before_first_event(spec_a):
    path = simulate_mass_fragmentation(spec_a, 5.0, replica_stream(48, 0))
    t0 = 0.5 * path.events[0].time
    rates = largest_fragment_rates(path.snapshot(t0))
    assert rates.overall == 0.0
    assert rates.per_type == (0.0,)


def test_largest_fragment_missing_type(spec_c):
    snap = _snap(2.0, [0.5, 0.5], [1, 1])
    out = largest_fragment_rates(snap, k=2)
    assert out.per_type[0] == pytest.approx(LN2 / 2.0)
    assert out.per_type[1] is None
    assert out.overall == pytest.approx(LN2 / 2.0)


def test_largest_fragment_of_no_mass():
    # X_1(t) = 0, so -log X_1(t) / t = +inf: every fragment went to dust, or
    # every mass underflowed to 0
    all_dust = fragmentation_spec(1, {1: [(1.0, [])]})
    snap = simulate_mass_fragmentation(all_dust, 5.0,
                                       replica_stream(1, 0)).snapshot(5.0)
    assert snap.masses.size == 0 and snap.dust == 1.0
    rates = largest_fragment_rates(snap)
    assert rates.overall == math.inf and rates.per_type == (None,)
    rates = largest_fragment_rates(_snap(2.0, [0.0, 0.0], [2, 2]), k=2)
    assert rates.overall == math.inf and rates.per_type == (None, math.inf)


# --- windowed counts ----------------------------------------------------------------------

def test_ld_count_trivial_windows(spec_c):
    sd = perron_eigen(spec_c, 0.5, with_derivatives=True)
    path = simulate_mass_fragmentation(spec_c, 3.0, replica_stream(49, 0))
    snap = path.snapshot(3.0)
    total = 0
    for j in (1, 2):
        obs, _ = ld_count(snap, 1e-12, 1e12, j, sd)
        total += obs
    assert total == len(snap.masses)
    far, _ = ld_count(snap, 1e9, 1e10, None, sd)
    assert far == 0
    with pytest.raises(InvalidWindow):
        ld_count(snap, 2.0, 1.0, 1, sd)


def test_ld_window_bounds_the_counted_masses(spec_c):
    sd = perron_eigen(spec_c, 0.5, with_derivatives=True)
    lo, hi = ld_window(3.0, 0.5, 2.0, sd)
    assert lo == pytest.approx(0.5 * math.exp(-3.0 * sd.phi_d1))
    assert hi == pytest.approx(4.0 * lo)
    snap = simulate_mass_fragmentation(spec_c, 3.0,
                                       replica_stream(49, 1)).snapshot(3.0)
    inside = (snap.masses >= lo) & (snap.masses <= hi)
    assert ld_count(snap, 0.5, 2.0, None, sd)[0] == np.count_nonzero(inside)


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, 1.0), (math.nan, 2.0),
                                  (0.5, math.nan)])
def test_ld_predicted_shape_needs_a_below_b(spec_c, a, b):
    sd = perron_eigen(spec_c, 0.5, with_derivatives=True)
    with pytest.raises(InvalidWindow):
        ld_predicted_shape(1.0, a, b, 1, sd)


def test_ld_predicted_shape_profile(spec_c):
    tb, _ = theta_bar(spec_c)
    th = 0.5 * tb
    sd = perron_eigen(spec_c, th, with_derivatives=True)
    s1 = ld_predicted_shape(10.0, 0.5, 2.0, 1, sd)
    s2 = ld_predicted_shape(10.0, 0.5, 2.0, 2, sd)
    assert s1 / s2 == pytest.approx(sd.u[0] / sd.u[1])
    # growth exponent between consecutive times
    r = ld_window_exponent(sd)
    ratio = (ld_predicted_shape(11.0, 0.5, 2.0, 1, sd)
             / ld_predicted_shape(10.0, 0.5, 2.0, 1, sd))
    assert math.log(ratio * math.sqrt(11.0 / 10.0)) == pytest.approx(r)


def test_ld_predicted_shape_past_the_float_range(spec_c):
    # e^(t g) overflows a float at t = 5000 (g is about 0.37)
    sd = perron_eigen(spec_c, 0.5 * theta_bar(spec_c)[0], with_derivatives=True)
    with pytest.raises(NoConvergence):
        ld_predicted_shape(5000.0, 0.5, 2.0, 1, sd)


# --- test functions and the quadrature oracle ------------------------------------------------

def test_test_function_family_shapes():
    y = np.linspace(-3, 3, 7)
    types = np.array([1, 2, 1, 2, 1, 2, 1])
    g = bump(0.0, 1.0)
    assert g(np.array([0.0]))[0] == pytest.approx(1.0)
    assert sigmoid(0.0, 1.0)(np.array([0.0]))[0] == pytest.approx(0.5)
    w = coswin(0.0, 1.0)(np.array([0.0, 0.5, 2.0]))
    assert w == pytest.approx([1.0, 0.5 * (1 + math.cos(math.pi / 2)), 0.0])
    f = make_test_function("bump", 0.0, 1.0, type_index=2)
    vals = f(y, types)
    assert np.all(vals[types == 1] == 0.0)
    with pytest.raises(ValueError):
        make_test_function("triangle")


@pytest.mark.parametrize("center, width", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf),
    (0.0, 0.0), (0.0, -1.0)])
def test_test_function_needs_finite_center_and_positive_width(center, width):
    with pytest.raises(InvalidArgument):
        make_test_function("bump", center, width)


def test_adaptive_simpson_stops_at_a_non_finite_estimate():
    calls = []

    def nan(y):
        calls.append(y)
        return math.nan

    with pytest.raises(NoConvergence):
        adaptive_simpson(nan, 0.0, 1.0)
    assert len(calls) == 5


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-10)
    assert adaptive_simpson(lambda x: x ** 3 - x, -1.0, 2.0) == pytest.approx(
        2.25, abs=1e-10)


def test_gaussian_limit_against_closed_form():
    # E exp(-(Y - m)^2 / (2 s^2)) for Y ~ N(0, var) has a closed form
    var = 0.79
    for m, s in ((0.0, 1.0), (0.5, 0.7)):
        f = make_test_function("bump", m, s)
        exact = s / math.sqrt(s * s + var) * math.exp(
            -m * m / (2 * (s * s + var)))
        got = gaussian_limit(f, np.array([0.6, 0.4]), var)
        assert got == pytest.approx(exact, abs=1e-8)
    # degenerate variance collapses to a point mass at zero
    f = make_test_function("bump", 0.0, 1.0)
    assert gaussian_limit(f, np.array([1.0]), 0.0) == pytest.approx(1.0)


def _depth_first_simpson(func, a, b):
    """Adaptive Simpson by depth-first recursion, one scalar call of func
    per node: the reference for the depth-at-a-time integrator."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = func(lm), func(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if not math.isfinite(left + right):
            raise NoConvergence(f"non-finite integrand on [{x0}, {x2}]")
        if depth >= SIMPSON_DEPTH or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = func(a), func(mid), func(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), SIMPSON_TOL, 0)


def _depth_first_gaussian_limit(f, u, variance):
    """gaussian_limit with one scalar call of f per node."""
    total = 0.0
    for j, uj in enumerate(np.asarray(u), start=1):
        if variance == 0.0:
            total += uj * float(f(np.array([0.0]), np.array([j]))[0])
            continue

        def integrand(y, j=j):
            return (float(f(np.array([y]), np.array([j]))[0])
                    * math.exp(-y * y / (2.0 * variance)))

        half = GAUSSIAN_SPAN * math.sqrt(variance)
        total += (uj * _depth_first_simpson(integrand, -half, half)
                  / math.sqrt(2.0 * math.pi * variance))
    return total


def _outcome(call, *args):
    """The bits of call(*args), or the NoConvergence it raised."""
    try:
        return float(call(*args)).hex()
    except NoConvergence:
        return NoConvergence


variances = st.sampled_from([0.0, 1e-6, 0.25]) | st.floats(1e-3, 10.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["bump", "sigmoid", "coswin"]),
       center=st.floats(-4.0, 4.0), width=st.floats(0.01, 5.0),
       type_index=st.none() | st.integers(1, 3), variance=variances)
def test_depth_at_a_time_simpson_matches_depth_first(kind, center, width,
                                                     type_index, variance):
    f = make_test_function(kind, center, width, type_index)
    u = np.array([0.5, 0.3, 0.2])
    got = _outcome(gaussian_limit, f, u, variance)
    assert got is not NoConvergence
    assert got == _outcome(_depth_first_gaussian_limit, f, u, variance)
    # the scalar adapter: one call of func per point
    g = _FAMILY[kind](center, width)
    assert (_outcome(adaptive_simpson, lambda y: float(g(y)), -3.0, 2.0)
            == _outcome(_depth_first_simpson, lambda y: float(g(y)), -3.0,
                        2.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point=st.floats(-1.0, 1.0, exclude_max=True),
       span=st.none() | st.floats(1e-6, 0.2), variance=variances)
def test_simpson_refuses_a_nan_integrand_as_depth_first_does(point, span,
                                                            variance):
    # NaN past point (or on [point, point + span]), both given as fractions
    # of the half range: an integrand that is NaN at the end of the range is
    # refused; a NaN window between the nodes may pass unseen, by both
    # integrators alike
    g, half = bump(0.5, 1.0), GAUSSIAN_SPAN * math.sqrt(variance)

    def f(y, types):
        z = y / half if half else y
        nan = (z > point) if span is None else (
            (point <= z) & (z <= point + span))
        return np.where(nan, math.nan, g(y))

    u = np.array([1.0])
    got = _outcome(gaussian_limit, f, u, variance)
    assert got == _outcome(_depth_first_gaussian_limit, f, u, variance)
    if span is None and variance > 0.0:
        assert got is NoConvergence


def test_laplace_intensity_identity(spec_c):
    # E sum_n 1{T_n(1) = j} X_n^theta(1) = (e^(-Phi(theta - 1)))_{1j}
    theta, reps = 1.7, 4000
    exact = semigroup(spec_c, theta - 1.0)[0]
    vals = np.zeros((reps, 2))
    for r in range(reps):
        path = simulate_mass_fragmentation(spec_c, 1.0, replica_stream(50, r))
        snap = path.snapshot(1.0)
        w = snap.masses ** theta
        for j in (1, 2):
            vals[r, j - 1] = w[snap.types == j].sum()
    se = vals.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(vals.mean(axis=0) - exact) < 3 * se)


def test_type_marginal_reaches_stationary_law(spec_c):
    # mass fraction per type at t = 50; population averages evaluated via
    # the size-biased identity (they equal tagged-type probabilities)
    reps, t = 8000, 50.0
    u = stationary_distribution(intensity_matrix(spec_c))
    j, _ = tagged_ensemble(spec_c, [t], reps, 51)
    for typ in (1, 2):
        p_hat = (j[0] == typ).mean()
        se = math.sqrt(p_hat * (1 - p_hat) / reps)
        assert abs(p_hat - u[typ - 1]) < 3 * se


def test_martingale_deviation_shrinks_with_replicas(spec_c):
    # max over a theta grid of |mean M - v_1| tightens as replicas grow
    tb, _ = theta_bar(spec_c)
    sds = [perron_eigen(spec_c, f * tb) for f in (0.2, 0.5, 0.8)]
    t = 1.0

    def max_dev(reps, seed):
        vals = np.zeros((reps, len(sds)))
        for r in range(reps):
            path = simulate_mass_fragmentation(spec_c, t,
                                               replica_stream(seed, r))
            snap = path.snapshot(t)
            for gi, sd in enumerate(sds):
                vals[r, gi] = biggins_martingale(snap, sd)
        return max(abs(vals[:, gi].mean() - sd.v[0])
                   for gi, sd in enumerate(sds))

    assert max_dev(6400, 52) < max_dev(400, 52)


# --- lattice heuristic ----------------------------------------------------------------------

def test_lattice_detection(spec_a, spec_b, spec_c):
    with pytest.warns(LatticeJumpSizes):
        assert lattice_check(spec_a)
    with pytest.warns(LatticeJumpSizes):
        assert lattice_check(spec_b)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not lattice_check(spec_c)


# --- argument errors ------------------------------------------------------------------------

AT_ZERO = Snapshot(t=0.0, masses=np.array([1.0]), types=np.array([1]),
                   frozen=np.array([False]), dust=0.0)


def _at(t):
    """AT_ZERO moved to time t."""
    return Snapshot(t=t, masses=AT_ZERO.masses, types=AT_ZERO.types,
                    frozen=AT_ZERO.frozen, dust=0.0)


def _sd(spec):
    return perron_eigen(spec, 0.5, with_derivatives=True)


BAD_ARGUMENTS = {
    "paintbox-no-labels": lambda spec: sample_paintbox(
        build_typed_mass_partition([(1.0, 1)]), 0, replica_stream(60, 0)),
    "lln-at-zero": lambda spec: lln_statistic(AT_ZERO, bump(0.0, 1.0)),
    "clt-at-zero": lambda spec: clt_statistic(AT_ZERO, bump(0.0, 1.0), 0.0),
    "largest-at-zero": lambda spec: largest_fragment_rates(AT_ZERO),
    "shape-without-phi-d1": lambda spec: ld_predicted_shape(
        1.0, 0.5, 2.0, None, perron_eigen(spec, 0.5)),
    "shape-at-zero": lambda spec: ld_predicted_shape(
        0.0, 0.5, 2.0, None, perron_eigen(spec, 0.5, with_derivatives=True)),
    "count-at-zero": lambda spec: ld_count(
        AT_ZERO, 0.5, 2.0, 1, perron_eigen(spec, 0.5, with_derivatives=True)),
    "exponent-without-phi-d1": lambda spec: ld_window_exponent(
        perron_eigen(spec, 0.5)),
    "window-without-phi-d1": lambda spec: ld_window(
        1.0, 0.5, 2.0, perron_eigen(spec, 0.5)),
    "unknown-test-function": lambda spec: make_test_function("triangle"),
    "negative-variance": lambda spec: gaussian_limit(
        bump(0.0, 1.0), np.array([1.0]), -1.0),
    "negative-seed": lambda spec: replica_stream(-1, 0),
    "negative-replica": lambda spec: replica_stream(0, -1),
    "dislocate-missing-term": lambda spec: dislocate_term(
        build_typed_mass_partition([(1.0, 1)]), 1,
        build_typed_mass_partition([(0.5, 1)])),
    "block-of-uncovered-element": lambda spec: one_block_partition(
        3, 1).block_of(4),
    # a NaN t passes a t <= 0 check; an infinite one gives a nan or a 0
    "lln-at-nan": lambda spec: lln_statistic(_at(math.nan), bump(0.0, 1.0)),
    "lln-at-inf": lambda spec: lln_statistic(_at(math.inf), bump(0.0, 1.0)),
    "clt-at-nan": lambda spec: clt_statistic(
        _at(math.nan), bump(0.0, 1.0), 0.0),
    "clt-at-inf": lambda spec: clt_statistic(
        _at(math.inf), bump(0.0, 1.0), 0.0),
    "largest-at-nan": lambda spec: largest_fragment_rates(_at(math.nan)),
    "largest-at-inf": lambda spec: largest_fragment_rates(_at(math.inf)),
    "window-at-nan": lambda spec: ld_window(math.nan, 0.5, 2.0, _sd(spec)),
    "window-at-inf": lambda spec: ld_window(math.inf, 0.5, 2.0, _sd(spec)),
    "window-at-minus-inf": lambda spec: ld_window(
        -math.inf, 0.5, 2.0, _sd(spec)),
    # e^(-t phi') overflowed to OverflowError here
    "window-at-negative-t": lambda spec: ld_window(
        -1e4, 0.5, 2.0, _sd(spec)),
    # sd.u[j - 1] reads type k's weight at j = 0 and fails in numpy past k
    "shape-type-0": lambda spec: ld_predicted_shape(
        1.0, 0.5, 2.0, 0, _sd(spec)),
    "shape-type-past-k": lambda spec: ld_predicted_shape(
        1.0, 0.5, 2.0, spec.k + 1, _sd(spec)),
    "count-type-0": lambda spec: ld_count(_at(1.0), 0.5, 2.0, 0, _sd(spec)),
    "count-type-past-k": lambda spec: ld_count(
        _at(1.0), 0.5, 2.0, spec.k + 1, _sd(spec)),
    # numpy's broadcast ValueError, or [1.] for the NaN
    "irreducibility-not-square": lambda spec: irreducibility_check(
        np.zeros((2, 3))),
    "stationary-not-square": lambda spec: stationary_distribution(
        np.zeros((2, 3))),
    "stationary-of-nan": lambda spec: stationary_distribution([[math.nan]]),
    # a TypeError, and numpy's truth-value ValueError
    "perron-theta-string": lambda spec: perron_eigen(spec, "1"),
    "perron-theta-array": lambda spec: perron_eigen(spec, np.array([0.5, 1.0])),
}


@pytest.mark.parametrize("call", list(BAD_ARGUMENTS))
def test_bad_library_arguments_raise_invalid_argument(spec_c, call):
    with pytest.raises(InvalidArgument):
        BAD_ARGUMENTS[call](spec_c)
