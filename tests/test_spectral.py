import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifrag import (
    DislocationAtom,
    bernstein_matrix,
    fragmentation_spec,
    intensity_matrix,
    irreducibility_check,
    perron_eigen,
    theta_bar,
)
from multifrag import spectral
from multifrag.errors import (
    MaximumAtBracketEdge,
    NoConvergence,
    NotConservative,
    NotIrreducible,
)
from multifrag.measures import THETA_GUARD
from conftest import random_conservative_spec, semigroup

LN2 = math.log(2.0)

irreducible_specs = (
    st.integers(0, 2 ** 32 - 1)
    .map(lambda seed: random_conservative_spec(np.random.default_rng(seed)))
    .filter(lambda spec: irreducibility_check(intensity_matrix(spec))))
property_settings = settings(max_examples=25, deadline=None, derandomize=True)


def _scaled(spec, c):
    """The same model with every dislocation rate multiplied by c."""
    return fragmentation_spec(spec.k, {
        i: [DislocationAtom(a.weight * c, a.outcome) for a in spec.atoms(i)]
        for i in range(1, spec.k + 1)})


def _five_point(f, x, h):
    """Fourth-order central difference f'(x) with step h."""
    return (8 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12 * h)


# --- semigroup ------------------------------------------------------------------

def test_expm_scalar_closed_form(spec_a):
    for th in (0.0, 0.5, 2.0):
        for t in (0.5, 1.0, 3.0):
            val = semigroup(spec_a, th, t)[0, 0]
            assert val == pytest.approx(math.exp(-t * (1 - 2 ** (-th))),
                                        rel=1e-13)


@property_settings
@given(st.integers(0, 2 ** 32 - 1))
def test_semigroup_on_random_models(seed):
    # e^(-t Phi(theta)) is entrywise nonnegative, stochastic at theta = 0,
    # and on irreducible models has u and v as eigenvectors for e^(-t phi)
    spec = random_conservative_spec(np.random.default_rng(seed))
    for th in (0.0, 0.5, 2.0):
        sd = perron_eigen(spec, th) if spec.irreducible else None
        for t in (0.5, 2.0):
            p = semigroup(spec, th, t)
            assert p.min() >= -1e-12
            if th == 0.0:
                assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            if sd is not None:
                r = math.exp(-t * sd.phi)
                assert np.allclose(sd.u @ p, r * sd.u, rtol=1e-9, atol=0.0)
                assert np.allclose(p @ sd.v, r * sd.v, rtol=1e-9, atol=0.0)


def test_library_does_not_import_scipy():
    # the semigroup oracle is independent of the library only while the
    # library itself never loads scipy
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, multifrag, multifrag.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# --- irreducibility -------------------------------------------------------------

def test_irreducibility(spec_b, spec_c):
    assert irreducibility_check(intensity_matrix(spec_b))
    assert irreducibility_check(intensity_matrix(spec_c))
    assert irreducibility_check(np.zeros((1, 1)))
    one_way = np.array([[-1.0, 1.0], [0.0, 0.0]])
    assert not irreducibility_check(one_way)
    # a cycle through all k types needs paths of length k - 1; cut once,
    # it is a one-way path
    for k in range(2, 10):
        cycle = np.roll(np.eye(k), 1, axis=1) - np.eye(k)
        assert irreducibility_check(cycle)
        cycle[-1, 0] = 0.0
        assert not irreducibility_check(cycle)


def test_perron_raises_on_reducible_chain():
    spec = fragmentation_spec(2, {
        1: [(1.0, [(0.6, 1), (0.4, 2)])],
        2: [(1.0, [(0.5, 2), (0.5, 2)])],
    })
    assert not irreducibility_check(intensity_matrix(spec))
    assert not spec.irreducible
    with pytest.raises(NotIrreducible):
        perron_eigen(spec, 1.0)
    with pytest.raises(NotIrreducible):
        theta_bar(spec)


def test_singular_solves_are_no_convergence(spec_c):
    # far out, Phi rounds to the identity up to tiny off-diagonal rates, the
    # gap sits at its floor and the group inverse's matrix is singular
    assert perron_eigen(spec_c, 300.0).phi == 1.0
    with pytest.raises(NoConvergence):
        perron_eigen(spec_c, 300.0, with_derivatives=True)
    with pytest.raises(NoConvergence):
        spectral._perron_vector(np.zeros((2, 2)), np.ones(2))


def test_non_conservative_is_refused_before_reducibility():
    # dusty, and type 2 never turns into type 1: NotConservative comes first
    reducible = fragmentation_spec(2, {
        1: [(1.0, [(0.5, 1), (0.3, 2)])],
        2: [(1.0, [(0.5, 2), (0.4, 2)])],
    })
    irreducible = fragmentation_spec(2, {
        1: [(1.0, [(0.5, 1), (0.3, 2)])],
        2: [(1.0, [(0.5, 2), (0.4, 1)])],
    })
    assert not reducible.irreducible and irreducible.irreducible
    for spec in (reducible, irreducible):
        with pytest.raises(NotConservative):
            perron_eigen(spec, 1.0)
        with pytest.raises(NotConservative):
            theta_bar(spec)


def _reaches_all_both_ways(lam):
    """Reference strong-connectivity test: a depth-first search from type 0,
    forwards and backwards."""
    k = lam.shape[0]
    adj = (lam > 0.0) & ~np.eye(k, dtype=bool)

    def reaches_all(mat):
        seen, stack = {0}, [0]
        while stack:
            for j in np.flatnonzero(mat[stack.pop()]):
                if int(j) not in seen:
                    seen.add(int(j))
                    stack.append(int(j))
        return len(seen) == k

    return reaches_all(adj) and reaches_all(adj.T)


def _closure_is_full(lam):
    """Reference strong-connectivity test: the reachability closure, by
    repeated squaring in int64, is full.  O(k^3 log k): keep k small."""
    reach = ((lam > 0.0) | np.eye(len(lam), dtype=bool)).astype(np.int64)
    for _ in range(len(lam).bit_length()):
        reach = np.minimum(reach @ reach, 1)
    return bool(reach.all())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 7).flatmap(lambda k: st.lists(
    st.sampled_from([0.0, 0.0, 1.5, -1.0, 1e-300]),
    min_size=k * k, max_size=k * k).map(
        lambda cells: np.array(cells).reshape(k, k))))
def test_irreducibility_matches_a_graph_search(lam):
    assert (irreducibility_check(lam) == _reaches_all_both_ways(lam)
            == _closure_is_full(lam))


@pytest.mark.parametrize("k", [2, 3, 10, 64, 100, 300, 600, 1000])
def test_irreducibility_of_long_cycles(k):
    # a cycle through all k types is strongly connected; cut at any edge it
    # is a one-way path, which the forward or the backward search misses
    cycle = np.roll(np.eye(k), 1, axis=1) - np.eye(k)
    assert irreducibility_check(cycle) and _reaches_all_both_ways(cycle)
    for cut in sorted({0, 1, k // 2, k - 2, k - 1}):
        broken = cycle.copy()
        broken[cut, (cut + 1) % k] = 0.0
        assert not irreducibility_check(broken)
        assert not _reaches_all_both_ways(broken)


@property_settings
@given(st.integers(0, 2 ** 32 - 1))
def test_compiled_irreducibility_matches_the_intensity_matrix(seed):
    spec = random_conservative_spec(np.random.default_rng(seed))
    assert spec.irreducible == irreducibility_check(intensity_matrix(spec))


# --- Perron data ------------------------------------------------------------------

@property_settings
@given(irreducible_specs)
def test_phi_at_zero_is_stationary_for_every_model(spec):
    sd = perron_eigen(spec, 0.0)
    assert abs(sd.phi) < 1e-12
    assert np.max(np.abs(sd.u @ intensity_matrix(spec))) < 1e-12
    assert np.max(np.abs(sd.v - 1.0)) < 1e-12


@property_settings
@given(irreducible_specs, st.sampled_from([1e-2, 200.0, 1e4]),
       st.floats(-0.5, 3.0))
def test_rate_scaling_is_an_exact_symmetry(spec, c, th):
    # rates times c: the whole matrix exponent is c Phi(theta)
    base = perron_eigen(spec, th, with_derivatives=True)
    scaled = perron_eigen(_scaled(spec, c), th, with_derivatives=True)
    for a, b in ((base.phi, scaled.phi), (base.phi_d1, scaled.phi_d1),
                 (base.phi_d2, scaled.phi_d2)):
        assert b == pytest.approx(c * a, rel=1e-9, abs=c * 1e-12)
    assert scaled.u == pytest.approx(base.u, rel=1e-9, abs=1e-12)
    assert scaled.v == pytest.approx(base.v, rel=1e-9, abs=1e-12)
    assert theta_bar(_scaled(spec, c))[0] == pytest.approx(
        theta_bar(spec)[0], abs=1e-9)


def test_phi_at_zero_is_stationary(spec_c):
    sd = perron_eigen(spec_c, 0.0)
    assert abs(sd.phi) < 1e-10
    assert np.allclose(sd.v, 1.0, atol=1e-10)
    assert np.max(np.abs(sd.u @ intensity_matrix(spec_c))) < 1e-10
    assert sd.u == pytest.approx([5 / 9, 4 / 9], abs=1e-10)


def test_perron_spec_b_closed_form(spec_b):
    for th in (0.3, 1.0, 2.5):
        sd = perron_eigen(spec_b, th)
        assert sd.phi == pytest.approx(1 - 2 ** (-th), abs=1e-12)
        assert sd.u == pytest.approx([0.5, 0.5], abs=1e-10)
        assert sd.v == pytest.approx([1.0, 1.0], abs=1e-10)


def _phi_2x2_oracle(spec, th):
    """Quadratic-formula eigenvalue of minimal real part, no iteration."""
    m = bernstein_matrix(spec, th)
    half_tr = 0.5 * (m[0, 0] + m[1, 1])
    disc = math.sqrt(0.25 * (m[0, 0] - m[1, 1]) ** 2 + m[0, 1] * m[1, 0])
    return half_tr - disc


def test_perron_spec_c_against_quadratic_oracle(spec_c):
    for th in (-0.5, 0.0, 1.0, 2.0, 4.0):
        sd = perron_eigen(spec_c, th)
        assert sd.phi == pytest.approx(_phi_2x2_oracle(spec_c, th), abs=1e-10)


def test_spectral_data_invariants(spec_c):
    for th in np.linspace(-0.8, 30.0, 40):
        sd = perron_eigen(spec_c, float(th))
        assert sd.u.sum() == pytest.approx(1.0, abs=1e-10)
        assert sd.u @ sd.v == pytest.approx(1.0, abs=1e-10)
        assert sd.u.min() > 0 and sd.v.min() > 0
        a = semigroup(spec_c, float(th))
        r = math.exp(-sd.phi)
        assert np.max(np.abs(sd.u @ a - r * sd.u)) < 1e-9
        assert np.max(np.abs(a @ sd.v - r * sd.v)) < 1e-9


def test_random_specs_match_dense_eigensolver():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 15:
        spec = random_conservative_spec(rng)
        if not irreducibility_check(intensity_matrix(spec)):
            continue
        th = float(rng.uniform(-0.5, 3.0))
        sd = perron_eigen(spec, th)
        w = np.linalg.eigvals(bernstein_matrix(spec, th))
        assert sd.phi == pytest.approx(float(np.min(w.real)), abs=1e-9)
        checked += 1


# --- derivatives -------------------------------------------------------------------

def test_derivatives_scalar_closed_form(spec_a, spec_b):
    for spec in (spec_a, spec_b):
        sd = perron_eigen(spec, 0.0, with_derivatives=True)
        assert sd.phi_d1 == pytest.approx(LN2, abs=1e-10)
        assert sd.phi_d2 == pytest.approx(-(LN2 ** 2), abs=1e-10)
        sd = perron_eigen(spec, 1.0, with_derivatives=True)
        assert sd.phi_d1 == pytest.approx(0.5 * LN2, abs=1e-10)
        assert sd.phi_d2 == pytest.approx(-0.5 * LN2 ** 2, abs=1e-10)


@property_settings
@given(irreducible_specs, st.floats(-0.5, 3.0))
def test_derivatives_match_differences(spec, th):
    sd = perron_eigen(spec, th, with_derivatives=True)
    d1 = _five_point(lambda t: perron_eigen(spec, t).phi, th, 1e-3)
    # at step 1e-3 the stencil's truncation error on phi'' reaches 6e-9 on
    # some random models; at 1e-4 it stays below 2e-11
    d2 = _five_point(lambda t: perron_eigen(
        spec, t, with_derivatives=True).phi_d1, th, 1e-4)
    assert sd.phi_d1 == pytest.approx(d1, abs=1e-9)
    assert sd.phi_d2 == pytest.approx(d2, abs=1e-9)


def test_derivative_agrees_with_stationary_drift(spec_c):
    # phi'(0) equals the stationary mean of the log-mass jump rate
    u = perron_eigen(spec_c, 0.0).u
    drift = 0.0
    for i in (1, 2):
        for atom in spec_c.atoms(i):
            drift += u[i - 1] * atom.weight * sum(
                -m * math.log(m) for m, _ in atom.outcome.parts)
    sd = perron_eigen(spec_c, 0.0, with_derivatives=True)
    assert sd.phi_d1 == pytest.approx(drift, abs=1e-10)


def test_non_finite_derivatives_raise_no_convergence(spec_c):
    # at theta = 350.75 u and v underflow and phi'' comes out as nan, while
    # the plain solve still succeeds; numpy's warning is kept quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(perron_eigen(spec_c, 350.75).phi)
        with pytest.raises(NoConvergence, match="phi''"):
            perron_eigen(spec_c, 350.75, with_derivatives=True)


# --- shape of phi ---------------------------------------------------------------------

def _phi_fn(spec):
    def f(th):
        return perron_eigen(spec, th).phi
    return f


def test_phi_concave_increasing(spec_c):
    phi = _phi_fn(spec_c)
    grid = np.linspace(-0.8, 20.0, 60)
    vals = np.array([phi(float(t)) for t in grid])
    d1 = np.diff(vals)
    d2 = np.diff(vals, 2)
    assert np.all(d1 >= -1e-10)
    assert np.all(d2 <= 1e-8)


def test_phi_sublinear(spec_c):
    phi = _phi_fn(spec_c)
    ratios = [phi(th) / th for th in (10.0, 20.0, 40.0)]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.05


# --- critical exponent ------------------------------------------------------------------

def _theta_bar_oracle_spec_a():
    """Bisection on 1 - 2^-t = (t + 1) 2^-t ln 2, independent of the library."""
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


def test_theta_bar_spec_a(spec_a, spec_b):
    oracle = _theta_bar_oracle_spec_a()
    tb, d1 = theta_bar(spec_a)
    assert tb == pytest.approx(oracle, abs=1e-9)
    assert d1 == pytest.approx(2 ** (-oracle) * LN2, abs=1e-10)
    # SPEC-B shares phi, hence the critical exponent
    tb_b, _ = theta_bar(spec_b)
    assert tb_b == pytest.approx(tb, abs=1e-5)


def test_theta_bar_fixed_point_residual(spec_a, spec_b, spec_c):
    for spec in (spec_a, spec_b, spec_c):
        tb, d1 = theta_bar(spec)
        phi = perron_eigen(spec, tb).phi
        assert abs(phi / (tb + 1.0) - d1) < 1e-6


def test_theta_bar_bracket_edge(spec_a, monkeypatch):
    # theta_bar = 1.42 lies above this bracket ...
    monkeypatch.setattr(spectral, "THETA_BAR_BRACKET", (0.0, 1.0))
    with pytest.raises(MaximumAtBracketEdge):
        theta_bar(spec_a)
    # ... and below this one, where h > 0 already at lo + THETA_GUARD
    monkeypatch.setattr(spectral, "THETA_BAR_BRACKET", (2.0, 50.0))
    with pytest.raises(MaximumAtBracketEdge):
        theta_bar(spec_a)
    # a bracket narrower than the guard holds no root
    monkeypatch.setattr(spectral, "THETA_BAR_BRACKET", (0.0, THETA_GUARD / 2))
    with pytest.raises(MaximumAtBracketEdge):
        theta_bar(spec_a)


def test_theta_bar_takes_few_perron_solves(spec_a, spec_b, spec_c,
                                           monkeypatch):
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[1])
        return perron_eigen(*args, **kwargs)

    monkeypatch.setattr(spectral, "perron_eigen", counting)
    for spec in (spec_a, spec_b, spec_c):
        solves.clear()
        theta_bar(spec)
        assert 3 <= len(solves) <= 20


def _scan_theta_bar(spec):
    """Reference theta_bar: a 100-point scan of h over THETA_BAR_BRACKET for
    its sign change, then the same Newton/bisection loop inside the scan
    cell."""
    lo, hi = spectral.THETA_BAR_BRACKET

    def h(th):
        sd = perron_eigen(spec, th, with_derivatives=True)
        return sd.phi - (th + 1.0) * sd.phi_d1, sd

    grid = [float(th) for th in np.linspace(lo + THETA_GUARD, hi, 100)]
    positive = np.array([h(th)[0] > 0 for th in grid])
    changes = np.flatnonzero(positive[1:] != positive[:-1])
    assert len(changes) <= 1, "h changes sign more than once"
    if len(changes) == 0 or positive[0]:
        raise MaximumAtBracketEdge("maximizer at bracket edge")
    a, b = grid[changes[0]], grid[changes[0] + 1]
    th = 0.5 * (a + b)
    for _ in range(100):
        val, sd = h(th)
        if val < 0:
            a = th
        else:
            b = th
        slope = -(th + 1.0) * sd.phi_d2
        newton = th - val / slope if slope > 0 else math.nan
        step = newton if a < newton < b else 0.5 * (a + b)
        if abs(step - th) <= 1e-13 * (1.0 + abs(th)):
            break
        th = step
    return th, sd.phi_d1


@property_settings
@given(irreducible_specs)
def test_h_is_nondecreasing(spec):
    # phi is concave (Kingman 1961), so h = phi - (theta + 1) phi' has
    # h' = -(theta + 1) phi'' >= 0; this guards that in floating point
    hs = []
    for th in np.linspace(-0.9, 30.0, 60):
        sd = perron_eigen(spec, float(th), with_derivatives=True)
        hs.append(sd.phi - (th + 1.0) * sd.phi_d1)
    hs = np.array(hs)
    assert np.all(np.diff(hs) >= -1e-12 * max(1.0, np.max(np.abs(hs))))


@property_settings
@given(irreducible_specs)
def test_theta_bar_matches_the_scan(spec):
    tb, d1 = theta_bar(spec)
    tb_ref, d1_ref = _scan_theta_bar(spec)
    assert tb == pytest.approx(tb_ref, rel=1e-12, abs=0)
    assert d1 == pytest.approx(d1_ref, rel=1e-12, abs=0)


def test_g_unimodal_on_grid(spec_c):
    tb, _ = theta_bar(spec_c)
    phi = _phi_fn(spec_c)
    grid = np.linspace(-0.5, 30.0, 100)
    vals = np.array([phi(float(t)) / (t + 1.0) for t in grid])
    peak = vals.argmax()
    assert abs(grid[peak] - tb) < grid[1] - grid[0] + 1e-9
    assert np.all(np.diff(vals[:peak + 1]) > -1e-12)
    assert np.all(np.diff(vals[peak:]) < 1e-12)
