"""perron_grid against the one-theta-at-a-time Perron solve it replaced.

The reference below is the per-theta code as it stood before a grid of
thetas was solved in stacks: three cell sums for Phi, Phi' and Phi'', two
eigensolves, four inverse-iteration solves and a group inverse per theta.
The stacked solve must give every theta the same bits, and a failing grid
must raise what the reference raises at its first failing theta, with the
same warnings on the way.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multifrag import fragmentation_spec, perron_eigen, perron_grid, spectral
from multifrag.errors import (
    InvalidArgument,
    NoConvergence,
    NotIrreducible,
    ThetaOutOfDomain,
)
from multifrag.measures import THETA_GUARD, THETA_LOWER


# --- the per-theta reference ---------------------------------------------------

def _cell_sums(spec, atom_terms, row_terms):
    sums = np.zeros(spec.k * spec.k)
    np.add.at(sums, spec.walk_cell,
              np.concatenate([atom_terms, row_terms])[spec.walk])
    return sums.reshape(spec.k, spec.k)


def _bernstein_matrices(spec, theta):
    if not theta > THETA_LOWER + THETA_GUARD:
        raise ThetaOutOfDomain(f"theta = {theta} not above {THETA_LOWER}")
    term = spec.row_weight * spec.row_mass ** (1.0 + theta)
    d1 = term * spec.row_log_mass
    zero = np.zeros_like(spec.atom_weight)
    return (_cell_sums(spec, spec.atom_weight, -term),
            _cell_sums(spec, zero, -d1),
            _cell_sums(spec, zero, -(d1 * spec.row_log_mass)))


def _perron_vector(shifted, vec):
    x = np.abs(vec.real)
    try:
        for _ in range(2):
            x = np.linalg.solve(shifted, x)
            x = x / x.sum()
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Perron inverse iteration: {exc}") from exc
    return x


def reference_perron_eigen(spec, theta, with_derivatives=False):
    """(phi, u, v, phi', phi'') of one theta, the derivatives None unless
    asked for."""
    if not spec.irreducible:
        raise NotIrreducible("tagged type chain is not irreducible")
    m, m1, m2 = _bernstein_matrices(spec, theta)
    k = spec.k
    w, right = np.linalg.eig(m)
    w_t, left = np.linalg.eig(m.T)
    order = np.argsort(w.real)
    phi = float(w[order[0]].real) + 0.0
    scale = max(1.0, float(np.max(np.sum(np.abs(m), axis=1))))
    gap = max(float(w[order[1]].real) - phi if k > 1 else scale,
              1e-12 * scale)
    shifted = m - (phi - 1e-3 * gap) * np.eye(k)
    v = _perron_vector(shifted, right[:, order[0]])
    u = _perron_vector(shifted.T, left[:, np.argmin(w_t.real)])
    v = v / (u @ v)
    if np.any(u <= 0) or np.any(v <= 0):
        raise NoConvergence("Perron vectors not positive")
    resid = max(np.max(np.abs(u @ m - phi * u)),
                np.max(np.abs(m @ v - phi * v)))
    if resid > 1e-9 * scale:
        raise NoConvergence(f"eigen residual {resid} above 1e-9 |Phi|")
    if not with_derivatives:
        return phi, u, v, None, None
    vu = np.outer(v, u)
    try:
        group = np.linalg.inv(m - phi * np.eye(k) + gap * vu) - vu / gap
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"group inverse at theta = {theta}: {exc}") from exc
    with np.errstate(all="ignore"):
        d1 = float(u @ m1 @ v)
        d2 = float(u @ m2 @ v - 2.0 * (u @ m1) @ group @ (m1 @ v))
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise NoConvergence(f"phi' = {d1}, phi'' = {d2} at theta = {theta}")
    return phi, u, v, d1, d2


# --- comparison ----------------------------------------------------------------

def _bits(values):
    return [np.asarray(x, dtype=float).tobytes() if x is not None else None
            for x in values]


def _outcome(solve):
    """(results as bytes, or the error's class and message; the warnings
    issued, as category and message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve()
        except Exception as exc:  # the class and message are compared
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _grid(spec, thetas, with_derivatives):
    return [_bits((sd.phi, sd.u, sd.v, sd.phi_d1, sd.phi_d2))
            for sd in perron_grid(spec, thetas,
                                  with_derivatives=with_derivatives)]


def _reference(spec, thetas, with_derivatives):
    return [_bits(reference_perron_eigen(spec, th, with_derivatives))
            for th in thetas]


def _same(spec, thetas, with_derivatives):
    got = _outcome(lambda: _grid(spec, thetas, with_derivatives))
    want = _outcome(lambda: _reference(spec, thetas, with_derivatives))
    assert got == want


@st.composite
def irreducible_models(draw):
    """1-5 types with 1-3 atoms each of 2-4 children summing to mass 1;
    type i's first atom has a child of type i + 1 (mod k), so the type
    chain is irreducible."""
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dislocation = {}
    for i in range(1, k + 1):
        atoms = []
        for a in range(draw(st.integers(1, 3))):
            n = int(rng.integers(2, 5))
            raw = rng.random(n) + 0.05
            types = rng.integers(1, k + 1, n)
            if a == 0:
                types[0] = i % k + 1
            atoms.append((float(rng.uniform(0.1, 3.0)),
                          list(zip(raw / raw.sum(), types))))
        dislocation[i] = atoms
    return fragmentation_spec(k, dislocation)


# most of the grid where the solve succeeds, some of it where it fails
thetas = st.one_of(st.floats(-0.99, 6.0), st.floats(-1.5, 400.0))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=irreducible_models(), grid=st.lists(thetas, min_size=1,
                                                 max_size=40),
       with_derivatives=st.booleans(),
       stack_cells=st.sampled_from([4, 50, spectral.STACK_CELLS]))
def test_grid_matches_the_per_theta_reference(spec, grid, with_derivatives,
                                              stack_cells):
    # small stacks split the grid, so a failure can sit in a later stack
    with mock.patch.object(spectral, "STACK_CELLS", stack_cells):
        _same(spec, grid, with_derivatives)


@pytest.mark.parametrize("grid", [
    [0.5, -1.0, 1.0],
    [0.25, 1.0, 150.0, 2.0, -1.0],
    [0.0, 0.5, 350.75, 1.0],
    [350.75, -1.0],
])
def test_a_failing_grid_raises_what_its_first_failing_theta_raises(
        spec_c, grid):
    _same(spec_c, grid, True)
    with pytest.raises((ThetaOutOfDomain, NoConvergence)):
        list(perron_grid(spec_c, grid, with_derivatives=True))


def test_the_far_grid_point_fails_without_a_warning(spec_c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence) as got:
            list(perron_grid(spec_c, [0.5, 350.75, 1.0],
                             with_derivatives=True))
        with pytest.raises(NoConvergence) as want:
            reference_perron_eigen(spec_c, 350.75, with_derivatives=True)
    assert str(got.value) == str(want.value)


def test_an_overflowing_grid_warns_as_one_theta_does():
    # near theta = -1 the hundred child terms of the huge atom overflow
    # Phi's off-diagonal cell: numpy warns, and eig refuses the infinity
    spec = fragmentation_spec(2, {1: [(1.7e308, [(0.01, 2)] * 100)],
                                  2: [(1.0, [(0.5, 1), (0.5, 2)])]})
    _same(spec, [0.5, -1 + 1e-8, -1 + 2e-8], True)


@pytest.mark.parametrize("theta", ["1", np.array([0.5, 1.0]), np.array(0.5),
                                   True, None, 1j])
def test_a_theta_that_is_not_a_real_number_is_refused(spec_c, theta):
    with pytest.raises(InvalidArgument):
        perron_eigen(spec_c, theta)
    with pytest.raises(InvalidArgument):
        list(perron_grid(spec_c, [0.5, theta]))


def test_a_nan_theta_is_out_of_the_domain(spec_c):
    with pytest.raises(ThetaOutOfDomain):
        perron_eigen(spec_c, math.nan)


def test_numpy_reals_and_an_empty_grid_are_taken(spec_c):
    assert list(perron_grid(spec_c, [])) == []
    got = perron_grid(spec_c, np.array([0.25, 0.5]), with_derivatives=True)
    assert [sd.phi for sd in got] == [
        reference_perron_eigen(spec_c, th)[0] for th in (0.25, 0.5)]
    assert perron_eigen(spec_c, 1).phi == perron_eigen(spec_c, 1.0).phi
