import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifrag import (
    DislocationAtom,
    FragmentationSpec,
    bernstein_matrix,
    build_typed_mass_partition,
    fragmentation_spec,
    intensity_matrix,
    jump_sizes,
    map_characteristics,
    validate_spec,
)
from multifrag.errors import NotConservative, SpecValidationError, ThetaOutOfDomain
from multifrag.measures import THETA_LOWER, bernstein_matrices
from conftest import random_conservative_spec

LN2 = math.log(2.0)

random_specs = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_conservative_spec(np.random.default_rng(seed)))
property_settings = settings(max_examples=25, deadline=None, derandomize=True)


# --- validation -----------------------------------------------------------------

def test_reference_specs_validate(spec_a, spec_b, spec_c):
    for spec in (spec_a, spec_b, spec_c):
        assert validate_spec(spec) is spec
        assert spec.conservative


def test_atom_at_unit_rejected():
    with pytest.raises(SpecValidationError) as err:
        fragmentation_spec(2, {1: [(1.0, [(1.0, 1)])],
                               2: [(1.0, [(0.5, 1), (0.5, 1)])]})
    assert "AtomAtUnit" in err.value.codes()
    # the unit state of a *different* type is a legitimate type switch
    spec = fragmentation_spec(2, {1: [(1.0, [(1.0, 2)])],
                                  2: [(1.0, [(0.5, 1), (0.5, 1)])]})
    assert spec.conservative


def test_conservative_spec_with_dust_rejected():
    with pytest.raises(SpecValidationError) as err:
        fragmentation_spec(1, {1: [(1.0, [(0.4, 1), (0.3, 1)])]},
                           conservative=True)
    assert "NonConservativeAtom" in err.value.codes()


def test_erosion_checks():
    with pytest.raises(SpecValidationError) as err:
        fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.5, 1)])]},
                           erosion=[-0.5])
    assert "NegativeErosion" in err.value.codes()
    with pytest.raises(SpecValidationError) as err:
        fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.5, 1)])]},
                           erosion=[0.5], conservative=True)
    assert "ErosionWithConservative" in err.value.codes()


def test_all_violations_reported():
    atoms = {1: [(1.0, [(1.0, 1)]), (-2.0, [(0.5, 1), (0.5, 1)])]}
    with pytest.raises(SpecValidationError) as err:
        fragmentation_spec(1, atoms, erosion=[-1.0])
    codes = err.value.codes()
    assert {"AtomAtUnit", "NonpositiveWeight", "NegativeErosion"} <= set(codes)


def test_outcome_type_beyond_k():
    with pytest.raises(SpecValidationError) as err:
        fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.5, 2)])]})
    assert "TypeOutOfRange" in err.value.codes()


@pytest.mark.parametrize("key", [0, 3, "1"])
def test_dislocation_key_outside_types_rejected(key):
    halves = [(1.0, [(0.5, 1), (0.5, 2)])]
    with pytest.raises(SpecValidationError) as err:
        fragmentation_spec(2, {1: halves, 2: halves, key: halves})
    assert err.value.codes() == ["TypeOutOfRange"]


def _halves(typ=1):
    return build_typed_mass_partition([(0.5, 1), (0.5, typ)])


@pytest.mark.parametrize("build, code", [
    (lambda: fragmentation_spec(0, {}), "TypeCountInvalid"),
    (lambda: fragmentation_spec(2, {}, erosion=[0.0]),
     "ErosionLengthMismatch"),
    (lambda: FragmentationSpec(k=2, erosion=(0.0, 0.0), conservative=True,
                               dislocation=((DislocationAtom(1.0, _halves()),),)),
     "DislocationLengthMismatch"),
    (lambda: fragmentation_spec(2, {1: [DislocationAtom(1.0, _halves(3))]}),
     "TypeOutOfRange"),
], ids=["no-types", "erosion-length", "dislocation-length", "atom-type-3"])
def test_malformed_specs_rejected(build, code):
    with pytest.raises(SpecValidationError) as err:
        build()
    assert code in err.value.codes()


def test_invalid_spec_cannot_be_constructed():
    halves = build_typed_mass_partition([(0.5, 1), (0.5, 1)])
    with pytest.raises(SpecValidationError) as err:
        FragmentationSpec(k=1, erosion=(0.0,), conservative=True,
                          dislocation=((DislocationAtom(-1.0, halves),),))
    assert err.value.codes() == ["NonpositiveWeight"]


# --- intensity matrix -------------------------------------------------------------

def test_intensity_matrix_spec_b(spec_b):
    assert np.allclose(intensity_matrix(spec_b), [[-1, 1], [1, -1]])


def test_intensity_matrix_spec_c(spec_c):
    assert np.allclose(intensity_matrix(spec_c), [[-0.4, 0.4], [0.5, -0.5]])


def test_intensity_rows_sum_to_zero():
    rng = np.random.default_rng(21)
    for _ in range(25):
        spec = random_conservative_spec(rng)
        lam = intensity_matrix(spec)
        assert np.max(np.abs(lam.sum(axis=1))) < 1e-12
        off = lam[~np.eye(spec.k, dtype=bool)]
        assert np.all(off >= 0)


def test_intensity_requires_conservative():
    dusty = fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.2, 1)])]})
    with pytest.raises(NotConservative):
        intensity_matrix(dusty)


# --- matrix exponent ---------------------------------------------------------------

def test_bernstein_scalar_closed_form(spec_a):
    for th in (-0.5, 0.0, 0.7, 2.0, 10.0):
        expected = 1.0 - 2.0 ** (-th)
        assert bernstein_matrix(spec_a, th)[0, 0] == pytest.approx(
            expected, abs=1e-14)


def test_bernstein_matrix_spec_b(spec_b):
    for th in (0.0, 0.5, 1.0, 2.0):
        off = -(2.0 ** (-th))
        assert np.allclose(bernstein_matrix(spec_b, th),
                           [[1.0, off], [off, 1.0]], atol=1e-14)


def test_bernstein_at_zero_is_minus_intensity():
    rng = np.random.default_rng(22)
    for _ in range(25):
        spec = random_conservative_spec(rng)
        phi0 = bernstein_matrix(spec, 0.0)
        assert np.allclose(phi0, -intensity_matrix(spec), atol=1e-13)
        assert np.max(np.abs(phi0 @ np.ones(spec.k))) < 1e-10


def test_bernstein_entries_monotone_in_theta():
    rng = np.random.default_rng(23)
    grid = np.linspace(-0.5, 8.0, 18)
    for _ in range(10):
        spec = random_conservative_spec(rng)
        mats = np.array([bernstein_matrix(spec, th) for th in grid])
        assert np.all(np.diff(mats, axis=0) >= -1e-12)


def test_theta_domain_guard(spec_a):
    assert THETA_LOWER == -1.0
    with pytest.raises(ThetaOutOfDomain):
        bernstein_matrix(spec_a, -1.0)
    with pytest.raises(ThetaOutOfDomain):
        bernstein_matrix(spec_a, -1.5)


# --- Markov additive decomposition ---------------------------------------------------

def test_characteristics_spec_b(spec_b):
    mc = map_characteristics(spec_b)
    # no same-type children: silent subordinators, switches jump by ln 2
    assert mc.subordinator_jumps == ((), ())
    for th in (0.0, 0.5, 2.0):
        assert mc.psi(1, th) == 0.0
    jumps = mc.switch_jumps[(1, 2)]
    assert sum(p for p, _ in jumps) == pytest.approx(1.0)
    assert all(jump == pytest.approx(LN2) for _, jump in jumps)
    # B_12 is the point mass at ln 2
    assert mc.bhat(1, 2, 1.0) == pytest.approx(0.5)


def test_characteristics_spec_c(spec_c):
    mc = map_characteristics(spec_c)
    ((rate, jump),) = mc.subordinator_jumps[0]
    assert rate == pytest.approx(0.6)
    assert jump == pytest.approx(-math.log(0.6))
    ((p, jump12),) = mc.switch_jumps[(1, 2)]
    assert p == pytest.approx(1.0)
    assert jump12 == pytest.approx(-math.log(0.4))
    # type 2: one same-type child (0.5), two switches to type 1 (0.3, 0.2)
    ((rate2, jump2),) = mc.subordinator_jumps[1]
    assert rate2 == pytest.approx(0.5)
    assert jump2 == pytest.approx(LN2)
    pairs21 = sorted(mc.switch_jumps[(2, 1)])
    assert [p for p, _ in pairs21] == pytest.approx([0.4, 0.6])
    assert [j for _, j in pairs21] == pytest.approx(
        [-math.log(0.2), -math.log(0.3)])


def test_reassembly_identity():
    rng = np.random.default_rng(24)
    for _ in range(20):
        spec = random_conservative_spec(rng)
        mc = map_characteristics(spec)
        for th in (-0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
            direct = bernstein_matrix(spec, th)
            rebuilt = mc.bernstein(th)
            assert np.max(np.abs(direct - rebuilt)) < 1e-12


def test_psi_is_a_nonnegative_increasing_exponent(spec_c):
    mc = map_characteristics(spec_c)
    for i in (1, 2):
        assert mc.psi(i, 0.0) == pytest.approx(0.0)
        values = [mc.psi(i, th) for th in np.linspace(0.0, 10.0, 30)]
        assert all(v >= -1e-15 for v in values)
        assert np.all(np.diff(values) >= -1e-15)


def test_jump_sizes(spec_a, spec_c):
    assert jump_sizes(spec_a) == [pytest.approx(LN2)]
    assert len(jump_sizes(spec_c)) == 5


# --- the compiled table against a walk over the atoms -----------------------------

def _walk_matrices(spec, theta):
    """Lambda, Phi(theta), Phi'(theta) and Phi''(theta), atom by atom."""
    lam, phi, d1, d2 = (np.zeros((spec.k, spec.k)) for _ in range(4))
    for i in range(1, spec.k + 1):
        for atom in spec.atoms(i):
            lam[i - 1, i - 1] -= atom.weight
            phi[i - 1, i - 1] += atom.weight
            for mass, typ in atom.outcome.parts:
                lam[i - 1, typ - 1] += atom.weight * mass
                term = atom.weight * mass ** (1.0 + theta)
                log_mass = math.log(mass)
                phi[i - 1, typ - 1] -= term
                d1[i - 1, typ - 1] -= term * log_mass
                d2[i - 1, typ - 1] -= term * log_mass * log_mass
    return lam, phi, d1, d2


def _walk_jumps(spec, lam):
    """Subordinator jumps and switch-jump laws, atom by atom."""
    sub = [[] for _ in range(spec.k)]
    switch = {}
    for i in range(1, spec.k + 1):
        for atom in spec.atoms(i):
            for mass, typ in atom.outcome.parts:
                pair = (atom.weight * mass, -math.log(mass))
                if typ == i:
                    sub[i - 1].append(pair)
                else:
                    switch.setdefault((i, typ), []).append(pair)
    laws = {(i, j): tuple((rate / lam[i - 1, j - 1], jump)
                          for rate, jump in pairs)
            for (i, j), pairs in switch.items()}
    return tuple(map(tuple, sub)), laws


@property_settings
@given(spec=random_specs, theta=st.floats(-0.9, 20.0))
def test_compiled_matrices_match_atom_walk(spec, theta):
    lam, *walk = _walk_matrices(spec, theta)
    assert np.array_equal(intensity_matrix(spec), lam)
    for got, want in zip(bernstein_matrices(spec, theta), walk):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@property_settings
@given(spec=random_specs)
def test_compiled_characteristics_match_atom_walk(spec):
    mc = map_characteristics(spec)
    sub, laws = _walk_jumps(spec, intensity_matrix(spec))
    assert mc.subordinator_jumps == sub
    assert mc.switch_jumps == laws
