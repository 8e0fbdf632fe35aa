"""Shared fixtures: the three reference models used throughout the suite.

SPEC-A: one type, rate-1 split into two halves.  phi(theta) = 1 - 2^-theta
in closed form, so everything spectral has a scalar oracle.

SPEC-B: two types, each splitting into two halves of the other type.  Same
phi as SPEC-A but with genuine type alternation.

SPEC-C: two types with asymmetric, non-lattice splits; the workhorse for
statistical checks (stationary law (5/9, 4/9) by hand).
"""

import numpy as np
import pytest
import scipy.linalg

from multifrag import bernstein_matrix, fragmentation_spec

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def spec_a():
    return fragmentation_spec(1, {1: [(1.0, [(0.5, 1), (0.5, 1)])]})


@pytest.fixture(scope="session")
def spec_b():
    return fragmentation_spec(2, {
        1: [(1.0, [(0.5, 2), (0.5, 2)])],
        2: [(1.0, [(0.5, 1), (0.5, 1)])],
    })


@pytest.fixture(scope="session")
def spec_c():
    return fragmentation_spec(2, {
        1: [(1.0, [(0.6, 1), (0.4, 2)])],
        2: [(1.0, [(0.5, 2), (0.3, 1), (0.2, 1)])],
    })


def semigroup(spec, theta, t=1.0):
    """e^(-t Phi(theta)) from scipy's Pade scaling and squaring, an oracle
    independent of the code under test."""
    return scipy.linalg.expm(-t * bernstein_matrix(spec, theta))


def random_conservative_spec(rng: np.random.Generator):
    """Random conservative model: 1-3 types, 1-3 atoms each, 2-4 children."""
    k = int(rng.integers(1, 4))
    dislocation = {}
    for i in range(1, k + 1):
        atoms = []
        for _ in range(int(rng.integers(1, 4))):
            n_children = int(rng.integers(2, 5))
            raw = rng.random(n_children) + 0.05
            masses = raw / raw.sum()
            types = rng.integers(1, k + 1, n_children)
            weight = float(rng.uniform(0.1, 2.0))
            atoms.append((weight, list(zip(masses, types))))
        dislocation[i] = atoms
    return fragmentation_spec(k, dislocation)
