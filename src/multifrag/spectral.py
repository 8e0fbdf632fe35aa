"""Spectral analysis of the matrix exponent.

phi(theta) is the eigenvalue of Phi(theta) with minimal real part.  When the
type chain is irreducible, -Phi(theta) is an irreducible Metzler matrix, so
that eigenvalue is real and simple with entrywise-positive left and right
vectors.  One dense eigensolve of Phi and of its transpose gives phi, u and
v; phi' and phi'' follow in closed form from u, v, Phi', Phi'' and the group
inverse of Phi - phi I (Meyer & Stewart 1988), and theta_bar is the root of
phi - (theta + 1) phi'.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaximumAtBracketEdge, NoConvergence, NotIrreducible
from .measures import (
    FragmentationSpec,
    THETA_GUARD,
    _require_conservative,
    bernstein_matrices,
)

THETA_BAR_BRACKET = (0.0, 50.0)  # where theta_bar searches for the root of h


@dataclass(frozen=True)
class SpectralData:
    """phi(theta) with its normalized left/right Perron vectors.

    u sums to 1, u . v = 1, both entrywise positive.  phi_d1 and phi_d2 are
    filled when perron_eigen is asked for derivatives.
    """

    theta: float
    phi: float
    u: np.ndarray
    v: np.ndarray
    phi_d1: float | None = None
    phi_d2: float | None = None


def _perron_vector(shifted: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Two inverse-iteration steps from a LAPACK eigenvector.

    ``shifted`` is Phi - sigma I with sigma just below phi, a nonsingular
    M-matrix whose inverse is entrywise positive, so the steps restore
    components that LAPACK rounded to zero or to the wrong sign.
    """
    x = np.abs(vec.real)
    try:
        for _ in range(2):
            x = np.linalg.solve(shifted, x)
            x = x / x.sum()
    except np.linalg.LinAlgError as exc:  # the gap at its rounding floor
        raise NoConvergence(f"Perron inverse iteration: {exc}") from exc
    return x


def perron_eigen(spec: FragmentationSpec, theta: float, *,
                 with_derivatives: bool = False) -> SpectralData:
    """phi(theta), u(theta), v(theta) for an irreducible conservative spec.

    With ``with_derivatives`` also phi' = u Phi' v and
    phi'' = u Phi'' v - 2 u Phi' G Phi' v, where G is the group inverse of
    Phi - phi I.
    """
    _require_conservative(spec)
    if not spec.irreducible:
        raise NotIrreducible("tagged type chain is not irreducible")
    m, m1, m2 = bernstein_matrices(spec, theta)
    k = spec.k
    w, right = np.linalg.eig(m)
    w_t, left = np.linalg.eig(m.T)
    order = np.argsort(w.real)
    phi = float(w[order[0]].real) + 0.0
    scale = max(1.0, float(np.max(np.sum(np.abs(m), axis=1))))
    # spectral gap, floored at the rounding level of Phi
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
        return SpectralData(theta=theta, phi=phi, u=u, v=v)
    # group inverse of Phi - phi I; the rank-one term is weighted by the gap
    # so that the inverted matrix stays as well conditioned as the problem
    vu = np.outer(v, u)
    try:
        group = np.linalg.inv(m - phi * np.eye(k) + gap * vu) - vu / gap
    except np.linalg.LinAlgError as exc:  # the gap at its rounding floor
        raise NoConvergence(f"group inverse at theta = {theta}: {exc}") from exc
    with np.errstate(all="ignore"):  # a non-finite value is raised below
        d1 = float(u @ m1 @ v)
        d2 = float(u @ m2 @ v - 2.0 * (u @ m1) @ group @ (m1 @ v))
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise NoConvergence(f"phi' = {d1}, phi'' = {d2} at theta = {theta}")
    return SpectralData(theta=theta, phi=phi, u=u, v=v,
                        phi_d1=d1, phi_d2=d2)


def theta_bar(spec: FragmentationSpec) -> tuple[float, float]:
    """Maximizer of g(theta) = phi(theta) / (theta + 1) and phi' there.

    g' has the sign of -h, where h = phi - (theta + 1) phi'.  phi is concave
    (e^(-t phi) is the Perron root of E_i[e^(-theta S_t), J_t = j], which is
    entrywise log-convex in theta; Kingman 1961), so h' = -(theta + 1) phi''
    >= 0 and h changes sign at most once, from - to +.  h <= 0 at
    lo + THETA_GUARD and h > 0 at the first of lo + 1, lo + 3, lo + 7, ...
    (capped at hi), with (lo, hi) = THETA_BAR_BRACKET, bracket the root;
    Newton steps on h', bisecting when a step leaves the bracket, find it,
    and phi = (theta + 1) phi' is checked to 1e-6.
    """
    lo, hi = THETA_BAR_BRACKET

    def h(th):
        sd = perron_eigen(spec, th, with_derivatives=True)
        return sd.phi - (th + 1.0) * sd.phi_d1, sd

    a, b, width = lo + THETA_GUARD, lo + THETA_GUARD, 1.0
    while (val := h(b)[0]) <= 0 and b < hi:
        a, b, width = b, min(lo + width, hi), 2.0 * width + 1.0
    if val <= 0 or b == a:
        raise MaximumAtBracketEdge("maximizer of phi/(theta+1) at bracket edge")
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
    resid = abs(sd.phi / (th + 1.0) - sd.phi_d1)
    if resid > 1e-6:
        raise NoConvergence(f"fixed-point residual {resid} above 1e-6")
    return th, sd.phi_d1
