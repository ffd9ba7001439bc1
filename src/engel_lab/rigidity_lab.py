"""Accessible sets, the integral identity behind the rigidity of vertical
curves, infinitesimal rigidity probes, and the null-variation identity.

D-curves in the Engel-Darboux chart are generated from controls (u, v):

    x' = u,  y' = z u,  z' = w u,  w' = v,

so tangency to the pair of defining 1-forms holds structurally; the long
chart variant replaces w by an angle.  Curves with w = t from the origin land
in the accessible cone y > z^2 / (2w), and the only way to keep y(T) = 0 is
to be the vertical W-curve itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._kernels import _DCURVE_BLOCK, dcurve_rk4
from .errors import DimensionMismatch, NotNull, SingularIntegrand, StepTooLarge, VariationNotDCurve
from .frame_algebra import Section, _rk4_orbits, _time_grid
from .geometry_models import ConformalSurface, unit_tangent_frames


class AccessRegion(Enum):
    APlus = "A+"
    AMinus = "A-"
    AW = "AW"
    Outside = "outside"


def access_regions(points) -> np.ndarray:
    """``AccessRegion`` values of chart points (n, 4) relative to the
    accessible set from the origin.

    The x-coordinate is irrelevant for the open regions; the axis region
    requires x = y = z = 0.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    _, y, z, w = p.T
    with np.errstate(divide="ignore", invalid="ignore"):
        q = z * z / (2.0 * w)
    region = np.full(len(p), AccessRegion.Outside.value)
    region[(w < 0) & (y < q)] = AccessRegion.AMinus.value
    region[(w > 0) & (y > q)] = AccessRegion.APlus.value
    region[np.abs(p[:, :3]).max(axis=1) < 1e-12] = AccessRegion.AW.value
    return region


def accessible_membership(p: np.ndarray) -> AccessRegion:
    """The region of one chart point (see ``access_regions``)."""
    return AccessRegion(access_regions(p)[0])


def boundary_cone_values(points) -> np.ndarray:
    """z^2 - 2 y w of chart points (n, 4): zero on the boundary cone,
    negative strictly inside."""
    _, y, z, w = np.atleast_2d(np.asarray(points, dtype=float)).T
    return z * z - 2.0 * y * w


def boundary_cone_value(p: np.ndarray) -> float:
    """z^2 - 2 y w of one chart point."""
    return float(boundary_cone_values(p)[0])


# ---------------------------------------------------------------------------
# D-curves
# ---------------------------------------------------------------------------

@dataclass
class DCurve:
    times: np.ndarray
    points: np.ndarray            # (n, 4): (x, y, z, w) or (x, y, z, theta)
    long_chart: bool = False

    def tangency_residual(self) -> float:
        """Midpoint residuals of the defining 1-forms along the samples."""
        p = self.points
        dx, dy, dz, _ = np.diff(p, axis=0).T
        zm, wm = 0.5 * (p[:-1, 2:] + p[1:, 2:]).T      # wm is the angle in the long chart
        r1 = dy - zm * dx
        r2 = np.cos(wm) * dz - np.sin(wm) * dx if self.long_chart else dz - wm * dx
        return float(max(np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0)))


def sample_d_curve(controls, T: float, dt: float,
                   start=(0.0, 0.0, 0.0, 0.0)) -> DCurve:
    """Integrate the control ODE in the standard chart (tangent by construction)."""
    _, tgrid = _time_grid(T, dt)
    U, V = (np.broadcast_to(np.asarray(c(tgrid), dtype=float), tgrid.shape) for c in controls)
    pts = sample_d_curves_batch(U[None], V[None], T, dt, start=np.asarray(start)[None])[0]
    return DCurve(times=tgrid[::2], points=pts)


def sample_d_curves_batch(u_values: np.ndarray, v_values: np.ndarray,
                          T: float, dt: float, start=None,
                          long_chart: bool = False) -> np.ndarray:
    """Integrate the control ODE for every row of the control tables, one row
    per curve on the half-step grid of :func:`_time_grid`, 2n + 1 columns for
    its n steps; a D-curve runs forward, so T > 0 and dt <= T.  Returns the
    paths (batch, n + 1, 4); ``start`` (batch, 4) defaults to the origin."""
    nsteps, tgrid = _time_grid(T, dt)
    if dt > T:
        raise StepTooLarge(f"a D-curve needs 0 < dt <= T, got T={T:g}, dt={dt:g}")
    if u_values.shape != v_values.shape or u_values.shape[1:] != tgrid.shape:
        raise DimensionMismatch(f"control tables {u_values.shape} and {v_values.shape}; "
                                f"T={T:g} and dt={dt:g} need {tgrid.size} columns")
    start = np.zeros((len(u_values), 4)) if start is None else start
    return dcurve_rk4(u_values, v_values, start, T / nsteps, long_chart=long_chart)


# ---------------------------------------------------------------------------
# Inaba's integral identity
# ---------------------------------------------------------------------------

def inaba_identity_check(c: DCurve) -> float:
    """Residual of y(T) = z^2/(2w) |_T + int_0^T z^2 / (2 w^2) dt.

    Requires the w = t parameterization from the origin; the integrand's
    limit at t = 0+ is zero for admissible controls (u = O(t)) and the first
    node uses that limit value.
    """
    t = c.times
    p = c.points
    if abs(p[0, 3]) > 1e-12 or np.abs(p[0, :3]).max() > 1e-12:
        raise SingularIntegrand("identity needs a curve from the origin with w=t")
    if np.abs(p[:, 3] - t).max() > 1e-9:
        raise SingularIntegrand("identity needs the w = t parameterization (v = 1)")
    z = p[:, 2]
    w = p[:, 3]
    ratio = np.zeros_like(z)
    ratio[1:] = z[1:] / w[1:]
    head = slice(1, min(10, len(t)))
    if np.abs(ratio[head]).max(initial=0.0) > 0.1:
        raise SingularIntegrand("z/w does not vanish as t -> 0+")
    integrand = 0.5 * ratio ** 2
    integral = np.trapezoid(integrand, t)
    T = t[-1]
    return float(abs(p[-1, 1] - z[-1] ** 2 / (2.0 * T) - integral))


# ---------------------------------------------------------------------------
# accessible-set and rigidity probes
# ---------------------------------------------------------------------------

_N_MODES = 3            # cosine modes of one random control
_AMPLITUDE = 1.0        # bound of each mode's amplitude
_EPS_GRID = np.array([0.4 / 2 ** k for k in range(8)])    # amplitudes of the eps sweep
_DS = 1e-4              # variations: step in s of the central differences
_DT = 1e-3              # variations: curve step
_TANGENCY_TOL = 1e-6    # largest tangency residual of a deformed D-curve
_NULL_TOL = 1e-8        # null-defect bound, or 1e3 dt^2 where that is larger
# curves per block of rigidity_probe: whole kernel blocks, and a block's
# controls and paths (0.5 and 1 MB at 1,000 steps) stay in cache
_PROBE_BLOCK = 4 * _DCURVE_BLOCK
_IDENTITY_CURVES = 100  # leading probe curves returned in full, for the integral identity


def _control_modes(rng: np.random.Generator):
    """Amplitudes and frequencies (in {1, 2, 3}) of one random control."""
    return rng.uniform(-_AMPLITUDE, _AMPLITUDE, size=_N_MODES), rng.integers(1, 4, size=_N_MODES)


def _control_sums(coeffs: np.ndarray, freqs: np.ndarray, t: np.ndarray,
                  cos_modes: np.ndarray) -> np.ndarray:
    """sum_k (a_k t) cos(pi f_k t) on the 1-D grid ``t``, one row per row of
    the mode amplitudes ``coeffs`` and frequencies ``freqs`` (n, modes);
    ``cos_modes[f - 1]`` is cos(pi f t) on ``t``.  The modes are added in
    order from zero."""
    U = np.zeros((len(coeffs), t.size))
    term = np.empty_like(U)
    for a, f in zip(coeffs.T, freqs.T):
        np.multiply(a[:, None], t, out=term)
        term *= cos_modes[f - 1]
        U += term
    return U


def _cos_modes(t: np.ndarray) -> np.ndarray:
    return np.cos(np.pi * np.arange(1, 4)[:, None] * t)


def random_admissible_controls(rng: np.random.Generator):
    """Smooth u with u(t) = O(t) near zero (and v = 1), for the w = t class."""
    coeffs, freqs = _control_modes(rng)

    def u(t):
        t = np.atleast_1d(t)
        return _control_sums(coeffs[None], freqs[None], t, _cos_modes(t))[0]

    return u, (lambda t: np.ones_like(np.atleast_1d(t), dtype=float))


def _control_block(rng: np.random.Generator, n: int, tgrid: np.ndarray,
                   cos_modes: np.ndarray) -> np.ndarray:
    """u of the next ``n`` ``random_admissible_controls(rng)`` on ``tgrid``,
    one row per curve, from the same draws in the same order and by the same
    sums, so each row equals the closure's values bit for bit."""
    coeffs, freqs = map(np.array, zip(*(_control_modes(rng) for _ in range(n))))
    return _control_sums(coeffs, freqs, tgrid, cos_modes)


def rigidity_probe(T: float = 1.0, n_trials: int = 1000, dt: float = 1e-3,
                   seed: int = 0) -> dict:
    """Two experiments behind the rigidity of W-curves.

    (a) every admissible nontrivial D-curve from the origin ends strictly
    inside the cone (region A+); (b) along the family u = eps sin(pi t),
    |y(T)| = O(eps^2) while sup |z| = O(eps), so forcing y(T) to zero forces
    the curve onto the W-axis.

    The curves of (a) are drawn from ``default_rng(seed)`` and integrated
    ``_PROBE_BLOCK`` at a time, keeping only their endpoints, so memory does
    not grow with ``n_trials``.  ``paths`` holds the first
    ``_IDENTITY_CURVES`` curves of the same seeded sequence in full,
    (_IDENTITY_CURVES, nsteps + 1, 4); when ``n_trials`` is smaller the
    sequence is drawn and integrated that far, and its endpoints past
    ``n_trials`` stay out of (a).  Each curve is integrated once.
    """
    rng = np.random.default_rng(seed)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    nsteps, tgrid = _time_grid(T, dt)
    cos_modes = _cos_modes(tgrid)
    ends = np.empty((n_trials, 4))
    paths = np.empty((_IDENTITY_CURVES, nsteps + 1, 4))
    n = max(n_trials, _IDENTITY_CURVES)
    for lo in range(0, n, _PROBE_BLOCK):
        U = _control_block(rng, min(_PROBE_BLOCK, n - lo), tgrid, cos_modes)
        block = sample_d_curves_batch(U, np.broadcast_to(1.0, U.shape), T, dt)
        e, kept = ends[lo:lo + _PROBE_BLOCK], paths[lo:lo + _PROBE_BLOCK]
        e[:] = block[:len(e), -1]
        kept[:] = block[:len(kept)]
    regions = access_regions(ends).tolist()

    U = _EPS_GRID[:, None] * np.sin(np.pi * tgrid)
    sweep = [{
        "eps": float(eps),
        "abs_yT": float(abs(pts[-1, 1])),
        "sup_z": float(np.abs(pts[:, 2]).max()),
        "cone_value": boundary_cone_value(pts[-1]),
    } for eps, pts in zip(_EPS_GRID, sample_d_curves_batch(U, np.ones_like(U), T, dt))]
    return {
        "n_trials": int(n_trials),
        "T": float(T),
        "regions": {r: regions.count(r) for r in sorted(set(regions))},
        "n_outside_accessible": int(sum(r not in ("A+", "AW") for r in regions)),
        "max_cone_value": float(boundary_cone_values(ends).max()),
        "sweep": sweep,
        "y_over_eps2": [s["abs_yT"] / s["eps"] ** 2 for s in sweep],
        "z_over_eps": [s["sup_z"] / s["eps"] for s in sweep],
        "paths": paths,
    }


# ---------------------------------------------------------------------------
# infinitesimal rigidity (LSF / IWR)
# ---------------------------------------------------------------------------

def bump_profile(eps: float = 1.0):
    """(f, f', f'') with f = (1 - (x/eps)^2)^4 on [-eps, eps], sup |f| = 1."""
    xi = lambda x: np.clip(np.atleast_1d(x) / eps, -1.0, 1.0)
    f = lambda x: (1.0 - xi(x) ** 2) ** 4
    fp = lambda x: -8.0 * xi(x) * (1.0 - xi(x) ** 2) ** 3 / eps
    fpp = lambda x: (-8.0 * (1.0 - xi(x) ** 2) ** 3
                     + 48.0 * xi(x) ** 2 * (1.0 - xi(x) ** 2) ** 2) / eps ** 2

    return f, fp, fpp


def infinitesimal_rigidity_check(kind: str, *, length: float = 4.71238898038469,
                                 perturbation: Callable = None) -> dict:
    """First-order escape of a variation through D-curves from E.

    ``kind == "w_curve"``: the base is the vertical curve (0, 0, 0, theta) in
    the long chart up to ``length``; the variation scales a control
    perturbation by s with the starting end fixed.  The derivative
    d y / d s (0, .) must vanish (IWR), regardless of the projective length.

    ``kind == "transverse"``: the base is the x-axis segment, deformed
    through the 2-jet graphs of s f(x), f the unit bump; |dy/ds| reaches sup |f| (LSF).

    Richardson extrapolation over the central difference in s; residuals of
    the deformed curves are checked against ``_TANGENCY_TOL``.
    """
    if kind == "w_curve":
        g = perturbation if perturbation is not None else (
            lambda t: np.sin(2.0 * np.atleast_1d(t)) + 0.5 * np.cos(3.0 * np.atleast_1d(t)))

        _, thalf = _time_grid(length, _DT)
        tgrid = thalf[::2]
        norm = float(np.abs(np.asarray(g(tgrid), dtype=float)).max())
        if norm == 0.0:
            return {"max_dy_ds": 0.0, "norm": 0.0, "per_time": np.zeros_like(tgrid)}
        # the s^2 term breaks the even parity of y in s, so the central
        # difference genuinely measures a small quantity instead of an
        # exact cancellation; the first-order field is still s*g
        gh = np.broadcast_to(np.asarray(g(thalf), dtype=float), thalf.shape)
        U = np.array([s * gh + s * s * gh ** 2 for s in (_DS, -_DS, _DS / 2, -_DS / 2)])
        paths = sample_d_curves_batch(U, np.ones_like(U), length, _DT, long_chart=True)
        if any(DCurve(tgrid, p, long_chart=True).tangency_residual() > _TANGENCY_TOL
               for p in paths):
            raise VariationNotDCurve("deformed curve left the D-curve class")
        y_p, y_m, y_hp, y_hm = paths[:, :, 1]
        d1 = (y_p - y_m) / (2 * _DS)
        d2 = (y_hp - y_hm) / _DS
        deriv = (4.0 * d2 - d1) / 3.0
        return {"max_dy_ds": float(np.abs(deriv).max()), "norm": norm,
                "per_time": deriv}

    if kind == "transverse":
        f, fp, fpp = bump_profile(1.0)
        xs = _time_grid(2.0, _DT)[1][::2] - 1.0     # the steps of x from -1 to 1
        fx = np.asarray(f(xs), dtype=float)
        norm = float(np.abs(fx).max())

        def curve(s):
            return np.stack([xs, s * fx, s * np.asarray(fp(xs), dtype=float),
                             s * np.asarray(fpp(xs), dtype=float)], axis=1)

        for s in (_DS, -_DS):
            c = DCurve(times=xs, points=curve(s))
            if c.tangency_residual() > max(_TANGENCY_TOL, 10 * abs(s) * _DT ** 2):
                raise VariationNotDCurve("jet-graph variation failed tangency")
        deriv = (curve(_DS)[:, 1] - curve(-_DS)[:, 1]) / (2 * _DS)
        return {"max_dy_ds": float(np.abs(deriv).max()), "norm": norm,
                "per_time": deriv}

    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# null-variation identity
# ---------------------------------------------------------------------------

def null_variation_check(surface: ConformalSurface, p0=(0.0, 0.0, 0.3),
                         T: float = 3.0, eta: Callable = None) -> dict:
    """max_t |dg(beta', dB/ds)| for a variation through null curves.

    The base is a null geodesic of (Sigma x S^1, dh - dtheta^2): a unit-speed
    geodesic on the surface with theta = t.  The variation moves the surface
    curve by s eta(t) and lifts each neighbor as a null curve (theta = metric
    arclength), so the null constraint holds by construction and is
    monitored.  The identity holds because the first term of the variational
    computation dies with the geodesic equation and the second is the
    s-derivative of the (vanishing) null defect.
    """
    ut = unit_tangent_frames(surface)
    X = ut.model.field(Section((1, 0, 0), "X"))
    times, (pts3,), _ = _rk4_orbits(X, np.asarray(p0, dtype=float), T, _DT)
    xy = pts3[:, :2]
    phi = pts3[:, 2]
    lam = surface.lam_dlog_at(xy[:, 0], xy[:, 1])[0]
    beta_dot = (lam ** -0.5)[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    if eta is None:
        eta = lambda t: np.stack(
            [np.sin(np.pi * np.atleast_1d(t) / T),
             1.0 - np.cos(2 * np.pi * np.atleast_1d(t) / T)], axis=-1)
    eta_t = np.atleast_2d(eta(times))
    if np.abs(eta_t[0]).max() > 1e-12:
        raise NotNull("variation must fix the starting point")
    interior = slice(2, -2)

    def theta_of(s):
        curve = xy + s * eta_t
        vel = np.gradient(curve, _DT, axis=0)
        metric = surface.lam_dlog_at(curve[:, 0], curve[:, 1])[0] * (vel ** 2).sum(axis=1)
        speed = np.sqrt(metric)
        theta = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * _DT)])
        # null defect of the lifted curve: dh(B', B') - (theta')^2
        thdot = np.gradient(theta, _DT)
        defect = metric - thdot ** 2
        if np.abs(defect[interior]).max() > max(_NULL_TOL, 1e3 * _DT ** 2):
            raise NotNull("null constraint drifted beyond tolerance")
        return theta

    dtheta_ds = (theta_of(_DS) - theta_of(-_DS)) / (2 * _DS)
    pairing = lam * np.einsum("ni,ni->n", beta_dot, eta_t) - dtheta_ds
    return {
        "t": times,
        "pairing": pairing,
        "residual_max": float(np.abs(pairing[interior]).max()),
    }
