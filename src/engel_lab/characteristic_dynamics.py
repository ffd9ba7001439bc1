"""Cauchy-characteristic dynamics: orbit integration, transported action on
E/W, projective classification of closed orbits, and the global
elliptic/parabolic/hyperbolic type estimate.

Transport convention: along an orbit of the characteristic field W the
2x2 matrix M(t) maps E/W-frame coordinates at the start point to frame
coordinates at the time-t point (the linearized holonomy).  Its generator in
a frame (e1, e2) of E/W is

    M' = A(t) M,   A[:, j] = coordinates of [e_j, W] reduced mod W,

which for the magnetic extension in the frame (Theta, Yt) is the constant
matrix [[0, -kappa(kappa+1)], [1, 0]] and reproduces the closed forms
cos/cosh/unipotent in the rescaled frame.

No decision calls LAPACK or BLAS: the 2x2 algebra of E/W is closed forms on
the four entries, and the growth fits are centred sums.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# closed_form_exp is read from here by the oracles of the tests and benchmarks
from ._kernels import _matmul_planes, closed_form_exp, transport_rk4
from .engel_verify import EngelStructure, line_angle
from .errors import (
    AmbiguousClass,
    ChartExit,
    DegenerateKernel,
    DimensionMismatch,
    FrameDegenerate,
    MonotonicityViolation,
    NonFiniteEvaluation,
    StepTooLarge,
)
from .frame_algebra import _time_grid, frame_coords
from .geometry_models import LorentzExtension
from .serialize import write_csv

_ANGLE_GUARD = np.pi / 2    # largest mod-pi increment of a lifted angle
_CLASS_TOL = 1e-6           # projective classes: band around |tr| = 2, pi multiples, +-I
_MONO_TOL = 1e-12           # smallest angle step of a strictly increasing developing map
_MONO_ULPS = 4              # a developing angle step may fall this many ulps below 0
_CLOSE_EPS = 1e-6           # chart distance of a closed orbit's return


# ---------------------------------------------------------------------------
# traces and holonomy data
# ---------------------------------------------------------------------------

@dataclass
class OrbitTrace:
    """A sampled characteristic orbit with optional E/W transport data.

    ``M`` holds the raw transported matrices (M[0] = I); ``dets`` their
    determinants, one per matrix, required with ``M`` (else
    :class:`DimensionMismatch`); ``angle`` the continuous lifted angle of D/W
    developed in the fiber over the starting point.
    """

    times: np.ndarray
    points: np.ndarray
    M: Optional[np.ndarray] = None
    angle: Optional[np.ndarray] = None
    dets: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # the determinants are exp of the summed Magnus traces, accurate where
        # the algebraic determinant of a large hyperbolic M cancels away
        if self.M is not None and np.shape(self.dets) != (len(self.M),):
            raise DimensionMismatch(f"{len(self.M)} transport matrices need as many "
                                    f"determinants, got shape {np.shape(self.dets)}")

    def normalized_M(self) -> np.ndarray:
        if self.M is None:
            raise FrameDegenerate("orbit has no transport data")
        return self.M / np.sqrt(np.abs(self.dets))[:, None, None]

    def to_csv(self, path) -> None:
        dim = self.points.shape[1]
        cols = ["t"] + [f"p{i}" for i in range(dim)]
        data = [self.times] + [self.points[:, i] for i in range(dim)]
        if self.M is not None:
            cols += ["M11", "M12", "M21", "M22"]
            data += [self.M[:, 0, 0], self.M[:, 0, 1],
                     self.M[:, 1, 0], self.M[:, 1, 1]]
        if self.angle is not None:
            cols += ["angle"]
            data += [self.angle]
        write_csv(path, cols, data)


@dataclass
class HolonomyLift:
    """First-return data: a unimodular matrix plus the lifted rotation."""

    matrix: np.ndarray
    winding: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if not np.isfinite([*m.ravel(), self.winding]).all():
            raise NonFiniteEvaluation("holonomy matrix and winding must be finite")
        d = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if d <= 0:
            raise DegenerateKernel("holonomy matrix must have positive determinant")
        self.matrix = m / np.sqrt(d)
        (a, b), (c, e) = self.matrix
        if abs(a * e - b * c - 1.0) > 1e-9:
            raise DegenerateKernel("determinant normalization failed")
        self.winding = float(self.winding)


@dataclass(frozen=True)
class ProjectiveType:
    """One of the five projective classes of a closed characteristic orbit."""

    kind: str                      # elliptic | parabolic | hyperbolic |
    #                                trans-parabolic | trans-hyperbolic
    length: Optional[float] = None  # elliptic: total lifted rotation
    trace: Optional[float] = None   # (trans-)hyperbolic: |tr|
    n: Optional[int] = None         # trans classes: pi-multiples crossed
    sign: Optional[int] = None      # trans-parabolic: push direction

    def __post_init__(self):
        if self.kind.startswith("trans") and (self.n is None or self.n < 1):
            raise AmbiguousClass("trans classes require n >= 1")
        if self.kind == "elliptic" and self.length is None:
            raise AmbiguousClass("elliptic class requires a length")


# ---------------------------------------------------------------------------
# orbit integration
# ---------------------------------------------------------------------------

def _exit_time(times: np.ndarray, kept: int) -> Optional[float]:
    """t_exit = (kept + 1) h of an orbit that left the chart, else None."""
    n = len(times) - 1
    return None if kept == n else (kept + 1) * (times[-1] / n)


def integrate_orbits(s: EngelStructure, starts: np.ndarray, T: float, dt: float):
    """Integrate the characteristic field from all ``starts`` in one batch.

    Returns the model's ``flow`` of W, (times, points (B, n + 1, dim), steps
    kept per row): a chart orbit stops at its chart exit instead of raising.
    On a Lie model the orbit of a constant section is the straight line t * W
    in exponential coordinates based at the start point.
    """
    return s.model.flow(s.W_section, starts, T, dt)


def integrate_characteristic(s: EngelStructure, p0: np.ndarray, T: float,
                             dt: float) -> OrbitTrace:
    """Integrate the characteristic field from p0 for time T: the one-row
    :func:`integrate_orbits`, raising :class:`ChartExit` at a chart exit."""
    times, pts, kept = integrate_orbits(s, p0, T, dt)
    if (t_exit := _exit_time(times, kept[0])) is not None:
        raise ChartExit(t_exit)
    return OrbitTrace(times, pts[0])


def orbits_within_chart(s: EngelStructure, starts: np.ndarray, T: float,
                        dt: float) -> list[tuple[OrbitTrace, Optional[float]]]:
    """One batch of orbits, each cut back from its chart exit.

    An orbit that left the chart keeps the steps that :func:`_time_grid` gives
    t_cut = max(|t_exit| - 2 dt, 10 dt) signed like T.  Returns (orbit, t_cut)
    per start, t_cut None for an orbit that stayed inside; raises
    :class:`ChartExit` if an orbit kept fewer steps.
    """
    times, pts, kept = integrate_orbits(s, starts, T, dt)
    out = []
    for p, k in zip(pts, kept):
        t_exit, t_cut, n = _exit_time(times, k), None, len(times) - 1
        if t_exit is not None:
            t_cut = np.copysign(max(abs(t_exit) - 2 * dt, 10 * dt), t_exit)
            n = _time_grid(t_cut, dt)[0]
            if n > k:
                raise ChartExit(t_exit)
        out.append((OrbitTrace(times[:n + 1], p[:n + 1]), t_cut))
    return out


def two_sided_orbit(s: EngelStructure, p0: np.ndarray, T: float,
                    dt: float) -> OrbitTrace:
    """Orbit of total length T centered at p0, for a p0 mid-chart whose
    one-sided orbit of the full length would leave: the one-sided orbits
    of -T/2 and T/2 joined at p0.  The backward half runs first, so its
    chart exit is the one reported."""
    back = integrate_characteristic(s, p0, -T / 2.0, dt)
    fwd = integrate_characteristic(s, p0, T / 2.0, dt)
    return OrbitTrace(np.concatenate([back.times[::-1], fwd.times[1:]]),
                      np.concatenate([back.points[::-1], fwd.points[1:]]))


# ---------------------------------------------------------------------------
# transport of E/W
# ---------------------------------------------------------------------------

def transport_generator(s: EngelStructure, pts: np.ndarray = None) -> np.ndarray:
    """A(p) with columns = coordinates of [e_j, W] mod W in the frame (e1, e2).

    Batched over points, (n, 2, 2); a Lie model answers one row that
    broadcasts over any points, and without points A itself, (2, 2).  The
    coordinates come from Cramer's rule in the frame (e1, e2, W, transverse)
    of TM.  Raises :class:`FrameDegenerate` when (e1, e2, W) fails to resolve
    the brackets.
    """
    e1, e2 = s.emw_frame
    frame = [e1, e2, s.W_section, s.transverse_section]
    vals = s.model.values(frame, pts)
    br = s.model.brackets(frame[:3], [(2, 0), (2, 1)], pts)    # [W, e1] and [W, e2]
    coef = frame_coords(vals, br, "E/W frame lost rank along the orbit")
    # the transverse part of a bracket is the part outside E
    outside = np.abs(coef[:, :, 3]) * np.linalg.norm(vals[:, 3], axis=-1)[:, None]
    if np.any(outside / (np.linalg.norm(br, axis=-1) + 1.0) > 1e-5):
        raise FrameDegenerate("[W, E/W frame] does not lie in E along the orbit")
    A = -np.swapaxes(coef[:, :, :2], 1, 2)
    return A[0] if pts is None else A


def _dw_coords(s: EngelStructure, pts: np.ndarray) -> np.ndarray:
    """Coordinates of the line D/W in the E/W frame at each point, (n, 2): of
    the two D sections, the one with the larger E/W component."""
    e1, e2 = s.emw_frame
    vals = s.model.values([e1, e2, s.W_section, s.transverse_section, *s.D_span], pts)
    coef = frame_coords(vals[:, :4], vals[:, 4:], "E/W frame lost rank along the orbit")
    c0, c1 = coef[:, 0, :2], coef[:, 1, :2]
    pick = np.linalg.norm(c0, axis=1) >= np.linalg.norm(c1, axis=1)
    return np.where(pick[:, None], c0, c1)


def lift_angle_mod_pi(raw: np.ndarray) -> np.ndarray:
    """Continuous lift of a mod-pi angle sequence; increments must stay
    below ``_ANGLE_GUARD`` (step-size check)."""
    raw = np.asarray(raw, dtype=float)
    if not np.isfinite(raw).all():
        raise NonFiniteEvaluation(f"angle {np.argmin(np.isfinite(raw))} is NaN or inf")
    inc = np.mod(np.diff(raw) + np.pi / 2, np.pi) - np.pi / 2
    if np.any(np.abs(inc) > _ANGLE_GUARD - 1e-9):
        raise StepTooLarge("angle increment exceeded the continuity guard")
    out = np.empty_like(raw)
    out[0] = raw[0]
    out[1:] = raw[0] + np.cumsum(inc)
    return out


def _pullback_angle(M: np.ndarray, dets: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Angle in (-pi/2, pi/2] of each line d (n, 2) pulled back by M (n, 2, 2)
    of determinant ``dets`` (n,): adj(M) d / det M, which is M^{-1} d.  The
    cut is the vertical, so a line along the first frame vector reads 0
    whatever the sign of a rounding-size second entry."""
    adj = M[:, [[1, 0], [1, 0]], [[1, 1], [0, 0]]] * [[1.0, -1.0], [-1.0, 1.0]]
    u = np.einsum("nij,nj->ni", adj, d) / dets[:, None]
    with np.errstate(divide="ignore"):
        return np.where(u[:, 0] == 0, np.pi / 2, np.arctan(u[:, 1] / u[:, 0]))


def transport_EmodW(s: EngelStructure, orbit: OrbitTrace,
                    angles: bool = True) -> OrbitTrace:
    """Solve M' = A(t) M along the orbit and track the lifted D/W angle.

    A(t) is sampled at the stored points and at the step midpoints, which
    ``model.flow`` of W regenerates by one half-length step from every stored
    point (a midpoint outside the padded chart box reads NaN and raises
    :class:`NonFiniteEvaluation`), and M is built from 4th-order Magnus
    steps (``_kernels.transport_rk4``).  The D/W line at each stored point is
    pulled back into the fiber over the start by :func:`_pullback_angle`.
    ``angles=False`` skips the developing-angle pullback (the inverse
    transport loses all precision once a hyperbolic M(t) has condition
    number near 1/eps, and the global-type estimator does not need it).
    Raises :class:`NonFiniteEvaluation` at the first t where M or det M
    leaves the finite floats.
    """
    times = orbit.times
    dt_signed = times[1] - times[0]
    n = len(times) - 1

    # midpoint stage positions: one flow step of half length from every
    # stored point, all points as one batch
    pts = s.model.wrap(orbit.points)
    h = dt_signed / 2.0
    _, sub, _ = s.model.flow(s.W_section, pts[:-1], h, abs(h))
    pts_half = np.empty((2 * n + 1, s.model.dim))
    pts_half[0::2] = pts
    pts_half[1::2] = sub[:, 1]
    A_half = np.broadcast_to(transport_generator(s, pts_half), (2 * n + 1, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):     # reported below
        M, dets = transport_rk4(A_half, dt_signed)
    if not (ok := np.isfinite(M).all(axis=(1, 2)) & (dets > 0) & (dets < np.inf)).all():
        raise NonFiniteEvaluation(f"E/W transport M or det M leaves the finite floats "
                                  f"at t = {times[np.argmin(ok)]:.6g}")
    angle = lift_angle_mod_pi(_pullback_angle(M, dets, _dw_coords(s, pts))) if angles else None
    return OrbitTrace(times=times, points=orbit.points, M=M, angle=angle,
                      dets=dets, meta=dict(orbit.meta))


# ---------------------------------------------------------------------------
# closed orbits and classification
# ---------------------------------------------------------------------------

def closed_orbit_holonomy(s: EngelStructure, p0: np.ndarray, dt: float,
                          t_max: float) -> tuple[HolonomyLift, OrbitTrace]:
    """Holonomy lift of the orbit through p0 at its first return T, from one
    integration to t_max; raises :class:`ChartExit` without a return.

    T is the first local minimum of the wrapped distance to p0 after 10 dt
    whose refined parabola vertex lies within ``_CLOSE_EPS``.
    E/W is transported along the stored steps up to the last sample t_j < T,
    then over one RK4 step of T - t_j; the D/W line at the return is pulled
    back by :func:`_pullback_angle`, as along the orbit.  Returns the lift and
    the transported orbit up to t_j, with T as ``meta["return_time"]``."""
    if not hasattr(s.model, "distance"):
        # a straight-line exponential orbit never returns
        raise NotImplementedError("closed-orbit detection needs a chart model")
    orbit = integrate_characteristic(s, p0, t_max, dt)
    times, d, eps = orbit.times, s.model.distance(orbit.points, p0), _CLOSE_EPS
    h = times[1] - times[0]
    k = np.arange(max(2, int(np.ceil(10 * dt / h))), len(d) - 1)
    # candidate local minima, decided by the refined parabola vertex of the
    # squared distance (exact for a transversal return between samples)
    dm, d0, dp = d[k - 1], d[k], d[k + 1]
    a, b = 0.5 * (dm ** 2 + dp ** 2) - d0 ** 2, 0.5 * (dp ** 2 - dm ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(a > 1e-30, np.clip(-b / (2 * a), -1.0, 1.0), 0.0)
        fmin = np.where(a > 1e-30, np.maximum(d0 ** 2 - b * b / (4 * a), 0.0), d0 ** 2)
    hit = ((d0 <= dm) & (d0 <= dp) & (np.sqrt(fmin) < eps)
           & (d0 <= 2.0 * (np.abs(d0 - dm) + np.abs(dp - d0)) + eps))
    if not hit.any():
        raise ChartExit(t_max, "no return within t_max")
    T = float((times[k] + shift * h)[np.argmax(hit)])

    j = int(np.searchsorted(np.abs(times), abs(T))) - 1     # |t_j| < |T| <= |t_{j + 1}|
    orbit = transport_EmodW(s, OrbitTrace(times[:j + 1], orbit.points[:j + 1]))
    last = transport_EmodW(s, integrate_characteristic(s, orbit.points[j], T - times[j],
                                                       abs(T - times[j])), angles=False)
    M = _matmul_planes(last.normalized_M()[-1], orbit.normalized_M()[-1])
    # the D/W line at the return point, pulled back into the fiber over p0;
    # a det > 0 does not turn the line, so M's, near 1, is passed as 1
    raw = _pullback_angle(M[None], np.ones(1), _dw_coords(s, s.model.wrap(last.points[-1:])))
    winding = float(lift_angle_mod_pi([orbit.angle[-1], *raw])[-1] - orbit.angle[0])
    orbit.meta["return_time"] = T
    if winding < 0:
        # orient so D/W rotates positively: flip the second frame leg
        M, winding = M * [[1.0, -1.0], [-1.0, 1.0]], -winding
    return HolonomyLift(matrix=M, winding=winding), orbit


def classify_projective(h: HolonomyLift) -> ProjectiveType:
    """Classify a first-return holonomy into the five projective classes.

    Trace against the winding of the lifted developing angle: a lifted fixed
    point exists exactly when the winding stays inside (0, pi).  Boundary
    cases (trace within ``_CLASS_TOL`` of +-2 while the winding sits within
    it of a pi multiple) raise :class:`AmbiguousClass` rather than guessing.
    """
    M, w = h.matrix, h.winding
    if w < 0:
        raise AmbiguousClass("winding must be oriented positively")
    tau = float(np.trace(M))
    near_pi_multiple = abs(w - np.pi * round(w / np.pi)) <= _CLASS_TOL
    near_band = abs(abs(tau) - 2.0) <= _CLASS_TOL
    is_identity = min(np.abs(M - np.eye(2)).max(), np.abs(M + np.eye(2)).max()) <= _CLASS_TOL

    if is_identity:
        return ProjectiveType(kind="elliptic", length=w)
    if near_band and near_pi_multiple:
        raise AmbiguousClass(
            f"|tr|={abs(tau):.9g} within {_CLASS_TOL:g} of 2 and winding {w:.9g} "
            f"within {_CLASS_TOL:g} of a multiple of pi")
    if abs(tau) < 2.0 - _CLASS_TOL:
        return ProjectiveType(kind="elliptic", length=w)
    if abs(tau) > 2.0 + _CLASS_TOL:
        if 0.0 < w < np.pi:
            return ProjectiveType(kind="hyperbolic", trace=abs(tau))
        return ProjectiveType(kind="trans-hyperbolic", n=int(np.floor(w / np.pi)),
                              trace=abs(tau))
    # parabolic band
    sgn = _parabolic_sign(M)
    if 0.0 < w < np.pi:
        return ProjectiveType(kind="parabolic")
    return ProjectiveType(kind="trans-parabolic", n=int(np.floor(w / np.pi)),
                          sign=sgn)


def _parabolic_sign(M: np.ndarray) -> int:
    """Direction in which a parabolic matrix pushes non-fixed lines: with Mn
    = +-M of positive trace, Mn - I = x y^T, y = mu J x (J the quarter turn),
    so det[v, Mn v] = -(y . v)^2 / mu has the sign of Mn10 - Mn01 = -mu |x|^2."""
    Mn = M if np.trace(M) > 0 else -M
    return 1 if Mn[1, 0] - Mn[0, 1] >= 0 else -1


# ---------------------------------------------------------------------------
# developing map
# ---------------------------------------------------------------------------

@dataclass
class DevelopingMap:
    theta: np.ndarray
    length: float
    n_flat: int = 0                   # steps in [-floor, _MONO_TOL]
    first_flat_t: Optional[float] = None


def developing_map(orbit: OrbitTrace) -> DevelopingMap:
    """Lifted angle path of D/W and its projective length.

    Oriented so the angle increases; strictly monotone for any verified
    Engel structure (the developing map is a submersion).  A step below
    -floor, a few ulps of the angle scale max(|theta|, pi), or a NaN step
    raises :class:`MonotonicityViolation`.  Steps in [-floor, _MONO_TOL] are
    flagged, not refused: the steps of an angle converging to an invariant
    line fall to rounding.  Their count and the time at the start of the
    first are ``n_flat`` and ``first_flat_t``.
    """
    if orbit.angle is None:
        raise FrameDegenerate("orbit has no transport data")
    theta = orbit.angle.copy()
    if theta[-1] < theta[0]:
        theta = -theta
    d = np.diff(theta)
    floor = _MONO_ULPS * np.spacing(max(np.abs(theta).max(), np.pi))
    if not np.all(d >= -floor):      # a NaN step or angle is refused too
        raise MonotonicityViolation(
            f"developing angle decreases (min step {d.min():.3e}, floor {floor:.1e})")
    flat = np.flatnonzero(d <= _MONO_TOL)
    return DevelopingMap(theta=theta, length=float(theta[-1] - theta[0]), n_flat=flat.size,
                         first_flat_t=float(orbit.times[flat[0]]) if flat.size else None)


# ---------------------------------------------------------------------------
# global type estimation
# ---------------------------------------------------------------------------

_RISE_TOL = 1e-8          # a sigma1 rise above rounding (bounded transport drifts ~1e-11)
_C_MIN = 0.05             # exponential growth slope
_R2_MIN = 0.99            # fit quality for growth laws
_DISTORTION_BOUND = 1e3   # largest sigma1^2 of an elliptic orbit
_LINE_ANGLE_TOL = 1e-3    # eigen-directions closer than this are one line
_CROSS_EPS = 1e-3         # min D/W distance to an invariant line
_ZERO_ENTRY = 4 * np.finfo(float).eps    # a unit line's entry that reads as 0 in its sign


@dataclass
class GlobalTypeEstimate:
    kind: str                    # elliptic | parabolic | hyperbolic | unknown
    genuine: Optional[bool]
    evidence: dict

    def label(self) -> str:
        if self.kind in ("parabolic", "hyperbolic") and self.genuine is not None:
            return f"{self.kind.capitalize()} ({'genuine' if self.genuine else 'trans'})"
        return self.kind.capitalize()


def _linear_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and R^2 of y against t, from centred sums."""
    with np.errstate(over="ignore", invalid="ignore"):     # reported below
        tc, yc = t - t.mean(), y - y.mean()
        slope = float(np.sum(tc * yc) / np.sum(tc * tc))
        ss_res, ss_tot = float(np.sum((yc - slope * tc) ** 2)), float(np.sum(yc * yc))
    if not np.isfinite([slope, ss_res, ss_tot]).all():
        raise NonFiniteEvaluation(f"growth fit up to t = {t.max():.6g} leaves the finite floats")
    return slope, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _sigma1(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each 2x2 matrix of a stack (..., 2, 2): the
    moduli of its conformal and anticonformal parts, from halved entries."""
    (a, b), (c, d) = np.moveaxis(0.5 * M, (-2, -1), (0, 1))
    return np.hypot(a + d, c - b) + np.hypot(a - d, b + c)


def _eigen_lines(M: np.ndarray):
    """(image, plus, minus, rho, spread) of a 2x2 matrix M scaled exactly by a
    power of two: N = M - (tr/2) I has N^2 = rho^2 I, the eigenvalues tr/2 +-
    rho the lines of N +- rho I (rho 0 where rho^2 < 0), ``image`` that of N,
    each the larger column (the first on a tie) as a unit vector whose first
    entry is positive, or whose second is where the first is within 4 ulps of
    0, so a line at rounding distance from the vertical has one sign.
    rho is in M's scale, signed like rho^2; spread = sqrt|rho^2| / sigma1(N)."""
    k = int(np.frexp(np.abs(M).max())[1])
    (a, b), (c, d) = np.ldexp(M, -k)
    p = 0.5 * (a - d)
    N, rho2 = np.array([[p, b], [c, -p]]), p * p + b * c
    rho, lines = np.sqrt(max(rho2, 0.0)) * np.eye(2), []
    for X in (N, N + rho, N - rho):
        v = X[:, np.argmax(norms := np.hypot(*X))] / norms.max()
        lines.append(-v if (v[1] if abs(v[0]) <= _ZERO_ENTRY else v[0]) < 0 else v)
    return (*lines, float(np.copysign(np.ldexp(np.sqrt(abs(rho2)), k), rho2)),
            float(np.sqrt(abs(rho2)) / _sigma1(N)))


def _invariant_lines(Ms: Sequence[np.ndarray], angle_tol: float):
    """Common real eigen-directions of the transported matrices, as
    (lines, None), or (None, the reason there are none)."""
    lines = []
    for M in Ms:
        _, *pair, rho, _ = _eigen_lines(M)
        if -rho > 1e-9:
            return None, f"complex eigenvalues (|imag| {-rho:.3g})"
        if float(line_angle(*pair)[0]) <= angle_tol:
            # the gap itself is rounding noise; the threshold reads the same every run
            return None, f"repeated eigen-direction (within {angle_tol:g} rad)"
        lines.append(pair)
    for k in range(2):
        for lk in lines[:-1]:
            if (angle := float(line_angle(lk[k], lines[-1][k])[0])) > angle_tol:
                return None, f"eigen-direction {k} moves by {angle:.3g} rad along the orbit"
    return lines[-1], None


def _parabolic_line(M: np.ndarray, angle_tol: float):
    """Invariant line of a near-parabolic matrix as ([line], None), or (None,
    the reason): the image of N = M - (tr/2) I, well conditioned where the
    eigenvectors of M move like the square root of the trace error.  Past a
    spread sqrt|N^2| / |N| of ``angle_tol``, M has no single invariant line."""
    image, _, _, _, spread = _eigen_lines(M)
    if spread > angle_tol:
        return None, f"not unipotent: sqrt|N^2|/|N| = {spread:.3g}"
    return [image], None


def estimate_global_type(s: EngelStructure, n_orbits: int = 5,
                         T_max: float = 20.0, dt: float = 1e-2) -> GlobalTypeEstimate:
    """Finite-sample estimate of the elliptic/parabolic/hyperbolic type.

    Per orbit: while the top singular value sigma1 of the det-normalized
    transport grows, fit its log (exponential growth: hyperbolic) and sigma1
    itself (linear shear: parabolic) against the elapsed time |t|, so a
    negative ``T_max`` reads like a positive one; otherwise check that the
    conformal distortion sigma1^2 stays bounded (elliptic).  Genuine vs
    trans is decided by whether the D/W line meets the detected invariant
    line fields along the samples.
    Conflicting verdicts return ``unknown`` with the evidence attached.  All
    start points are integrated in one batch, and an orbit that leaves the
    chart is cut back from its exit by :func:`orbits_within_chart`; a cut
    orbit whose sigma1 still rises below the growth floor is ``unknown``,
    not elliptic.  A sigma1^2 past the largest float is an infinite
    distortion, and the linear law is fitted to sigma1 scaled by a power of
    two; where a growth-fit statistic still leaves the finite floats it
    raises :class:`NonFiniteEvaluation`, not a verdict.
    """
    if n_orbits < 1:
        raise ValueError(f"n_orbits must be >= 1, got {n_orbits}")
    model = s.model
    mid = model.point(0.5)
    # keep margins; a Lie model has one start, its base point
    starts = mid + 0.5 * (model.sample(n_orbits, skip=300) - mid)
    verdicts, evidence = [], []
    for orbit, t_cut in orbits_within_chart(s, starts, T_max, dt):
        orbit = transport_EmodW(s, orbit, angles=False)
        n = len(orbit.times)
        sel = np.unique(np.linspace(n // 4, n - 1, 24).astype(int))
        Mn = orbit.normalized_M()[sel]
        tsel = np.abs(orbit.times[sel])    # elapsed time: a backward orbit grows too
        sigma1 = _sigma1(Mn)
        # |det Mn| = 1, so sigma1 / sigma2 = sigma1^2; the smaller singular
        # value itself drowns in rounding once sigma1 passes about 1e8.  Past
        # the largest float the distortion is inf, which is not elliptic
        with np.errstate(over="ignore"):
            distortion = float(np.max(sigma1 ** 2))
        monotone = float(np.mean(np.diff(sigma1) >= -1e-12)) if len(sigma1) > 1 else 1.0
        growing = (sigma1[-1] > 1.3 and sigma1[-1] >= 0.95 * sigma1.max()
                   and monotone > 0.9)
        # the growth laws decide only growing orbits; on a flat sigma1 they
        # would fit rounding noise
        slope = r2_exp = lin_slope = lin_r2 = None
        if growing:
            slope, r2_exp = _linear_fit(tsel, np.log(sigma1))
            # sigma1 scaled by a power of two below 1, exactly, so the fit's
            # squares stay finite however far sigma1 has grown
            k = int(np.frexp(sigma1.max())[1])
            lin_slope, lin_r2 = _linear_fit(tsel, np.ldexp(sigma1, -k))
            lin_slope = float(np.ldexp(lin_slope, k))
        ev = {"slope": slope, "r2_exp": r2_exp, "lin_slope": lin_slope,
              "lin_r2": lin_r2, "monotone_fraction": monotone,
              "max_distortion": distortion,
              "t_end": float(orbit.times[-1])}
        kind, lines, why = "unknown", None, None
        if growing:
            # exponential vs linear growth decided by which law fits better
            if r2_exp >= lin_r2 and slope > _C_MIN and r2_exp > _R2_MIN:
                kind = "hyperbolic"
                lines, why = _invariant_lines([Mn[-1], Mn[len(Mn) // 2]], _LINE_ANGLE_TOL)
            elif lin_r2 > r2_exp and lin_r2 > _R2_MIN:
                kind = "parabolic"
                lines, why = _parabolic_line(Mn[-1], _LINE_ANGLE_TOL)
            else:
                ev["demoted"] = (f"sigma1 grows but fits no growth law: r2_exp = {r2_exp:.4g}, "
                                 f"lin_r2 = {lin_r2:.4g} (need > {_R2_MIN:g}), "
                                 f"slope = {slope:.4g} (exponential needs > {_C_MIN:g})")
        elif distortion < _DISTORTION_BOUND:
            kind = "elliptic"
            # a bounded sigma1 proves nothing if the chart cut it while rising
            if (t_cut is not None and monotone > 0.9 and sigma1[-1] >= sigma1.max()
                    and sigma1[-1] - sigma1[0] > _RISE_TOL):
                ev["demoted"] = (f"sigma1 still rising ({sigma1[0]:.4g} -> {sigma1[-1]:.4g}) "
                                 f"at the chart cut t_cut = {t_cut:.4g}")
                kind = "unknown"
        else:
            ev["demoted"] = (f"sigma1 not growing (monotone fraction {monotone:.4g}) and "
                             f"distortion {distortion:.4g} >= {_DISTORTION_BOUND:g}")
        genuine = None
        if kind in ("parabolic", "hyperbolic") and lines:
            d = _dw_coords(s, model.wrap(orbit.points))
            crossings, min_dist = 0, np.inf
            for ln in lines:
                # signed angular offset of D/W from the invariant line, mod pi
                delta = np.mod(np.arctan2(d[:, 1], d[:, 0])
                               - np.arctan2(ln[1], ln[0]) + np.pi / 2,
                               np.pi) - np.pi / 2
                min_dist = min(min_dist, float(np.abs(delta).min()))
                flips = (np.sign(delta[:-1]) * np.sign(delta[1:]) < 0)
                small = np.abs(np.diff(delta)) < np.pi / 2   # not a wrap artifact
                crossings += int(np.count_nonzero(flips & small))
            if crossings >= 1:
                genuine = False
            elif min_dist > _CROSS_EPS:
                genuine = True
            ev["min_line_distance"] = min_dist
            ev["crossings"] = crossings
            ev["lines"] = [[float(x) for x in ln] for ln in lines]
        elif kind in ("parabolic", "hyperbolic"):
            ev["demoted"] = f"{kind} growth without invariant lines: {why}"
            kind = "unknown"
        ev["kind"] = kind
        ev["genuine"] = genuine
        verdicts.append((kind, genuine))
        evidence.append(ev)

    kinds = {v[0] for v in verdicts}
    genuines = {v[1] for v in verdicts}
    summary = {"orbits": evidence, "thresholds": {
        "c_min": _C_MIN, "r2_min": _R2_MIN, "distortion_bound": _DISTORTION_BOUND,
        "line_angle_tol": _LINE_ANGLE_TOL, "cross_eps": _CROSS_EPS}}
    if len(kinds) == 1 and "unknown" not in kinds:
        kind = kinds.pop()
        genuine = genuines.pop() if len(genuines) == 1 else None
        return GlobalTypeEstimate(kind=kind, genuine=genuine, evidence=summary)
    return GlobalTypeEstimate(kind="unknown", genuine=None, evidence=summary)


# ---------------------------------------------------------------------------
# null-geodesic projection diagnostics
# ---------------------------------------------------------------------------

def _fd1(y: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order central first derivative (second-order at the edges)."""
    out = np.gradient(y, dt, axis=0)
    if len(y) > 4:
        out[2:-2] = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * dt)
    return out


def geodesic_projection_check(ext: LorentzExtension, orbit: OrbitTrace) -> dict:
    """Residuals of the projected-curve identities for magnetic extensions.

    r1 = kappa_g + kappa (the projection has geodesic curvature -kappa) and
    r2 = kappa_g - (Phi' + 1) for the theta-rate Phi' of the natural lift;
    also returns the projected metric speed (should be 1).  The geodesic
    curvature is computed independently by finite differences of the
    projected curve in the conformal chart.
    """
    if ext.kind != "magnetic":
        raise DegenerateKernel("projection identities apply to the magnetic kind")
    surface = ext.base.surface
    t = orbit.times
    dt = float(t[1] - t[0])
    xy = orbit.points[:, :2]
    vel = _fd1(xy, dt)
    acc = _fd1(vel, dt)
    speed2 = (vel ** 2).sum(axis=1)
    psidot = (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed2
    lam, dx, dy = surface.lam_dlog_at(xy[:, 0], xy[:, 1])
    omega = 0.5 * dy * vel[:, 0] - 0.5 * dx * vel[:, 1]
    kappa_g = psidot - omega
    kappa = ext.kappa_at(orbit.points)
    phidot = _fd1(orbit.points[:, 3], dt)
    speed = np.sqrt(lam * speed2)
    r1 = kappa_g + kappa
    r2 = kappa_g - (phidot + 1.0)
    trim = slice(4, -4) if len(t) > 12 else slice(None)
    return {
        "t": t, "kappa_g": kappa_g, "r1": r1, "r2": r2, "speed": speed,
        "max_r1": float(np.abs(r1[trim]).max()),
        "max_r2": float(np.abs(r2[trim]).max()),
        "max_speed_error": float(np.abs(speed[trim] - 1.0).max()),
    }
