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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._kernels import expm2, transport_rk4
from .config import DEFAULTS
from .engel_verify import EngelStructure, line_angle, sample_box
from .errors import (
    AmbiguousClass,
    ChartExit,
    DegenerateKernel,
    FrameDegenerate,
    MonotonicityViolation,
    StepTooLarge,
)
from .frame_algebra import LieModel, Section
from .geometry_models import LorentzExtension
from .serialize import write_csv


# ---------------------------------------------------------------------------
# traces and holonomy data
# ---------------------------------------------------------------------------

@dataclass
class OrbitTrace:
    """A sampled characteristic orbit with optional E/W transport data.

    ``M`` holds the raw transported matrices (M[0] = I); ``dets`` their
    determinants; ``angle`` the continuous lifted angle of D/W developed in
    the fiber over the starting point.
    """

    times: np.ndarray
    points: np.ndarray
    M: Optional[np.ndarray] = None
    angle: Optional[np.ndarray] = None
    dets: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def normalized_M(self) -> np.ndarray:
        if self.M is None:
            raise FrameDegenerate("orbit has no transport data")
        # the stored determinants are exp of the summed Magnus traces, which
        # stay accurate when the matrix entries are too large for the
        # algebraic determinant
        d = self.dets if self.dets is not None else np.linalg.det(self.M)
        return self.M / np.sqrt(np.abs(d))[:, None, None]

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
        d = float(np.linalg.det(m))
        if d <= 0:
            raise DegenerateKernel("holonomy matrix must have positive determinant")
        self.matrix = m / np.sqrt(d)
        if abs(np.linalg.det(self.matrix) - 1.0) > 1e-9:
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

    def label(self) -> str:
        if self.kind == "elliptic":
            return f"Elliptic(length={self.length:.6g})"
        if self.kind == "parabolic":
            return "Parabolic"
        if self.kind == "hyperbolic":
            return f"Hyperbolic(|tr|={self.trace:.6g})"
        if self.kind == "trans-parabolic":
            return f"TransParabolic(n={self.n}, sign={self.sign:+d})"
        return f"TransHyperbolic(n={self.n}, |tr|={self.trace:.6g})"


# ---------------------------------------------------------------------------
# orbit integration
# ---------------------------------------------------------------------------

def _rk4_orbits(f: Callable, starts: np.ndarray, T, dt: float, model=None):
    """Classical RK4 from every row of ``starts`` (B, dim) at once.

    ``T`` is one signed horizon or one per row of equal size; every row takes
    n = round(|T| / dt) steps of T / n.  With a chart ``model`` a row stops at
    the first step whose wrapped point leaves the box.  Returns (times, points
    (B, n + 1, dim), NaN past each row's end, steps kept per row); each row is
    bit-identical to a one-row run.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    times, nsteps = _time_grid(T, dt)
    h = np.broadcast_to(times[..., -1:] / nsteps, (len(starts), 1))
    pts = np.full((len(starts), nsteps + 1, starts.shape[1]), np.nan)
    pts[:, 0] = p = starts
    kept, live = np.full(len(starts), nsteps), np.arange(len(starts))
    for k in range(nsteps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if model is not None:
            inside = model.contains(model.wrap(p), pad=1e-9)
            if not inside.all():
                kept[live[~inside]] = k
                live, p, h = live[inside], p[inside], h[inside]
                if not live.size:
                    break
        pts[live, k + 1] = p
    return times, pts, kept


def _time_grid(T, dt: float):
    T = np.asarray(T, dtype=float)
    nsteps = max(1, int(round(float(np.abs(T).max()) / dt)))
    return np.linspace(0.0, T, nsteps + 1, axis=-1), nsteps


def _rk4_path(f: Callable, p0: np.ndarray, T: float, dt: float):
    """Fixed-step RK4 returning (times, points); supports negative T."""
    times, pts, _ = _rk4_orbits(f, p0, T, dt)
    return times, pts[0]


def _exit_time(times: np.ndarray, kept: int) -> Optional[float]:
    """t_exit = (kept + 1) h of an orbit that left the chart, else None."""
    n = len(times) - 1
    return None if kept == n else (kept + 1) * (times[-1] / n)


def _trace(s: EngelStructure, times, points, dt: float) -> OrbitTrace:
    return OrbitTrace(times=times, points=points,
                      meta={"provenance": s.provenance, "dt": dt, "kind": s.model.kind})


def integrate_orbits(s: EngelStructure, starts: np.ndarray, T, dt: float):
    """Integrate the characteristic field from all ``starts`` in one batch.

    Returns (times, points (B, n + 1, dim), steps kept per row): a chart orbit
    stops at its chart exit instead of raising.  On a Lie model the orbit of a
    constant section is the straight line t * W in exponential coordinates
    based at the start point.
    """
    if dt <= 0:
        raise StepTooLarge("dt must be positive")
    if isinstance(s.model, LieModel):
        times, nsteps = _time_grid(T, dt)
        pts = np.atleast_2d(starts)[:, None, :] + times[..., None] * s.W_section.constant_coeffs()
        return times, pts, np.full(len(pts), nsteps)
    return _rk4_orbits(s.model.field(s.W_section), starts, T, dt, s.model)


def integrate_characteristic(s: EngelStructure, p0: np.ndarray, T: float,
                             dt: float) -> OrbitTrace:
    """Integrate the characteristic field from p0 for time T: the one-row
    :func:`integrate_orbits`, raising :class:`ChartExit` at a chart exit."""
    times, pts, kept = integrate_orbits(s, p0, T, dt)
    if (t_exit := _exit_time(times, kept[0])) is not None:
        raise ChartExit(t_exit)
    return _trace(s, times, pts[0], dt)


def orbits_within_chart(s: EngelStructure, starts: np.ndarray, T: float,
                        dt: float) -> list[tuple[OrbitTrace, Optional[float]]]:
    """One batch of orbits, each cut back from its chart exit.

    An orbit that left the chart keeps its first round(|t_cut| / dt) steps,
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
            n = max(1, int(round(abs(t_cut) / dt)))
            if n > k:
                raise ChartExit(t_exit)
        out.append((_trace(s, times[:n + 1], p[:n + 1], dt), t_cut))
    return out


def two_sided_orbit(s: EngelStructure, p0: np.ndarray, T: float,
                    dt: float) -> OrbitTrace:
    """Orbit of total length T centered at p0, for a p0 mid-chart whose
    one-sided orbit of the full length would leave.  Both halves run as one
    batch; a chart exit of the backward half is reported first."""
    times, pts, kept = integrate_orbits(s, [p0, p0], [-T / 2.0, T / 2.0], dt)
    for t, k in zip(times, kept):
        if (t_exit := _exit_time(t, k)) is not None:
            raise ChartExit(t_exit)
    return _trace(s, np.concatenate([times[0, ::-1], times[1, 1:]]),
                  np.concatenate([pts[0, ::-1], pts[1, 1:]]), dt)


# ---------------------------------------------------------------------------
# transport of E/W
# ---------------------------------------------------------------------------

def _emw_frame(s: EngelStructure) -> Sequence[Section]:
    if s.emw_frame is not None:
        return s.emw_frame
    raise FrameDegenerate(
        f"structure {s.provenance!r} does not designate an E/W frame")


def transport_generator(s: EngelStructure, pts: np.ndarray = None) -> np.ndarray:
    """A(p) with columns = coordinates of [e_j, W] mod W in the frame (e1, e2).

    Batched over points, (n, 2, 2).  On a Lie model A is one exact solve,
    returned as (2, 2) without points and broadcast over them otherwise.
    Raises :class:`FrameDegenerate` when (e1, e2, W) fails to resolve the
    brackets.
    """
    e1, e2 = _emw_frame(s)
    frame = [e1, e2, s.W_section]
    if isinstance(s.model, LieModel):
        cols = s.model.values(frame)[0].T
        A = np.empty((2, 2))
        for j, ej in enumerate((e1, e2)):
            br = s.model.bracket(s.W_section, ej)[0]
            coef, res, rank, sv = np.linalg.lstsq(cols, br, rcond=None)
            if rank < 3 or (res.size and res[0] > 1e-18):
                raise FrameDegenerate("E/W frame cannot resolve ad_W")
            A[:, j] = -coef[:2]
        return A if pts is None else np.broadcast_to(A, (len(np.atleast_2d(pts)), 2, 2))

    pts = np.atleast_2d(pts)
    cols = np.swapaxes(s.model.values(frame, pts), 1, 2)    # (n, dim, 3)
    sv = np.linalg.svd(cols, compute_uv=False)
    if np.any(sv[:, -1] < 1e-10):
        raise FrameDegenerate("E/W frame lost rank along the orbit")
    pinv = np.linalg.pinv(cols)
    A = np.empty((pts.shape[0], 2, 2))
    for j, ej in enumerate((e1, e2)):
        br = s.model.bracket(s.W_section, ej, pts)
        coef = np.einsum("nkd,nd->nk", pinv, br)
        resid = br - np.einsum("ndk,nk->nd", cols, coef)
        scale = np.linalg.norm(br, axis=1) + 1.0
        if np.any(np.linalg.norm(resid, axis=1) / scale > 1e-5):
            raise FrameDegenerate("[W, E/W frame] does not lie in E along the orbit")
        A[:, :, j] = -coef[:, :2]
    return A


def _dw_coords(s: EngelStructure, pts: np.ndarray) -> np.ndarray:
    """Coordinates of the line D/W in the E/W frame at each point: of the two
    D sections, the one with the larger E/W component."""
    e1, e2 = _emw_frame(s)
    sections = [e1, e2, s.W_section, *s.D_span]
    pts = np.atleast_2d(pts)
    if isinstance(s.model, LieModel):
        # one exact solve, broadcast over the points
        vals = s.model.values(sections)[0]
        cands = [np.linalg.lstsq(vals[:3].T, d, rcond=None)[0][:2] for d in vals[3:]]
        best = cands[1] if np.linalg.norm(cands[1]) > np.linalg.norm(cands[0]) else cands[0]
        return np.broadcast_to(best, (pts.shape[0], 2)).copy()
    vals = s.model.values(sections, pts)
    pinv = np.linalg.pinv(np.swapaxes(vals[:, :3], 1, 2))
    c0, c1 = (np.einsum("nkd,nd->nk", pinv, d)[:, :2] for d in (vals[:, 3], vals[:, 4]))
    pick = np.linalg.norm(c0, axis=1) >= np.linalg.norm(c1, axis=1)
    return np.where(pick[:, None], c0, c1)


def lift_angle_mod_pi(raw: np.ndarray, guard: float = np.pi / 2) -> np.ndarray:
    """Continuous lift of a mod-pi angle sequence; increments must stay
    below the guard (step-size check)."""
    raw = np.asarray(raw, dtype=float)
    inc = np.mod(np.diff(raw) + np.pi / 2, np.pi) - np.pi / 2
    if np.any(np.abs(inc) > guard - 1e-9):
        raise StepTooLarge("angle increment exceeded the continuity guard")
    out = np.empty_like(raw)
    out[0] = raw[0]
    out[1:] = raw[0] + np.cumsum(inc)
    return out


def transport_EmodW(s: EngelStructure, orbit: OrbitTrace,
                    angles: bool = True) -> OrbitTrace:
    """Solve M' = A(t) M along the orbit and track the lifted D/W angle.

    A(t) is sampled at the stored points and at the step midpoints, which
    one half-length RK4 substep regenerates from every stored point, and M
    is built from 4th-order Magnus steps (``_kernels.transport_rk4``).
    ``angles=False`` skips the developing-angle pullback (the inverse
    transport loses all precision once a hyperbolic M(t) has condition
    number near 1/eps, and the global-type estimator does not need it).
    """
    times = orbit.times
    dt_signed = times[1] - times[0]
    n = len(times) - 1

    # midpoint stage positions: one RK4 substep of half length from every
    # stored point, all points as one batch
    pts = s.model.wrap(orbit.points)
    h = dt_signed / 2.0
    W = lambda p: s.model.values([s.W_section], p)[:, 0]
    _, sub, _ = _rk4_orbits(W, pts[:-1], h, abs(h))
    pts_half = np.empty((2 * n + 1, s.model.dim))
    pts_half[0::2] = pts
    pts_half[1::2] = sub[:, 1]
    A_half = transport_generator(s, pts_half)
    M, dets = transport_rk4(A_half, dt_signed)
    angle = None
    if angles:
        d = _dw_coords(s, pts)
        # adjugate inverse: M is unimodular, so M^{-1} = adj(M) / det(M)
        adj = np.empty_like(M)
        adj[:, 0, 0] = M[:, 1, 1]
        adj[:, 0, 1] = -M[:, 0, 1]
        adj[:, 1, 0] = -M[:, 1, 0]
        adj[:, 1, 1] = M[:, 0, 0]
        u = np.einsum("nij,nj->ni", adj, d) / dets[:, None]
        raw = np.mod(np.arctan2(u[:, 1], u[:, 0]), np.pi)
        angle = lift_angle_mod_pi(raw)
    meta = dict(orbit.meta)
    meta["emw_frame"] = tuple(sec.name for sec in _emw_frame(s))
    return OrbitTrace(times=times, points=orbit.points, M=M, angle=angle,
                      dets=dets, meta=meta)


def holonomy_closed_form(m: LieModel, w: Union[Section, np.ndarray],
                         basis: Sequence[Union[Section, np.ndarray]],
                         rescaled: bool = False) -> Callable[[float], np.ndarray]:
    """Closed-form t -> exp(t A) for a constant-coefficient Lie structure.

    With A = [[0, -c], [1, 0]] this is a rotation at rate sqrt(c) for c > 0,
    cosh/sinh at rate sqrt(-c) for c < 0, and unipotent for c = 0.  With
    ``rescaled`` the matrix is conjugated into the frame (K e1, e2),
    K = sqrt(|c|), where it is a pure rotation or symmetric boost.
    """
    w = w if isinstance(w, Section) else Section(tuple(np.asarray(w, dtype=float)))
    basis = [b if isinstance(b, Section) else Section(tuple(np.asarray(b, dtype=float)))
             for b in basis]
    probe = EngelStructure.__new__(EngelStructure)
    probe.model = m
    probe.W_section = w
    probe.emw_frame = tuple(basis)
    A = transport_generator(probe)
    return closed_form_exp(A, rescaled=rescaled)


def closed_form_exp(A: np.ndarray, rescaled: bool = False) -> Callable:
    A = np.asarray(A, dtype=float)
    if abs(np.trace(A)) > 1e-12:
        raise FrameDegenerate("closed form expects a trace-free generator")
    K = np.sqrt(abs(np.linalg.det(A)))   # the rate of the cos or cosh form
    if rescaled and K > 0:
        S = np.diag([K, 1.0])
        Sinv = np.diag([1.0 / K, 1.0])
    else:
        S = Sinv = np.eye(2)

    def M(t: float) -> np.ndarray:
        return Sinv @ expm2(float(t) * A[None])[0] @ S

    return M


# ---------------------------------------------------------------------------
# closed orbits and classification
# ---------------------------------------------------------------------------

def first_return_time(s: EngelStructure, p0: np.ndarray, dt: float,
                      t_max: float, eps: float = None) -> float:
    """Smallest t with the orbit back within eps of p0 (wrapped distance,
    honoring declared orbit-closure periods)."""
    if isinstance(s.model, LieModel):
        # straight-line exponential orbit: closure only through declared periods
        raise NotImplementedError("closed-orbit detection needs a chart model")
    eps = DEFAULTS.orbit_close_eps if eps is None else eps
    orbit = integrate_characteristic(s, p0, t_max, dt)
    model = s.model
    dists = np.array([model.distance(p, p0) for p in orbit.points])
    h = orbit.times[1] - orbit.times[0]
    k_min = max(2, int(np.ceil(10 * dt / h)))
    # candidate local minima, then decide by the refined parabola vertex of
    # the squared distance (exact for a transversal return between samples)
    for k in range(k_min, len(dists) - 1):
        if not (dists[k] <= dists[k - 1] and dists[k] <= dists[k + 1]):
            continue
        step = abs(dists[k] - dists[k - 1]) + abs(dists[k + 1] - dists[k])
        if dists[k] > 2.0 * step + eps:
            continue
        f0, f1, f2 = dists[k - 1] ** 2, dists[k] ** 2, dists[k + 1] ** 2
        a = 0.5 * (f0 + f2) - f1
        b = 0.5 * (f2 - f0)
        if a > 1e-30:
            shift = np.clip(-b / (2 * a), -1.0, 1.0)
            fmin = max(f1 - b * b / (4 * a), 0.0)
        else:
            shift, fmin = 0.0, f1
        if np.sqrt(fmin) < eps:
            return float(orbit.times[k] + shift * h)
    raise ChartExit(t_max, "no return within t_max")


def closed_orbit_holonomy(s: EngelStructure, p0: np.ndarray, dt: float,
                          t_max: float) -> tuple[HolonomyLift, OrbitTrace]:
    """Integrate to first return and package the holonomy lift."""
    T = first_return_time(s, p0, dt, t_max)
    nsteps = max(1, int(round(T / dt)))
    orbit = integrate_characteristic(s, p0, T, T / nsteps)
    orbit = transport_EmodW(s, orbit)
    winding = float(orbit.angle[-1] - orbit.angle[0])
    M = orbit.normalized_M()[-1]
    if winding < 0:
        # orient so D/W rotates positively: flip the second frame leg
        F = np.diag([1.0, -1.0])
        M = F @ M @ F
        winding = -winding
        orbit.meta["orientation_flipped"] = True
    return HolonomyLift(matrix=M, winding=winding), orbit


def classify_projective(h: HolonomyLift, tol: float = 1e-6) -> ProjectiveType:
    """Classify a first-return holonomy into the five projective classes.

    Trace against the winding of the lifted developing angle: a lifted fixed
    point exists exactly when the winding stays inside (0, pi).  Boundary
    cases (trace within tol of +-2 while the winding sits within tol of a pi
    multiple) raise :class:`AmbiguousClass` rather than guessing.
    """
    M = h.matrix
    w = h.winding
    if w < 0:
        raise AmbiguousClass("winding must be oriented positively")
    tau = float(np.trace(M))
    near_pi_multiple = abs(w - np.pi * round(w / np.pi)) <= tol
    near_band = abs(abs(tau) - 2.0) <= tol
    is_identity = min(np.abs(M - np.eye(2)).max(), np.abs(M + np.eye(2)).max()) <= tol

    if is_identity:
        return ProjectiveType(kind="elliptic", length=w)
    if near_band and near_pi_multiple:
        raise AmbiguousClass(
            f"|tr|={abs(tau):.9g} within {tol:g} of 2 and winding {w:.9g} "
            f"within {tol:g} of a multiple of pi")
    if abs(tau) < 2.0 - tol:
        return ProjectiveType(kind="elliptic", length=w)
    if abs(tau) > 2.0 + tol:
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
    """Direction in which a parabolic matrix pushes non-fixed lines."""
    Mn = M if np.trace(M) > 0 else -M
    N = Mn - np.eye(2)
    _, _, vt = np.linalg.svd(N)
    fixed = vt[-1]
    v = np.array([-fixed[1], fixed[0]])
    Mv = Mn @ v
    cross = v[0] * Mv[1] - v[1] * Mv[0]
    return 1 if cross >= 0 else -1


# ---------------------------------------------------------------------------
# developing map
# ---------------------------------------------------------------------------

@dataclass
class DevelopingMap:
    theta: np.ndarray
    length: float
    flipped: bool


def developing_map(orbit: OrbitTrace, mono_tol: float = 1e-12) -> DevelopingMap:
    """Lifted angle path of D/W and its projective length.

    Oriented so the angle increases; strictly monotone for any verified
    Engel structure (the developing map is a submersion).
    """
    if orbit.angle is None:
        raise FrameDegenerate("orbit has no transport data")
    theta = orbit.angle.copy()
    flipped = False
    if theta[-1] < theta[0]:
        theta = -theta
        flipped = True
    d = np.diff(theta)
    if np.any(d <= mono_tol):
        raise MonotonicityViolation(
            f"developing angle not strictly increasing (min step {d.min():.3e})")
    return DevelopingMap(theta=theta, length=float(theta[-1] - theta[0]),
                         flipped=flipped)


# ---------------------------------------------------------------------------
# global type estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeThresholds:
    c_min: float = 0.05          # exponential growth slope
    r2_min: float = 0.99         # fit quality for growth laws
    distortion_bound: float = 1e3
    line_angle_tol: float = 1e-3
    cross_eps: float = 1e-3      # min D/W distance to an invariant line


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
    """Least-squares slope and R^2 of y against t."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def _invariant_lines(Ms: Sequence[np.ndarray], angle_tol: float):
    """Common real eigen-directions of the transported matrices, as
    (lines, None), or (None, the reason there are none)."""
    lines = []
    for M in Ms:
        evals, vecs = np.linalg.eig(M)
        if (imag := np.abs(evals.imag).max()) > 1e-9:
            return None, f"complex eigenvalues (|imag| {imag:.3g})"
        idx = np.argsort(evals.real)[::-1]
        lines.append([vecs.real[:, i] / np.linalg.norm(vecs.real[:, i]) for i in idx])
    out = []
    for k in range(2):
        ref = lines[-1][k]
        for lk in lines[:-1]:
            if (angle := float(line_angle(lk[k][None, :], ref[None, :])[0])) > angle_tol:
                return None, f"eigen-direction {k} moves by {angle:.3g} rad along the orbit"
        out.append(ref)
    return out, None


def _parabolic_line(M: np.ndarray, angle_tol: float):
    """Invariant line of a near-parabolic matrix as ([line], None), or (None,
    the reason).

    The line is the image of the nilpotent part N = M - (tr/2) I, its top left
    singular vector.  Unlike the eigenvectors of M, which move like the square
    root of the trace error, it is well conditioned.  sqrt|N^2| / |N| bounds
    the angle between the two eigen-directions; past ``angle_tol`` M has no
    single invariant line.
    """
    N = M - 0.5 * np.trace(M) * np.eye(2)
    u, sv, _ = np.linalg.svd(N)
    if (spread := np.sqrt(np.abs(N @ N).max()) / sv[0]) > angle_tol:
        return None, f"not unipotent: sqrt|N^2|/|N| = {spread:.3g}"
    return [u[:, 0]], None


def estimate_global_type(s: EngelStructure, n_orbits: int = 5,
                         T_max: float = 20.0, dt: float = 1e-2,
                         thresholds: TypeThresholds = None) -> GlobalTypeEstimate:
    """Finite-sample estimate of the elliptic/parabolic/hyperbolic type.

    Per orbit: fit log of the top singular value of the det-normalized
    transport for exponential growth (hyperbolic), then the singular value
    itself for linear shear (parabolic), else check bounded conformal
    distortion (elliptic).  Genuine vs trans is decided by whether the D/W
    line meets the detected invariant line fields along the samples.
    Conflicting verdicts return ``unknown`` with the evidence attached.  All
    start points are integrated in one batch, and an orbit that leaves the
    chart is cut back from its exit by :func:`orbits_within_chart`.
    """
    th = thresholds or TypeThresholds()
    model = s.model
    if isinstance(model, LieModel):
        starts = [np.zeros(model.dim)]
    else:
        lo, hi = model.box[:, 0], model.box[:, 1]
        mid = (lo + hi) / 2.0
        # keep margins
        starts = mid + 0.5 * (sample_box(model, max(n_orbits, 1), skip=300) - mid)
    verdicts, evidence = [], []
    for orbit, _ in orbits_within_chart(s, starts, T_max, dt):
        orbit = transport_EmodW(s, orbit, angles=False)
        n = len(orbit.times)
        sel = np.unique(np.linspace(n // 4, n - 1, 24).astype(int))
        Mn = orbit.normalized_M()[sel]
        tsel = orbit.times[sel]
        sv = np.linalg.svd(Mn, compute_uv=False)
        sigma1 = sv[:, 0]
        distortion = sigma1 / sv[:, 1]
        slope, r2_exp = _linear_fit(tsel, np.log(sigma1))
        lin_slope, lin_r2 = _linear_fit(tsel, sigma1)
        monotone = float(np.mean(np.diff(sigma1) >= -1e-12)) if len(sigma1) > 1 else 1.0
        growing = (sigma1[-1] > 1.3 and sigma1[-1] >= 0.95 * sigma1.max()
                   and monotone > 0.9)
        ev = {"slope": slope, "r2_exp": r2_exp, "lin_slope": lin_slope,
              "lin_r2": lin_r2, "monotone_fraction": monotone,
              "max_distortion": float(distortion.max()),
              "t_end": float(orbit.times[-1])}
        kind = "unknown"
        lines = why = None
        if growing:
            # exponential vs linear growth decided by which law fits better
            if r2_exp >= lin_r2 and slope > th.c_min and r2_exp > th.r2_min:
                kind = "hyperbolic"
                lines, why = _invariant_lines([Mn[-1], Mn[len(Mn) // 2]], th.line_angle_tol)
            elif lin_r2 > r2_exp and lin_r2 > th.r2_min:
                kind = "parabolic"
                lines, why = _parabolic_line(Mn[-1], th.line_angle_tol)
        elif distortion.max() < th.distortion_bound:
            kind = "elliptic"
        genuine = None
        if kind in ("parabolic", "hyperbolic") and lines:
            d = _dw_coords(s, model.wrap(orbit.points))
            crossings = 0
            min_dist = np.inf
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
            elif min_dist > th.cross_eps:
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
    summary = {"orbits": evidence,
               "thresholds": {k: getattr(th, k) for k in th.__dataclass_fields__}}
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
    du = 0.5 * surface.dlog_at(xy)
    omega = du[:, 1] * vel[:, 0] - du[:, 0] * vel[:, 1]
    kappa_g = psidot - omega
    kappa = ext.kappa_at(orbit.points)
    phidot = _fd1(orbit.points[:, 3], dt)
    lam = surface.lam_at(xy)
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
