"""Surfaces, unit tangent bundles, and the two Lorentzian extensions.

A surface is a conformal chart: metric lambda(x, y) (dx^2 + dy^2) on a box.
Its unit tangent bundle gets the chart (x, y, phi) where phi is the fiber
angle measured against the coordinate frame orthonormalized by lambda^(1/2);
with that convention the vertical field is exactly d/dphi and the canonical
horizontal fields satisfy

    [Z, X] = Y,   [Z, Y] = -X,   [X, Y] = kappa Z.

Constant-curvature models exist twice: as exact Lie models (for closed-form
holonomy) and as chart realizations via lambda = 4 / (1 + kappa r^2)^2, so
the exact and numerical paths cross-validate.  A chart frame comes from
lambda and its analytic log-derivatives; a chart W takes the kappa a
constant-curvature surface declares.

Every chart that adds a last fiber coordinate to a base is laid out by
:func:`fiber_chart`; both extensions build their Lie twin and their chart
through one body, :func:`_extension`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonFiniteEvaluation
from .frame_algebra import ChartModel, LieModel

TWO_PI = 2.0 * np.pi


def _columns(pts: np.ndarray) -> list:
    """The coordinate columns of points (n, dim): the floats of a single
    point, where numpy's per-call cost would be most of a frame evaluation,
    else (n,) views.  Formulas on columns square by multiplying and take
    cos, sin, exp and other powers from numpy ufuncs, whose results do not
    depend on the batch size, so a point and a batch row agree bit for bit
    (a float's ``**`` is not numpy's power)."""
    return pts[0].tolist() if len(pts) == 1 else list(pts.T)


def _block(rows) -> np.ndarray:
    """Rows of column entries (from :func:`_columns`) as an (n, r, c) array."""
    B = np.array(rows, dtype=float)
    return B[None] if B.ndim == 2 else np.moveaxis(B, -1, 0)


@dataclass
class ConformalSurface:
    """Metric lambda (dx^2 + dy^2) on a chart box in R^2.

    ``lam_dlog(x, y) -> (lambda, d_x log(lambda), d_y log(lambda))`` takes
    coordinate columns (see :func:`_columns`), so the frame of a single point
    computes lambda and its first log-derivatives from shared
    subexpressions in floats.  ``d2log(pts) -> (n, 3)`` gives the second
    log-derivatives ordered (xx, xy, yy) at a batch (n, 2).  ``lam_at``,
    ``dlog_at`` and ``d2log_at`` evaluate a batch of points.
    ``kappa`` is the Gauss curvature of a constant-curvature surface,
    declared as a number, or ``None``; :func:`gauss_curvature` always
    computes the curvature from lambda.
    """

    lam_dlog: Callable
    box: np.ndarray
    d2log: Callable[[np.ndarray], np.ndarray]
    kappa: Optional[float] = None
    periodic: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)

    def lam_dlog_at(self, x, y) -> tuple:
        """``lam_dlog`` at coordinate columns, lambda finite and positive."""
        lam, dx, dy = self.lam_dlog(x, y)
        if not (np.isfinite(lam) & (lam > 0)).all():
            raise NonFiniteEvaluation("conformal factor must be finite and positive")
        return lam, dx, dy

    def lam_at(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.asarray(self.lam_dlog_at(pts[:, 0], pts[:, 1])[0], dtype=float)

    def dlog_at(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.stack(self.lam_dlog_at(pts[:, 0], pts[:, 1])[1:], axis=-1)

    def d2log_at(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.d2log(np.atleast_2d(pts)), dtype=float)


def gauss_curvature(s: ConformalSurface, p: np.ndarray) -> Union[float, np.ndarray]:
    """kappa = -Laplace(log lambda) / (2 lambda)."""
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    d2 = s.d2log_at(pts)
    k = -(d2[:, 0] + d2[:, 2]) / (2.0 * s.lam_at(pts))
    if not np.isfinite(k).all():
        raise NonFiniteEvaluation("curvature evaluation produced NaN or inf")
    return float(k[0]) if np.asarray(p).ndim == 1 else k


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def flat_surface(half: float = np.pi) -> ConformalSurface:
    return ConformalSurface(
        lam_dlog=lambda x, y: (np.ones_like(x), np.zeros_like(x), np.zeros_like(y)),
        d2log=lambda pts: np.zeros((len(pts), 3)),
        box=[[-half, half], [-half, half]],
        kappa=0.0,
        periodic={0: 2 * half, 1: 2 * half},
        name="flat")


def constant_curvature_surface(kappa: float, half: float = None) -> ConformalSurface:
    """lambda = 4 / (1 + kappa r^2)^2 has Gauss curvature kappa.

    For kappa < 0 the chart must stay inside r^2 < -1/kappa; the default box
    keeps a comfortable margin.
    """
    kappa = float(kappa)
    if kappa == 0.0:
        return flat_surface(half=half if half is not None else np.pi)
    if half is None:
        # kappa < 0 charts must stay inside r < 1/sqrt(-kappa); the box is
        # sized so its corners keep a 4% margin, wide enough for length-5
        # projected null geodesics (horocycles reach r ~ 0.8 r_sing)
        half = 1.2 if kappa > 0 else 0.68 / np.sqrt(-kappa)

    def lam_dlog(x, y):
        q = 1.0 + kappa * (x * x + y * y)
        g = -4.0 * kappa / q
        return 4.0 / (q * q), g * x, g * y

    def d2log(pts):
        # with q = 1 + kappa r^2: d_ij log(lambda) = a delta_ij + b x_i x_j / q^2
        x, y = pts[:, 0], pts[:, 1]
        q = 1.0 + kappa * (x * x + y * y)
        a, b, q2 = -4.0 * kappa / q, 8.0 * kappa ** 2, q ** 2
        out = np.empty((len(x), 3))
        out[:, 0] = a + b * x * x / q2    # xx
        out[:, 1] = b * x * y / q2        # xy
        out[:, 2] = a + b * y * y / q2    # yy
        return out

    name = {1.0: "sphere", -1.0: "disk"}.get(kappa, f"constant({kappa:g})")
    return ConformalSurface(lam_dlog=lam_dlog, d2log=d2log, kappa=kappa,
                            box=[[-half, half], [-half, half]], name=name)


def bump_surface(a: float = 0.7, s: float = 0.9, half: float = 0.8) -> ConformalSurface:
    """log(lambda) = a exp(-r^2 / (2 s^2)): smooth variable curvature."""
    s2 = float(s) ** 2

    def g(x, y):
        return a * np.exp(-(x * x + y * y) / (2 * s2))

    def lam_dlog(x, y):
        gg = g(x, y)
        return np.exp(gg), gg * (-x / s2), gg * (-y / s2)

    def d2log(pts):
        x, y = pts[:, 0], pts[:, 1]
        gg = g(x, y)
        fxx = gg * (x * x / s2 ** 2 - 1.0 / s2)
        fyy = gg * (y * y / s2 ** 2 - 1.0 / s2)
        fxy = gg * (x * y / s2 ** 2)
        return np.stack([fxx, fxy, fyy], axis=-1)

    return ConformalSurface(lam_dlog=lam_dlog, d2log=d2log,
                            box=[[-half, half], [-half, half]], name="bump")


def table_surface(xs, ys, lam_grid, name: str = "table") -> ConformalSurface:
    """Surface from a sampled conformal factor; a bicubic spline supplies the
    log-lambda derivatives."""
    from scipy.interpolate import RectBivariateSpline

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    grid = np.log(np.asarray(lam_grid, dtype=float))
    sp = RectBivariateSpline(xs, ys, grid, kx=3, ky=3)

    def lam_dlog(x, y):
        return np.exp(sp.ev(x, y)), sp.ev(x, y, dx=1), sp.ev(x, y, dy=1)

    def d2log(pts):
        return np.stack([sp.ev(pts[:, 0], pts[:, 1], dx=2),
                         sp.ev(pts[:, 0], pts[:, 1], dx=1, dy=1),
                         sp.ev(pts[:, 0], pts[:, 1], dy=2)], axis=-1)

    return ConformalSurface(lam_dlog=lam_dlog, d2log=d2log,
                            box=[[xs[0], xs[-1]], [ys[0], ys[-1]]], name=name)


# ---------------------------------------------------------------------------
# fiber charts and unit tangent bundles
# ---------------------------------------------------------------------------

def fiber_chart(base, frame: Callable[[np.ndarray], np.ndarray], name: str,
                hi: float = TWO_PI, period: Optional[float] = TWO_PI,
                orbit_periods: Optional[dict] = None) -> ChartModel:
    """Chart of the base box times a last fiber coordinate in [0, hi].

    ``base`` has a ``box`` and a ``periodic`` map (a :class:`ChartModel` or a
    :class:`ConformalSurface`); the chart keeps the base's periods and gives
    the fiber ``period``, ``None`` for a mapping-torus domain.
    """
    dim = len(base.box) + 1
    periodic = {int(k): v for k, v in base.periodic.items()}
    if period is not None:
        periodic[dim - 1] = period
    return ChartModel(dim, np.vstack([base.box, [0.0, hi]]), frame, periodic=periodic,
                      orbit_periods=orbit_periods or {}, name=name)


@dataclass
class UnitTangentChart:
    """Chart model (x, y, phi) of S^1(T Sigma) with frame (X, Y, Z);
    ``horizontal(x, y, phi)`` gives the rows X and Y as entry triples of
    coordinate columns."""

    surface: ConformalSurface
    model: ChartModel
    horizontal: Callable


def unit_tangent_frames(s: ConformalSurface) -> UnitTangentChart:
    """Horizontal/vertical frame on S^1(T Sigma).

    X is the horizontal lift of the tautological unit vector, Y of its
    rotate by +pi/2, Z = d/dphi.  The connection coefficient enters through
    u = log(lambda)/2:  lift(v) = v + (u_y v_x - u_x v_y) d/phi.
    The conformal factor, its log-derivatives and the fiber rotation are
    evaluated once per frame evaluation, on coordinate columns.
    """
    def horizontal(x, y, phi):
        lam, dx, dy = s.lam_dlog_at(x, y)
        ux, uy, sc = 0.5 * dx, 0.5 * dy, np.power(lam, -0.5)
        c, si = np.cos(phi), np.sin(phi)
        sc_c, sc_s = sc * c, sc * si
        return ((sc_c, sc_s, sc * (uy * c - ux * si)),        # X
                (-sc_s, sc_c, -sc * (uy * si + ux * c)))      # Y

    def frame(pts):
        F = np.zeros((len(pts), 3, 3))
        F[:, :2] = _block(horizontal(*_columns(pts)))
        F[:, 2, 2] = 1.0                                      # Z = d/dphi
        return F

    return UnitTangentChart(surface=s, model=fiber_chart(s, frame, f"S1T({s.name})"),
                            horizontal=horizontal)


@dataclass
class ConstantCurvatureUT:
    """Exact Lie model of S^1(T Sigma) for constant curvature kappa."""

    kappa: float
    lie: LieModel = None

    def __post_init__(self):
        k = float(self.kappa)
        c = np.zeros((3, 3, 3))
        # frame order (X, Y, Z)
        c[1, 2, 0], c[1, 0, 2] = 1.0, -1.0     # [Z, X] = Y
        c[0, 2, 1], c[0, 1, 2] = -1.0, 1.0     # [Z, Y] = -X
        c[2, 0, 1], c[2, 1, 0] = k, -k         # [X, Y] = kappa Z
        self.lie = LieModel(("X", "Y", "Z"), c)


# ---------------------------------------------------------------------------
# Lorentzian extensions
# ---------------------------------------------------------------------------

@dataclass
class LorentzExtension:
    """A Lorentzian 3-manifold built from a surface, together with the frame
    data of its null-circle bundle M.

    For the product kind V = Sigma x S^1 and the M-frame is (X, Y, Z, Theta)
    with pullback metric diag(1, 1, 0, -1); for the magnetic kind
    V = S^1(T Sigma) with dg = dh + (-dtheta^2) across the horizontal/vertical
    splitting, the M-frame is the rotated (Xt, Yt, Zt, Theta) and the pullback
    metric is diag(1, 1, -1, 0).  In both V-frames the metric is diag(1,1,-1).
    """

    kind: str
    base: Union[UnitTangentChart, ConstantCurvatureUT]
    model: Union[ChartModel, LieModel]
    kappa: Union[float, Callable]
    m_metric_diag: np.ndarray

    def kappa_at(self, pts: np.ndarray) -> np.ndarray:
        """kappa at a batch of points (n, dim): (n,)."""
        if callable(self.kappa):
            return np.asarray(self.kappa(pts), dtype=float)
        return np.full(pts.shape[0], float(self.kappa))


def _extension(kind: str, ut: Union[UnitTangentChart, ConstantCurvatureUT],
               names: tuple, m_metric_diag: list, theta_brackets: dict,
               frame: Callable[[np.ndarray], np.ndarray]) -> LorentzExtension:
    """The extension of ``kind`` over a Lie or a chart unit tangent bundle.

    Lie twin: the (X, Y, Z) structure constants of ``ut`` plus
    [Theta, e_j] = v e_k for each ``(k, j): v`` in ``theta_brackets``.
    Chart: ``frame`` on the unit tangent chart times the theta circle, with
    the surface's declared kappa, else its computed Gauss curvature.
    """
    if isinstance(ut, ConstantCurvatureUT):
        c = np.zeros((4, 4, 4))
        c[:3, :3, :3] = ut.lie.c
        for (k, j), v in theta_brackets.items():
            c[k, 3, j], c[k, j, 3] = v, -v
        model, kappa = LieModel(names, c), ut.kappa
    else:
        surface = ut.surface
        model = fiber_chart(ut.model, frame, f"{kind}({surface.name})")
        kappa = surface.kappa if surface.kappa is not None else (
            lambda pts: gauss_curvature(surface, pts[:, :2]))
    return LorentzExtension(kind=kind, base=ut, model=model, kappa=kappa,
                            m_metric_diag=np.array(m_metric_diag))


def product_extension(ut: Union[UnitTangentChart, ConstantCurvatureUT]) -> LorentzExtension:
    """(Sigma, dh) x (S^1, -dtheta^2); M = S^1(T Sigma) x S^1.

    Theta commutes with X, Y, Z; the null line over (sigma, theta) in the
    v-direction is <v + d/dtheta>.
    """
    def frame(pts):
        # rows X, Y, Z embedded, then Theta = d/dtheta
        F = np.zeros((len(pts), 4, 4))
        F[:, :3, :3] = ut.model.frame(pts[:, :3])
        F[:, 3, 3] = 1.0
        return F

    return _extension("product", ut, ("X", "Y", "Z", "Theta"),
                      [1.0, 1.0, 0.0, -1.0], {}, frame)


def magnetic_extension(ut: Union[UnitTangentChart, ConstantCurvatureUT]) -> LorentzExtension:
    """dg = dh + (-dtheta^2) on V = S^1(T Sigma) across the splitting.

    The M-frame rotates the horizontal fields by the null angle theta:
    Xt = cos(theta) X + sin(theta) Y, Yt its rotate, Zt = Z, Theta vertical,
    so [Theta, Xt] = Yt and [Theta, Yt] = -Xt.
    """
    def frame(pts):
        # rows Xt = c X + s Y and Yt = c Y - s X (X, Y rotated by theta),
        # Zt = Z, Theta = d/dtheta
        x, y, phi, theta = _columns(pts)
        X, Y = ut.horizontal(x, y, phi)
        c, si = np.cos(theta), np.sin(theta)
        F = np.zeros((len(pts), 4, 4))
        F[:, :2, :3] = _block([[c * a + si * b for a, b in zip(X, Y)],
                               [c * b - si * a for a, b in zip(X, Y)]])
        F[:, 2, 2] = F[:, 3, 3] = 1.0
        return F

    return _extension("magnetic", ut, ("Xt", "Yt", "Zt", "Theta"),
                      [1.0, 1.0, -1.0, 0.0], {(1, 0): 1.0, (0, 1): -1.0}, frame)
