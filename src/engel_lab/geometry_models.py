"""Surfaces, unit tangent bundles, and the two Lorentzian extensions.

A surface is a conformal chart: metric lambda(x, y) (dx^2 + dy^2) on a box.
Its unit tangent bundle gets the chart (x, y, phi) where phi is the fiber
angle measured against the coordinate frame orthonormalized by lambda^(1/2);
with that convention the vertical field is exactly d/dphi and the canonical
horizontal fields satisfy

    [Z, X] = Y,   [Z, Y] = -X,   [X, Y] = kappa Z.

Constant-curvature models exist twice: as exact Lie models (for closed-form
holonomy) and as chart realizations via lambda = 4 / (1 + kappa r^2)^2, so
the exact and numerical paths cross-validate.  A surface is two functions
of coordinate columns, ``lam_dlog`` and ``d2log``, as a frame's entries are.
A chart frame comes from lambda and its analytic log-derivatives; a chart W
takes the kappa a constant-curvature surface declares, else
:func:`gauss_curvature` on the x, y columns, float arithmetic at one point.

Every chart that adds a last fiber coordinate to a base is laid out by
:func:`fiber_chart`; both extensions build their Lie twin and their chart
through one body, :func:`_extension`.  The magnetic frame rotates the
horizontal one by theta, Xt = cos(theta) X + sin(theta) Y, and is evaluated
as the horizontal frame at fiber angle phi + theta.
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
    else (n,) views; a frame returns its rows of entries computed from them.
    Formulas on columns square by multiplying and take cos, sin, exp and
    other powers from numpy ufuncs, whose results do not depend on the batch
    size, so a point and a batch row agree bit for bit (a float's ``**`` is
    not numpy's power)."""
    return pts[0].tolist() if len(pts) == 1 else list(pts.T)


@dataclass
class ConformalSurface:
    """Metric lambda (dx^2 + dy^2) on a chart box in R^2, given as two
    functions of coordinate columns (see :func:`_columns`).

    ``lam_dlog(x, y) -> (lambda, d_x log(lambda), d_y log(lambda))`` and
    ``d2log(x, y) -> (xx, xy, yy)``, the second log-derivatives, each compute
    from shared subexpressions, in floats at a single point and on (n,)
    columns at a batch.  :meth:`lam_dlog_at` is the checked reader.
    ``kappa`` is the Gauss curvature of a constant-curvature surface,
    declared as a number, or ``None``; :func:`gauss_curvature` always
    computes the curvature from lambda.
    """

    lam_dlog: Callable
    box: np.ndarray
    d2log: Callable
    kappa: Optional[float] = None
    periodic: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)

    def lam_dlog_at(self, x, y) -> tuple:
        """``lam_dlog`` at coordinate columns, lambda finite and positive."""
        lam, dx, dy = self.lam_dlog(x, y)
        ok = 0.0 < lam < np.inf if isinstance(lam, float) else ((lam > 0) & (lam < np.inf)).all()
        if not ok:      # a single point's float is tested without numpy's per-call cost
            raise NonFiniteEvaluation("conformal factor must be finite and positive")
        return lam, dx, dy


def gauss_curvature(s: ConformalSurface, x, y) -> Union[float, np.ndarray]:
    """kappa = -Laplace(log lambda) / (2 lambda) at coordinate columns: a
    float at a single point, (n,) at a batch."""
    xx, _, yy = s.d2log(x, y)
    k = -(xx + yy) / (2.0 * s.lam_dlog_at(x, y)[0])
    if not np.isfinite(k).all():
        raise NonFiniteEvaluation("curvature evaluation produced NaN or inf")
    return k


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def flat_surface(half: float = np.pi) -> ConformalSurface:
    return ConformalSurface(
        lam_dlog=lambda x, y: (np.ones_like(x), np.zeros_like(x), np.zeros_like(y)),
        d2log=lambda x, y: (np.zeros_like(x), np.zeros_like(x), np.zeros_like(y)),
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

    def d2log(x, y):
        # with q = 1 + kappa r^2: d_ij log(lambda) = a delta_ij + b x_i x_j / q^2
        q = 1.0 + kappa * (x * x + y * y)
        a, b, q2 = -4.0 * kappa / q, 8.0 * (kappa * kappa), q * q
        return a + b * x * x / q2, b * x * y / q2, a + b * y * y / q2

    name = {1.0: "sphere", -1.0: "disk"}.get(kappa, f"constant({kappa:g})")
    return ConformalSurface(lam_dlog=lam_dlog, d2log=d2log, kappa=kappa,
                            box=[[-half, half], [-half, half]], name=name)


def bump_surface(a: float = 0.7, s: float = 0.9, half: float = 0.8) -> ConformalSurface:
    """log(lambda) = a exp(-r^2 / (2 s^2)): smooth variable curvature."""
    s2 = float(s) * float(s)

    def g(x, y):
        return a * np.exp(-(x * x + y * y) / (2 * s2))

    def lam_dlog(x, y):
        gg = g(x, y)
        return np.exp(gg), gg * (-x / s2), gg * (-y / s2)

    def d2log(x, y):
        gg, s4 = g(x, y), s2 * s2
        return (gg * (x * x / s4 - 1.0 / s2),       # xx
                gg * (x * y / s4),                  # xy
                gg * (y * y / s4 - 1.0 / s2))       # yy

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

    def d2log(x, y):
        return sp.ev(x, y, dx=2), sp.ev(x, y, dx=1, dy=1), sp.ev(x, y, dy=2)

    return ConformalSurface(lam_dlog=lam_dlog, d2log=d2log,
                            box=[[xs[0], xs[-1]], [ys[0], ys[-1]]], name=name)


# ---------------------------------------------------------------------------
# fiber charts and unit tangent bundles
# ---------------------------------------------------------------------------

def fiber_chart(base, rows: Callable[[np.ndarray], tuple], name: str,
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
    return ChartModel(dim, np.vstack([base.box, [0.0, hi]]), rows, periodic=periodic,
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

    def rows(pts):
        return (*horizontal(*_columns(pts)), (0, 0, 1))       # Z = d/dphi

    return UnitTangentChart(surface=s, model=fiber_chart(s, rows, f"S1T({s.name})"),
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
    splitting, the M-frame is the rotated (Xt, Yt, Zt, Theta), Xt = cos(theta) X
    + sin(theta) Y evaluated as the horizontal frame at phi + theta, and the
    pullback metric is diag(1, 1, -1, 0).  In both V-frames it is diag(1,1,-1).
    """

    kind: str
    base: Union[UnitTangentChart, ConstantCurvatureUT]
    model: Union[ChartModel, LieModel]
    kappa: Union[float, Callable]
    m_metric_diag: np.ndarray

    def kappa_at(self, pts: np.ndarray) -> np.ndarray:
        """kappa at a batch of points (n, dim): (n,)."""
        return np.full(len(pts), self.kappa(pts) if callable(self.kappa) else self.kappa,
                       dtype=float)


def _extension(kind: str, ut: Union[UnitTangentChart, ConstantCurvatureUT],
               names: tuple, m_metric_diag: list, theta_brackets: dict,
               rows: Callable[[np.ndarray], tuple]) -> LorentzExtension:
    """The extension of ``kind`` over a Lie or a chart unit tangent bundle.

    Lie twin: the (X, Y, Z) structure constants of ``ut`` plus
    [Theta, e_j] = v e_k for each ``(k, j): v`` in ``theta_brackets``.
    Chart: the frame ``rows`` on the unit tangent chart times the theta
    circle, with the surface's declared kappa, else its computed Gauss curvature.
    """
    if isinstance(ut, ConstantCurvatureUT):
        c = np.zeros((4, 4, 4))
        c[:3, :3, :3] = ut.lie.c
        for (k, j), v in theta_brackets.items():
            c[k, 3, j], c[k, j, 3] = v, -v
        model, kappa = LieModel(names, c), ut.kappa
    else:
        surface = ut.surface
        model = fiber_chart(ut.model, rows, f"{kind}({surface.name})")
        kappa = surface.kappa if surface.kappa is not None else (
            lambda pts: gauss_curvature(surface, *_columns(pts)[:2]))
    return LorentzExtension(kind=kind, base=ut, model=model, kappa=kappa,
                            m_metric_diag=np.array(m_metric_diag))


def product_extension(ut: Union[UnitTangentChart, ConstantCurvatureUT]) -> LorentzExtension:
    """(Sigma, dh) x (S^1, -dtheta^2); M = S^1(T Sigma) x S^1.

    Theta commutes with X, Y, Z; the null line over (sigma, theta) in the
    v-direction is <v + d/dtheta>.
    """
    def rows(pts):
        # rows X, Y, Z embedded, then Theta = d/dtheta
        X, Y = ut.horizontal(*_columns(pts)[:3])
        return (*X, 0), (*Y, 0), (0, 0, 1, 0), (0, 0, 0, 1)

    return _extension("product", ut, ("X", "Y", "Z", "Theta"),
                      [1.0, 1.0, 0.0, -1.0], {}, rows)


def magnetic_extension(ut: Union[UnitTangentChart, ConstantCurvatureUT]) -> LorentzExtension:
    """dg = dh + (-dtheta^2) on V = S^1(T Sigma) across the splitting.

    The M-frame rotates the horizontal fields by the null angle theta:
    Xt = cos(theta) X + sin(theta) Y, Yt = cos(theta) Y - sin(theta) X,
    Zt = Z, Theta vertical, so [Theta, Xt] = Yt and [Theta, Yt] = -Xt.  By
    the angle-sum formulas Xt and Yt are the horizontal rows at phi + theta,
    which is how the chart evaluates them.
    """
    def rows(pts):
        x, y, phi, theta = _columns(pts)
        Xt, Yt = ut.horizontal(x, y, phi + theta)
        return (*Xt, 0), (*Yt, 0), (0, 0, 1, 0), (0, 0, 0, 1)

    return _extension("magnetic", ut, ("Xt", "Yt", "Zt", "Theta"),
                      [1.0, 1.0, -1.0, 0.0], {(1, 0): 1.0, (0, 1): -1.0}, rows)
