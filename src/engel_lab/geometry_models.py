"""Surfaces, unit tangent bundles, and the two Lorentzian extensions.

A surface is a conformal chart: metric lambda(x, y) (dx^2 + dy^2) on a box.
Its unit tangent bundle gets the chart (x, y, phi) where phi is the fiber
angle measured against the coordinate frame orthonormalized by lambda^(1/2);
with that convention the vertical field is exactly d/dphi and the canonical
horizontal fields satisfy

    [Z, X] = Y,   [Z, Y] = -X,   [X, Y] = kappa Z.

Constant-curvature models exist twice: as exact Lie models (for closed-form
holonomy) and as chart realizations via lambda = 4 / (1 + kappa r^2)^2, so
the exact and numerical paths cross-validate.  A surface is lambda with its
log-gradient, ``lam_dlog``, and its Gauss curvature ``kappa``, each a closed
form on coordinate columns, as a frame's entries are; ``kappa`` is a number
on a constant-curvature surface.  A chart frame comes from lambda and its
log-derivatives, and a chart W reads the surface's kappa on the x, y
columns, float arithmetic at one point.

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
    """The coordinate columns of points (n, dim): the floats of a single real
    point, where numpy's per-call cost would be most of a frame evaluation,
    else (n,) views; a frame returns its rows of entries computed from them.
    Formulas on columns square by multiplying and take cos, sin, exp and
    other powers from numpy ufuncs, whose results do not depend on the batch
    size, so a point and a batch row agree bit for bit (a float's ``**`` is
    not numpy's power, nor Python complex arithmetic numpy's)."""
    return pts[0].tolist() if len(pts) == 1 and pts.dtype == float else list(pts.T)


@dataclass
class ConformalSurface:
    """Metric lambda (dx^2 + dy^2) on a chart box in R^2, given by closed forms
    on coordinate columns (see :func:`_columns`).

    ``lam_dlog(x, y) -> (lambda, d_x log(lambda), d_y log(lambda))`` computes
    from shared subexpressions: Python floats at one real point on every
    surface, (n,) columns of the points' dtype at a batch, checked by
    :meth:`lam_dlog_at`.  ``kappa`` is the Gauss curvature -Laplace(log
    lambda) / (2 lambda): a number on a constant-curvature surface, else a
    function ``kappa(x, y)`` of coordinate columns, as ``lam_dlog`` is.
    """

    lam_dlog: Callable
    box: np.ndarray
    kappa: Union[float, Callable]
    periodic: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)

    def lam_dlog_at(self, x, y) -> tuple:
        """``lam_dlog`` at coordinate columns, lambda's real part finite and positive."""
        lam, dx, dy = self.lam_dlog(x, y)
        ok = (0.0 < lam < np.inf if isinstance(lam, float)
              else ((lam.real > 0) & (lam.real < np.inf)).all())
        if not ok:      # a single point's float is tested without numpy's per-call cost
            raise NonFiniteEvaluation("conformal factor must be finite and positive")
        return lam, dx, dy

    def kappa_at(self, x, y):
        """A variable ``kappa`` at coordinate columns, refused where not finite."""
        k = self.kappa(x, y)
        if not (abs(k) < np.inf if isinstance(k, float) else np.isfinite(k).all()):
            raise NonFiniteEvaluation("curvature evaluation produced NaN or inf")
        return k


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def flat_surface() -> ConformalSurface:
    """lambda = 1 on the square torus [-pi, pi]^2, floats at one real point."""
    return ConformalSurface(
        lam_dlog=lambda x, y: ((1.0, 0.0, 0.0) if isinstance(x, float) else
                               (np.ones_like(x), np.zeros_like(x), np.zeros_like(y))),
        box=[[-np.pi, np.pi], [-np.pi, np.pi]],
        kappa=0.0,
        periodic={0: TWO_PI, 1: TWO_PI},
        name="flat")


def constant_curvature_surface(kappa: float) -> ConformalSurface:
    """lambda = 4 / (1 + kappa r^2)^2 has Gauss curvature kappa.

    For kappa < 0 the chart must stay inside r^2 < -1/kappa; the box keeps
    a comfortable margin.
    """
    kappa = float(kappa)
    if kappa == 0.0:
        return flat_surface()
    # kappa < 0 charts must stay inside r < 1/sqrt(-kappa); the box is
    # sized so its corners keep a 4% margin, wide enough for length-5
    # projected null geodesics (horocycles reach r ~ 0.8 r_sing)
    half = 1.2 if kappa > 0 else 0.68 / np.sqrt(-kappa)

    def lam_dlog(x, y):
        q = 1.0 + kappa * (x * x + y * y)
        g = -4.0 * kappa / q
        return 4.0 / (q * q), g * x, g * y

    name = {1.0: "sphere", -1.0: "disk"}.get(kappa, f"constant({kappa:g})")
    return ConformalSurface(lam_dlog=lam_dlog, kappa=kappa,
                            box=[[-half, half], [-half, half]], name=name)


def bump_surface() -> ConformalSurface:
    """log(lambda) = g = a exp(-r^2 / (2 s^2)), a = 0.7, s = 0.9, on
    [-0.8, 0.8]^2: smooth variable curvature
    kappa = -g (r^2 / s^4 - 2 / s^2) / (2 e^g)."""
    a, s2 = 0.7, 0.9 * 0.9

    def lam_dlog(x, y):
        g = a * np.exp(-(x * x + y * y) / (2 * s2))
        return np.exp(g), g * (-x / s2), g * (-y / s2)

    def kappa(x, y):
        r2 = x * x + y * y
        g = a * np.exp(-r2 / (2 * s2))
        return -(g * (r2 / (s2 * s2) - 2.0 / s2)) / (2.0 * np.exp(g))

    return ConformalSurface(lam_dlog=lam_dlog, kappa=kappa,
                            box=[[-0.8, 0.8], [-0.8, 0.8]], name="bump")


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
    circle, with the surface's kappa: its number, or
    :meth:`ConformalSurface.kappa_at` on the x, y columns of the points.
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
        kappa = surface.kappa if not callable(surface.kappa) else (
            lambda pts: surface.kappa_at(*_columns(pts)[:2]))
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
