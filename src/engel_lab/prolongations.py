"""The four Engel constructions: Cartan, Lorentz, pre-quantum, suspension,
plus the propellor models on mapping-torus charts.

Every construction returns an :class:`~engel_lab.engel_verify.EngelStructure`
whose model carries an explicit global frame; downstream modules verify the
defining conditions numerically and analyze the Cauchy-characteristic
dynamics.  Fiber conventions: prolongation fibers use a single angle
coordinate theta; the Cartan model declares its orbit closure at pi (the
plane field repeats after a half turn), while the chart itself runs to 2*pi;
a suspension's fiber is mapping-torus time, with no period.  Each chart is
laid out by :func:`~engel_lab.geometry_models.fiber_chart`, and Cartan and
the suspension build one rotating plane that differs only in its angle.
A monodromy's logarithm, determinant and eigen-lines are closed forms on
its four entries, with no LAPACK call.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from ._kernels import _trace_split, closed_form_exp
from .characteristic_dynamics import _eigen_lines, _line_angle
from .engel_verify import EngelStructure, line_angle
from .errors import (
    ConfigError,
    CurvatureMismatch,
    EquivarianceError,
    NotContact,
    SignatureError,
    TwistMonotonicityError,
)
from .frame_algebra import (
    RANK_TOL,
    ChartModel,
    Section,
    complex_step,
    coordinate_frame,
    frame_coords,
    rank_with_margin,
)
from .geometry_models import (LorentzExtension, _columns, constant_curvature_surface, fiber_chart,
                              unit_tangent_frames)

_CONTACT_CHECKS = 50      # ContactModel: points of the rank(xi + [xi, xi]) = 3 check
_CURVATURE_CHECKS = 50    # prequantum_prolongation: points of the d(beta) = i_w vol check
_CURVATURE_TOL = 1e-6     # ... and its largest |d(beta) - i_w vol|
_PATH_CHECKS = 64         # propellor_structure: fiber times of the line-path checks
_TWIST_CHECKS = 40        # suspension: base points of the twist-profile checks
_TWIST_TOL = 1e-6         # ... and its largest |rho(0, v)|


# ---------------------------------------------------------------------------
# contact models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactModel:
    """A 3-dimensional frame model with a designated contact plane field.

    ``xi`` spans the contact planes, ``transverse`` is Reeb-transverse
    (anything spanning TM/xi works), and ``legendrian_frame`` trivializes xi
    when available (required by Cartan and the suspension).  Raises
    :class:`NotContact` when made unless rank(xi + [xi, xi]) = 3 at
    ``_CONTACT_CHECKS`` Halton points of the chart; frozen, so it can be shared.
    """

    model: ChartModel
    xi: Sequence[Section]
    transverse: Section
    legendrian_frame: Optional[Sequence[Section]] = None

    def __post_init__(self):
        pts = self.model.sample(_CONTACT_CHECKS)
        br = self.model.brackets(self.xi, [(0, 1)], pts)
        stack = np.concatenate([self.model.values(self.xi, pts), br], axis=1)
        rank, _ = rank_with_margin(stack, RANK_TOL)
        if not np.all(rank == 3):
            raise NotContact("xi + [xi, xi] fails to have rank 3 at a sample point")


@cache
def standard_contact_r3() -> ContactModel:
    """(R^3, ker(dy - z dx)) on the chart box [-2, 2]^3, with the Legendrian
    frame (d/dx + z d/dy, d/dz): one model per process, checked once."""
    def rows(pts):
        # rows Xbar = d/dx + z d/dy, Y, Z
        z = _columns(pts)[2]
        return (1, z, 0), (0, 1, 0), (0, 0, 1)

    model = ChartModel(3, [[-2.0, 2.0]] * 3, rows, name="contact-r3")
    l1 = Section((1, 0, 0), "Xbar")
    l2 = Section((0, 0, 1), "Z")
    return ContactModel(model=model, xi=(l1, l2),
                        transverse=Section((0, 1, 0), "Y"),
                        legendrian_frame=(l1, l2))


def _fiber_frame(base_rows: Callable) -> Callable:
    """Frame rows (d/d(fiber), three base rows) on a base chart times a fiber
    coordinate, the fiber coordinate last; ``base_rows`` maps base points
    (n, 3) to the three rows of three entries of the base fields."""
    return lambda pts: ((0, 0, 0, 1), *((*r, 0) for r in base_rows(pts[:, :3])))


def _legendrian_frame(c: ContactModel) -> Callable:
    """The fiber frame (d/d(fiber), l1, l2, transverse) over a contact model
    with a Legendrian frame (l1, l2): the base rows are the sections'
    :meth:`~engel_lab.frame_algebra.ChartModel.entries`, the kinds of entry
    the contact frame hands over."""
    if c.legendrian_frame is None:
        raise NotContact("a rotating-plane construction needs a Legendrian frame")
    sections = [*c.legendrian_frame, c.transverse]
    return _fiber_frame(lambda q: c.model.entries(sections, q))


def _rotating_plane(model: ChartModel, angle: Callable, provenance: str) -> EngelStructure:
    """D = <W, cos(f) l1 + sin(f) l2> for the angle f(pts) on a chart with the
    frame (W, l1, l2, R) of :func:`_legendrian_frame`: E = <W, l1, l2>, and
    the E/W frame is (l1, l2)."""
    W = Section((1, 0, 0, 0), "W")
    l1, l2 = Section((0, 1, 0, 0), "l1"), Section((0, 0, 1, 0), "l2")

    def plane(pts):
        f = angle(pts)
        return 0, np.cos(f), np.sin(f), 0

    return EngelStructure(
        model=model, D_span=[W, Section(plane, "C")],
        E_span=[W, l1, l2], W_section=W,
        transverse_section=Section((0, 0, 0, 1), "R"),
        provenance=provenance, emw_frame=(l1, l2))


# ---------------------------------------------------------------------------
# Cartan prolongation
# ---------------------------------------------------------------------------

def cartan_prolongation(c: ContactModel) -> EngelStructure:
    """Engel structure on V x S^1 with D = <d/dtheta, cos(th) l1 + sin(th) l2>.

    E is the pullback of the contact planes together with the fiber
    direction; the Cauchy characteristic is the fiber tangent, every fiber is
    a closed orbit, and the plane field repeats after theta -> theta + pi.
    """
    frame = _legendrian_frame(c)
    model = fiber_chart(c.model, frame, f"cartan({c.model.name})", orbit_periods={3: np.pi})
    return _rotating_plane(model, lambda pts: pts[:, 3], "cartan_prolongation")


# ---------------------------------------------------------------------------
# Lorentz prolongation
# ---------------------------------------------------------------------------

def lorentz_prolongation(ext: LorentzExtension) -> EngelStructure:
    """Engel structure on the null-circle bundle of a Lorentzian extension.

    Product kind: W = X + Theta, D = <W, Z>, E = <W, Z, Y>.
    Magnetic kind: D = <Xt + Zt, Theta>, E adds Yt, and the Cauchy
    characteristic is Xt + Zt - (1 + kappa) Theta, a constant section when
    kappa is a number (Lie models and constant-curvature charts).
    """
    model = ext.model
    if ext.kind == "product":
        D = [Section((1, 0, 0, 1), "W"), Section((0, 0, 1, 0), "Z")]
        E = D + [Section((0, 1, 0, 0), "Y")]
        W = Section((1, 0, 0, 1), "W")
        emw = (Section((0, 1, 0, 0), "Y"), Section((0, 0, 1, 0), "Z"))
        tau = Section((1, 0, 0, 0), "X")
    elif ext.kind == "magnetic":
        if callable(ext.kappa):
            W = Section(lambda pts: (1, 0, 1, -(1.0 + ext.kappa(pts))), "W")
        else:
            W = Section((1, 0, 1, -(1.0 + float(ext.kappa))), "W")
        D = [Section((1, 0, 1, 0), "L"), Section((0, 0, 0, 1), "Theta")]
        E = [Section((1, 0, 1, 0), "L"), Section((0, 1, 0, 0), "Yt"),
             Section((0, 0, 0, 1), "Theta")]
        emw = (Section((0, 0, 0, 1), "Theta"), Section((0, 1, 0, 0), "Yt"))
        tau = Section((1, 0, 0, 0), "Xt")
    else:
        raise SignatureError(f"unknown extension kind {ext.kind!r}")
    return EngelStructure(
        model=model, D_span=D, E_span=E, W_section=W,
        transverse_section=tau,
        provenance=f"lorentz_prolongation[{ext.kind}]",
        emw_frame=emw)


# ---------------------------------------------------------------------------
# pre-quantum prolongation
# ---------------------------------------------------------------------------

def prequantum_prolongation(c: ContactModel, w_bar: Section,
                            vol: Callable, beta: Callable,
                            emw: Optional[Sequence[Section]] = None) -> EngelStructure:
    """Engel structure on V x S^1 from a connection with curvature i_W vol.

    The base chart frame must be the coordinate frame: ``beta(q1, q2, q3)``
    takes coordinate columns (see :func:`~engel_lab.geometry_models._columns`)
    and returns the 1-form coefficients (beta_1, beta_2, beta_3), each a
    column, a float at one point, or the int 0 where it vanishes identically
    (an int frame entry, so a lift that reads only such rows flows as a
    constant field); ``vol`` gives the scalar density rho in
    vol = rho dq1^dq2^dq3.  E is the horizontal distribution
    ker(dtheta + beta), D its intersection with the lifted contact planes,
    and W the horizontal lift of the Legendrian field w_bar.  The caller
    asserts that w_bar preserves vol; the curvature relation
    d(beta) = i_{w_bar} vol is checked at samples by the complex step: beta is
    analytic, as every frame entry is.
    """
    base = c.model
    pts = base.sample(_CURVATURE_CHECKS)
    # beta's columns and their derivatives d_j: d(beta) = i_w vol reads curl beta = rho w
    d0, d1, d2 = (d for _, d in complex_step(Section(lambda q: beta(*q.T)).coeff_at, pts))
    curl = np.stack([d1[:, 2] - d2[:, 1], d2[:, 0] - d0[:, 2], d0[:, 1] - d1[:, 0]], axis=-1)
    rho = np.asarray(vol(pts), dtype=float)[..., None]
    defect = float(np.abs(curl - rho * base.values([w_bar], pts)[:, 0]).max())
    if not defect <= _CURVATURE_TOL:    # a NaN defect is refused too
        raise CurvatureMismatch(
            f"d(beta) differs from i_w vol by {defect:.3e} (tol {_CURVATURE_TOL:g})")

    def rows(pts):
        # rows h_i = d/dq_i - beta_i d/dtheta, then Theta = d/dtheta
        b1, b2, b3 = beta(*_columns(pts)[:3])
        return (1, 0, 0, -b1), (0, 1, 0, -b2), (0, 0, 1, -b3), (0, 0, 0, 1)

    model = fiber_chart(base, rows, f"prequantum({base.name})")

    def lift_section(s: Section, name) -> Section:
        # base-frame coefficients must be chart components for the h-frame:
        # a constant section keeps its coefficients, otherwise the base
        # section's chart entries are its first three
        if s.is_constant:
            return Section((*s.coeffs, 0.0), name)
        return Section(lambda pts: (*base.entries([s], pts[:, :3])[0], 0), name)

    D = [lift_section(c.xi[0], "h-xi1"), lift_section(c.xi[1], "h-xi2")]
    E = [Section((1, 0, 0, 0), "h1"), Section((0, 1, 0, 0), "h2"),
         Section((0, 0, 1, 0), "h3")]
    W = lift_section(w_bar, "hW")
    if emw is None:
        emw = (D[1] if _sections_parallel(base, c.xi[0], w_bar) else D[0],
               lift_section(c.transverse, "h-transverse"))
    return EngelStructure(
        model=model, D_span=D, E_span=E, W_section=W,
        transverse_section=Section((0, 0, 0, 1), "Theta"),
        provenance="prequantum_prolongation",
        emw_frame=emw,
        aux={"contact": c, "beta": beta})


def _sections_parallel(model, a: Section, b: Section) -> bool:
    va, vb = model.values([a, b], model.box.mean(axis=1)[None])[0]
    return line_angle(va, vb)[0] < 1e-8


def _beta(q1, q2, q3):
    """The connection 1-form -q2 dq1, with d(beta) = dq1 ^ dq2, at coordinate
    columns: its coefficients (-q2, 0, 0)."""
    return -q2, 0, 0


def _unit_density(pts):
    return np.ones(len(pts))


def prequantum_local() -> EngelStructure:
    """The built-in local model: V = (x, z, w), xi = ker(dz - w dx),
    w_bar = d/dw, vol = dx^dz^dw, beta = -z dx.

    After the gauge normalization this is the standard Engel structure in the
    coordinates (x, theta, z, w); the M-chart here is ordered (x, z, w, theta).
    """
    base = ChartModel(3, [[-2, 2]] * 3, coordinate_frame(3), name="prequantum-base")
    xi = (Section((0, 0, 1), "dw"),
          Section(lambda pts: (1, pts[:, 2], 0), "X0"))
    c = ContactModel(model=base, xi=xi, transverse=Section((0, 1, 0), "dz"))
    s = prequantum_prolongation(c, w_bar=Section((0, 0, 1), "dw"),
                                vol=_unit_density, beta=_beta)
    s.provenance = "prequantum_local"
    return s


# ---------------------------------------------------------------------------
# propellor constructions
# ---------------------------------------------------------------------------

def _logm2(m: np.ndarray) -> np.ndarray:
    """Real logarithm of a 2x2 unimodular matrix with trace > -2, the inverse
    of :func:`closed_form_exp` at t = 1: for m = h I + N (:func:`_trace_split`)
    and h = cosh(a), a imaginary when |h| < 1, log m = a / sinh(a) N, or N at a = 0."""
    m = np.asarray(m, dtype=float)
    if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) > 1e-12:
        raise ConfigError("monodromy must be unimodular")
    h, N, _ = _trace_split(m)
    if h <= -1.0:
        raise ConfigError(f"monodromy trace {2 * h:g} <= -2 has no real logarithm")
    a = np.arccosh(complex(h))
    return (a / np.sinh(a)).real * N if a else N


def propellor_line_path(phi: Callable, turns: int = 1) -> Callable:
    """Equivariant rotating line path (a, b)(t) = phi^t . (cos, sin)(2 pi turns t),
    mapping fiber times (n,) to (n, 2), for phi = closed_form_exp(L), L the log monodromy.

    Equivariant as a vector field for every integer ``turns``; rotation stays
    monotone as long as 2 pi turns exceeds the angular rate of L.
    """
    def path(t):
        u = np.stack([np.cos(2 * np.pi * turns * t),
                      np.sin(2 * np.pi * turns * t)], axis=-1)
        return np.einsum("nij,nj->ni", phi(t), u)

    return path


def propellor_structure(monodromy: np.ndarray,
                        line_path: Optional[Callable] = None,
                        turns: int = 1) -> tuple[ContactModel, EngelStructure]:
    """Mapping-torus contact model with a rotating fiberwise line field and
    its pre-quantum prolongation.

    The suspension field d/dt is the Legendrian, volume-preserving field fed to the
    pre-quantization (its dual closed 2-form is the fiber area dx^dy).  The E/W working
    frame is the monodromy-equivariant frame phi^t(e1), phi^t(e2), in which the
    mapping-torus holonomy is visible on one chart.  ``line_path`` maps fiber times (n,)
    to (n, 2) and is analytic: its rotation is read by the complex step.
    """
    m = np.asarray(monodromy, dtype=float)
    L = _logm2(m)
    phi = closed_form_exp(L)
    path = line_path if line_path is not None else propellor_line_path(phi, turns=turns)

    ts = np.linspace(0.0, 1.0, _PATH_CHECKS)
    ab0, ab1 = path(ts), path(ts + 1.0)
    if np.abs(ab1 - ab0 @ m.T).max() > 1e-8 * max(1.0, np.abs(ab1).max()):
        raise EquivarianceError("line path is not equivariant under the monodromy")
    abp = path(ts + 1e-30j).imag / 1e-30
    omega = ab0[:, 0] * abp[:, 1] - ab0[:, 1] * abp[:, 0]
    if np.abs(omega).min() < 1e-10 or np.sign(omega).min() != np.sign(omega).max():
        raise NotContact("line path angular velocity must keep a single sign")

    base = ChartModel(3, [[0, 1], [0, 1], [0, 1]], coordinate_frame(3),
                      periodic={0: 1.0, 1: 1.0}, name="propellor-base")

    def normal(pts):
        a, b = path(pts[:, 2]).T
        return -b, a, 0

    xi = (Section(lambda pts: (*path(pts[:, 2]).T, 0), "l"), Section((0, 0, 1), "dt"))
    contact = ContactModel(model=base, xi=xi, transverse=Section(normal, "n"))

    # phi^t(e_1) and phi^t(e_2), the columns of phi^t = exp(t L)
    P = Section(lambda pts: (*phi(pts[:, 2])[:, :, 0].T, 0, 0), "hP")
    Q = Section(lambda pts: (*phi(pts[:, 2])[:, :, 1].T, 0, 0), "hQ")

    s = prequantum_prolongation(contact, w_bar=Section((0, 0, 1), "dt"),
                                vol=_unit_density, beta=_beta, emw=(P, Q))
    s.provenance = "propellor"
    # the W-flow only moves t; everything entering the transport is
    # 1-periodic in t in the equivariant frame, so long orbits may wrap
    s.model = replace(s.model, periodic={**s.model.periodic, 2: 1.0})
    s.aux["log_monodromy"] = L
    return contact, s


def bi_engel_pair(monodromy: np.ndarray = ((2, 1), (1, 1)),
                  turns: int = 1) -> tuple[EngelStructure, EngelStructure]:
    """Two Engel structures sharing one even contact structure.

    The propellor even contact structure over a hyperbolic monodromy carries
    two invariant line fields in E/W (the equivariant eigen-directions); the
    diagonal planes <W, u + s> and <W, u - s> are both Engel for the same E,
    a bi-Engel pair of genuine-hyperbolic type.
    """
    if _trace_split(monodromy)[0] <= 1.0 + 5e-13:
        raise ConfigError("bi-Engel pair needs a hyperbolic monodromy")
    contact, s = propellor_structure(monodromy, turns=turns)
    # L = log m has m's unstable line vu and stable line vs, at the rate rho(L) = log lambda_u
    _, vu, vs, lmu, _ = _eigen_lines(s.aux["log_monodromy"])
    vs = vs if vu[0] * vs[1] > vu[1] * vs[0] else -vs      # det[vu, vs] > 0

    def eig_cols(vec, rate, pts):
        # the x and y coefficient columns of exp(rate t) vec, (2, n)
        return np.exp(rate * pts[:, 2]) * vec[:, None]

    U = Section(lambda pts: (*eig_cols(vu, -lmu, pts), 0, 0), "hU")
    S = Section(lambda pts: (*eig_cols(vs, +lmu, pts), 0, 0), "hS")

    def diag_sec(sign):
        return Section(lambda pts: (*(eig_cols(vu, -lmu, pts) + sign * eig_cols(vs, +lmu, pts)),
                                    0, 0), f"hU{'+' if sign > 0 else '-'}hS")

    W = Section((0, 0, 1, 0), "hW")
    plus, minus = (EngelStructure(model=s.model, D_span=[W, diag_sec(sign)],
                                  E_span=list(s.E_span), W_section=W,
                                  transverse_section=s.transverse_section,
                                  provenance=f"bi_engel[{'+' if sign > 0 else '-'}]",
                                  emw_frame=(U, S)) for sign in (+1, -1))
    return plus, minus


# ---------------------------------------------------------------------------
# suspension
# ---------------------------------------------------------------------------

@dataclass
class SuspensionData:
    """Input data for the suspension construction.

    ``phi`` is a contactomorphism of the contact model, with jacobian
    ``dphi`` and inverse ``phi_inv``; ``rho(t, v)`` is the twist profile and ``K`` the
    twist count, with rho(0, v) = 0, rho(1, v) = K pi - d(v) for the measured twisting
    angle d of phi, and d rho / dt > 0, read by the complex step: rho is analytic in t.
    """

    contact: ContactModel
    phi: Callable
    dphi: Callable
    phi_inv: Callable
    rho: Callable
    K: int

    def twisting_angle(self, pts: np.ndarray) -> np.ndarray:
        """Angle of (phi_* l1) from l1 in the Legendrian-frame metric, in [0, pi)."""
        base = self.contact.model
        l1, l2 = self.contact.legendrian_frame
        pts = np.atleast_2d(pts)
        pre = np.atleast_2d(self.phi_inv(pts))
        v = base.values([l1], pre)[:, 0]
        J = np.asarray(self.dphi(pre), dtype=float)
        pushed = np.einsum("nij,nj->ni", J, v)
        basis = base.values([l1, l2, self.contact.transverse], pts)
        coef = frame_coords(basis, pushed[:, None], "the Legendrian frame and the "
                            "transverse section do not span TM")[:, 0]
        return np.mod(_line_angle(coef[:, :2]), np.pi)


def suspension(sd: SuspensionData) -> EngelStructure:
    """Mapping-torus Engel structure: D rotates by the twist profile rho.

    The chart covers the fundamental domain t in [0, 1]; deck-gluing data is
    the caller's concern and the profile invariants are checked at samples.
    """
    c = sd.contact
    frame = _legendrian_frame(c)
    base = c.model
    pts = base.sample(_TWIST_CHECKS)
    r0 = np.atleast_1d(sd.rho(np.zeros(pts.shape[0]), pts))
    if np.abs(r0).max() > _TWIST_TOL:
        raise TwistMonotonicityError("rho(0, v) must vanish")
    r1 = np.atleast_1d(sd.rho(np.ones(pts.shape[0]), pts))
    d = sd.twisting_angle(pts)
    target = sd.K * np.pi - d
    # compare as line angles (the twisted plane repeats after a half turn)
    mismatch = np.abs(np.mod(r1 - target + np.pi / 2, np.pi) - np.pi / 2)
    if mismatch.max() > 1e-3:
        raise TwistMonotonicityError(
            f"rho(1, v) differs from K pi - d(v) by up to {mismatch.max():.3e}")
    tv = np.repeat(np.linspace(0.0, 1.0, 11), pts.shape[0]) + 1e-30j
    if (np.asarray(sd.rho(tv, np.tile(pts, (11, 1)))).imag / 1e-30).min() <= 0:
        raise TwistMonotonicityError("d rho / dt must be positive")

    model = fiber_chart(base, frame, f"suspension({base.name})", hi=1.0, period=None)

    return _rotating_plane(model, lambda pts: sd.rho(pts[:, 3], pts[:, :3]), "suspension")


def suspension_identity(K: int = 1) -> EngelStructure:
    """Suspension of contact R^3 by the identity, rho = K pi t (reproduces Cartan)."""
    c = standard_contact_r3()
    ident = lambda pts: pts.copy()
    dident = lambda pts: np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()
    sd = SuspensionData(contact=c, phi=ident, dphi=dident, phi_inv=ident,
                        rho=lambda t, v: K * np.pi * t, K=K)
    s = suspension(sd)
    s.provenance = "suspension_identity"
    return s


def suspension_geodesic(kappa: float = -1.0) -> EngelStructure:
    """Suspension of the unit tangent bundle by the geodesic flow.

    The twisted plane is <d/dt, (phi_{-t})_* Z>; on a constant-curvature
    chart the pushforward solves V' = [X, V], giving the closed form
    a(t) Y + b(t) Z with a' = -b, b' = kappa a, a(0) = 0, b(0) = 1.  The
    chart covers one fundamental domain t in [0, 2 pi] of the mapping torus
    of the time-2 pi map; it is isomorphic to the product Lorentz extension.
    """
    ut = unit_tangent_frames(constant_curvature_surface(kappa))
    model = fiber_chart(ut.model, _fiber_frame(ut.model.rows),
                        f"suspension-geodesic(k={kappa:g})", period=None)

    # the flow pushes Y forward to column 0 and Z to column 1 of
    # exp(t [[0, -1], [kappa, 0]]) in the (Y, Z) plane
    flow = closed_form_exp([[0.0, -1.0], [float(kappa), 0.0]])

    def pushed_section(j, name):
        return Section(lambda pts: (0, 0, *flow(pts[:, 3])[:, :, j].T), name)

    D = [Section((1, 0, 0, 0), "T"), pushed_section(1, "C")]
    E = [Section((1, 0, 0, 0), "T"), Section((0, 0, 1, 0), "Y"),
         Section((0, 0, 0, 1), "Z")]
    # the E/W frame must be the flow-equivariant one: on a mapping-torus
    # chart the deck holonomy is only visible in pushed-forward sections
    return EngelStructure(
        model=model, D_span=D, E_span=E,
        W_section=Section((1, 0, 0, 0), "T"),
        transverse_section=Section((0, 1, 0, 0), "X"),
        provenance="suspension_geodesic",
        emw_frame=(pushed_section(0, "Ys"), pushed_section(1, "Zs")),
        aux={"ut": ut})
