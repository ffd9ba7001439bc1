"""Engel-condition verification, Cauchy characteristic extraction, and the
standard Darboux normal form.

A candidate structure passes when at every sampled point

    rank D = 2,   rank [D, D] = 3,   rank [E, E] = 4,

the first two being the defining non-integrability conditions and the last
forcing the even contact structure to be maximally non-integrable.  The
Cauchy characteristic W is the kernel of d alpha on E, where alpha(v) =
det(e_1, e_2, e_3, v) is the 1-form with kernel E.  It is read in closed
form against a declared transverse direction T: the skew pairing b_ij =
alpha([e_i, e_j]) / alpha(T) on E has the kernel b_23 e_1 - b_13 e_2 +
b_12 e_3, its Hodge dual, and rank 2 where |b| >= tol.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateKernel, DimensionMismatch, FrameDegenerate
from .frame_algebra import (RANK_TOL, ChartModel, FrameModel, Section, _annihilator,
                            _check_frame, rank_with_margin)
from .frame_algebra import sample_box  # re-exported: the acceptance suite imports it here
from .geometry_models import _columns
from .serialize import SCHEMA_VERSION, Records

_E_PAIRS = ((0, 1), (0, 2), (1, 2))   # the brackets [e_i, e_j] of the E span


@dataclass
class EngelStructure:
    """A frame model with designated spanning data for W in D in E in TM.

    ``emw_frame`` is the construction's preferred complement of W inside E,
    used as the working frame of E/W by the dynamics module.  ``aux`` carries
    construction data that the tests read back (a contact model, a connection
    form, a monodromy logarithm, a unit tangent bundle).
    """

    model: FrameModel
    D_span: Sequence[Section]
    E_span: Sequence[Section]
    W_section: Section
    transverse_section: Section
    provenance: str
    emw_frame: Sequence[Section]
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.D_span) != 2 or len(self.E_span) != 3:
            raise DimensionMismatch("need 2 D sections and 3 E sections")


@dataclass
class VerificationReport:
    provenance: str
    tolerances: dict
    points: np.ndarray
    rank_D: np.ndarray
    rank_E: np.ndarray
    rank_EE: np.ndarray
    cauchy_angle_error: np.ndarray
    marginal: np.ndarray
    passed: bool
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "provenance": self.provenance,
            "tolerances": self.tolerances,
            "passed": bool(self.passed),
            "summary": self.summary,
            "records": Records({
                "point": self.points,
                "rank_D": self.rank_D,
                "rank_E": self.rank_E,
                "rank_EE": self.rank_EE,
                "cauchy_angle_error": self.cauchy_angle_error,
                "marginal": self.marginal,
            }),
        }


def line_angle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unsigned angle between lines spanned by u and v (batched on axis 0),
    in [0, pi/2]; a zero vector reads pi/2.

    2 atan2(|u' - s v'|, |u' + s v'|) with unit vectors u', v' and s the sign
    of u.v, which keeps full precision near 0 where arccos(|u.v| / |u||v|)
    loses half the digits (Kahan, "How futile are mindless assessments of
    roundoff in floating-point computation?", 2006).
    """
    u = np.atleast_2d(u)
    v = np.atleast_2d(v)
    nu = np.linalg.norm(u, axis=-1, keepdims=True)
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    u = u / np.where(nu == 0, 1.0, nu)
    v = v / np.where(nv == 0, 1.0, nv)
    v = np.where(np.einsum("ni,ni->n", u, v)[:, None] < 0, -v, v)
    angle = 2.0 * np.arctan2(np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1))
    return np.where((nu * nv)[:, 0] == 0, np.pi / 2, angle)


def _pairing_kernel(basis: np.ndarray, brEE: np.ndarray, wdecl: np.ndarray, tol: float):
    """Kernel of the skew pairing d alpha on E, batched over points, in closed form.

    ``basis`` stacks the values of (e_1, e_2, e_3, transverse), shape
    (n, 4, 4); ``brEE`` stacks the brackets [e_1, e_2], [e_1, e_3],
    [e_2, e_3], shape (n, 3, 4).  With alpha(v) = det(e_1, e_2, e_3, v), the
    form with kernel E, the pairing is b_ij = alpha([e_i, e_j]) / alpha(T) =
    -d alpha(e_i, e_j) / alpha(T): the T-component of [e_i, e_j] in the frame
    (e_1, e_2, e_3, T).  The kernel of the skew 3x3 matrix (b_ij) is its
    Hodge dual, W = b_23 e_1 - b_13 e_2 + b_12 e_3, and its singular values
    are (|b|, |b|, 0), so it has rank 2 exactly where |b| >= ``tol``.
    Returns W unnormalized (n, 4), signed along the declared W values
    ``wdecl``, and that rank-2 mask.  Raises :class:`FrameDegenerate` where
    |alpha(T)| is at most 1e-10 of the product of the row lengths of
    ``basis``: E and the transverse section are no frame of TM.
    """
    alpha = _annihilator(basis[:, :3])
    aT = np.einsum("nd,nd->n", alpha, basis[:, 3])
    _check_frame(aT, basis, "E and the transverse section do not span TM")
    b12, b13, b23 = np.einsum("nkd,nd->kn", brEE, alpha) / aT
    wvec = (b23[:, None] * basis[:, 0] - b13[:, None] * basis[:, 1]
            + b12[:, None] * basis[:, 2])
    sign = np.sign(np.einsum("nd,nd->n", wvec, wdecl))
    sign[sign == 0] = 1.0
    return wvec * sign[:, None], np.sqrt(b12 * b12 + b13 * b13 + b23 * b23) >= tol


def cauchy_characteristic(s: EngelStructure, p: np.ndarray) -> np.ndarray:
    """Unit vector spanning the kernel of d alpha on E at ``p``.

    With alpha(v) = det(e_1, e_2, e_3, v) and b_ij = alpha([e_i, e_j]) /
    alpha(T) for the transverse section T, the kernel is b_23 e_1 - b_13 e_2
    + b_12 e_3 (see :func:`_pairing_kernel`).  Accepts a single point or a
    batch, or ``None``, which goes to the model as its points: a Lie model's
    base point, refused on a chart with :class:`DimensionMismatch`.  The sign
    is aligned with the structure's declared W section.  Raises
    :class:`DegenerateKernel` when the pairing has rank < 2, |b| < RANK_TOL
    (E is not even-contact there), and :class:`FrameDegenerate` when E and
    the transverse section do not span TM.
    """
    pts = None if p is None else np.atleast_2d(np.asarray(p, dtype=float))
    vals = s.model.values([*s.E_span, s.transverse_section, s.W_section], pts)
    brEE = s.model.brackets(s.E_span, _E_PAIRS, pts)
    wvec, ok = _pairing_kernel(vals[:, :4], brEE, vals[:, 4], RANK_TOL)
    if not ok.all():
        raise DegenerateKernel("bracket pairing on E has rank < 2")
    wvec /= np.linalg.norm(wvec, axis=-1, keepdims=True)
    return wvec if np.ndim(p) == 2 else wvec[0]


def verify_engel(s: EngelStructure, n_samples: int = 1000,
                 tol: float = None, skip: int = 100) -> VerificationReport:
    """Check ranks (2, 3, 4) at quasi-random sample points of the model.

    The points are ``s.model.sample(n_samples, skip)``: a Lie model's data is
    point-independent and it emits a single record at its base point.
    Marginal rank decisions are flagged, never silently resolved.
    """
    tol = RANK_TOL if tol is None else float(tol)
    if not (np.isfinite(tol) and tol > 0):    # tol < 0 would count every singular value
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pts = s.model.sample(n_samples, skip=skip)
    n = pts.shape[0]

    # (e_1, e_2, e_3, transverse, W, D_1, D_2) at every point
    vals = s.model.values([*s.E_span, s.transverse_section, s.W_section, *s.D_span], pts)
    Dv = vals[:, 5:]                                         # (n, 2, dim)
    rank_D, marg_D = rank_with_margin(Dv, tol)

    # [D_1, D_2] and the three [e_i, e_j] from one call over (D_1, D_2, e_1, e_2, e_3)
    br = s.model.brackets([*s.D_span, *s.E_span], [(0, 1), (2, 3), (2, 4), (3, 4)], pts)
    Ederived = np.concatenate([Dv, br[:, :1]], axis=1)
    rank_E, marg_E = rank_with_margin(Ederived, tol)

    brEE = br[:, 1:]                                         # (n, 3, dim)
    EE = np.concatenate([vals[:, :3], brEE], axis=1)
    rank_EE, marg_EE = rank_with_margin(EE, tol)

    angle = np.full(n, np.nan)
    try:
        wvec, ok = _pairing_kernel(vals[:, :4], brEE, vals[:, 4], tol)
        angle[ok] = line_angle(wvec, vals[:, 4])[ok]
    except FrameDegenerate:
        pass   # degenerate declared data; the rank records carry the failure

    marginal = marg_D | marg_E | marg_EE
    passed = bool(np.all(rank_D == 2) and np.all(rank_E == 3)
                  and np.all(rank_EE == 4))
    summary = {
        "all_rank_D_2": bool(np.all(rank_D == 2)),
        "all_rank_E_3": bool(np.all(rank_E == 3)),
        "all_rank_EE_4": bool(np.all(rank_EE == 4)),
        "max_cauchy_angle_error": float(np.nanmax(angle)) if np.any(np.isfinite(angle)) else None,
        "n_marginal": int(marginal.sum()),
        "n_samples": int(n),
    }
    return VerificationReport(
        provenance=s.provenance,
        tolerances={"rank_tol": tol, "jacobian": "complex-step"},
        points=pts,
        rank_D=rank_D,
        rank_E=rank_E,
        rank_EE=rank_EE,
        cauchy_angle_error=angle,
        marginal=marginal,
        passed=passed,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# Darboux model
# ---------------------------------------------------------------------------

def darboux_standard() -> EngelStructure:
    """The standard Engel structure on the chart box [-2, 2]^4.

    Frame (X, Y, Z, W) with X = d/dx + z d/dy + w d/dz; D is cut out by the
    pair of 1-forms dy - z dx and dz - w dx, E by dy - z dx alone, and the
    Cauchy characteristic is d/dw.
    """
    def rows(pts):
        # rows X = d/dx + z d/dy + w d/dz, Y, Z, W
        _, _, z, w = _columns(pts)
        return (1, z, w, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)

    model = ChartModel(4, [[-2, 2]] * 4, rows, name="darboux-standard")

    D = [Section((0, 0, 0, 1), "W"), Section((1, 0, 0, 0), "X")]
    E = D + [Section((0, 0, 1, 0), "Z")]
    # flow-invariant E/W frame (d/dx + z d/dy, d/dz): developing angle = arctan w
    e1 = Section(lambda pts: (1, 0, -pts[:, 3], 0), "X-wZ")
    e2 = Section((0, 0, 1, 0), "Z")
    return EngelStructure(
        model=model,
        D_span=D,
        E_span=E,
        W_section=Section((0, 0, 0, 1), "W"),
        transverse_section=Section((0, 1, 0, 0), "Y"),
        provenance="darboux_standard",
        emw_frame=(e1, e2),
    )

