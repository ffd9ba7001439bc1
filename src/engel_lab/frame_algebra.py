"""Vector fields, frames, Lie brackets, frame coordinates, and distribution ranks.

Every model in this package is parallelizable and comes in one of two kinds:

* a :class:`ChartModel` on a coordinate box whose global frame is one batched
  function ``rows(pts (n, dim))``: ``dim`` rows of ``dim`` entries, each a
  number, an (n,) column or a float at a single real point, row ``i`` the chart
  components of frame field ``i``.  An entry that is an int is the same
  number at every point; an entry that varies is never an int, or
* a :class:`LieModel` given by exact structure constants on an abstract frame.

Distribution sections are frame-coefficient combinations: a constant row, or
one function of a batch of chart points returning all the coefficient columns,
so work the columns share runs once per evaluation.  That is all the
constructions here need: brackets of such sections reduce to frame brackets
plus directional derivatives of coefficients, and both are computable.

Both model kinds answer one batched protocol, so consumers never branch on
the kind.  A Lie model is homogeneous: it answers one row, a batch of 1 that
broadcasts against any batch of points.

* ``values(sections, pts) -> (n, k, dim)``: chart components of each section,
  filled from its ``entries`` (chart), or its constant frame coefficients (Lie);
* ``brackets(sections, pairs, pts) -> (n, P, dim)``: the bracket of each
  section pair ``(a, b)`` in ``pairs``.  On a chart all of them come from the
  complex step of the stacked section values, one coordinate at a time
  (:func:`bracket_chart`); on a Lie model each is the exact
  structure-constant contraction :func:`bracket_lie`;
* ``point(u)``, ``sample(n, skip)``: the point at unit-box coordinates ``u``
  and ``n`` Halton points of the chart box, or the Lie model's base point;
* ``flow(section, starts, T, dt)``: RK4 orbits stopped at the chart exit, or
  the straight lines of a constant section in exponential coordinates;
* ``wrap(pts)``: the chart's periodic coordinates wrapped into the box, or
  the identity on a Lie model.

Points are numpy arrays, always a batch ``(n, dim)``: a frame function, a
:class:`ChartVectorField`, a section's coefficients and every protocol method
take one, and a chart refuses no points or a single point ``(dim,)`` with
:class:`DimensionMismatch`.  Only :func:`bracket_chart` also takes a single
point.  Entries and coefficients are analytic and keep complex points complex:
``values``, ``field``, ``frame`` and ``coeff_at`` allocate in the points'
dtype.  A section meets its chart frame by one rule, :func:`_entry_sum`, in
:meth:`ChartModel.entries` and in the one closure of :meth:`ChartModel.field`.
A chart ``flow`` integrates the section's ``field``; where a constant
section's nonzero coefficients read only int entries the field is constant in
the chart, and every orbit is one prefix sum of the RK4 increment.
Coordinates in a frame of TM are Cramer's rule on 3x3 minors
(:func:`frame_coords`), with no LAPACK call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (ChartExit, DimensionMismatch, EmptyInput, FrameDegenerate,
                     NonFiniteEvaluation, StepTooLarge)

RANK_TOL = 1e-8         # singular values above this count toward a rank
_MARGINAL_BAND = 10.0   # a rank is marginal if a singular value is within this factor of tol
_CERTIFY_FACTOR = 2.0   # a certified least singular value clears the band's top edge by this factor
_BIG = np.finfo(float).max   # box-test bound of an unbounded coordinate: NaN and inf fail it


def _points(p: np.ndarray, dim: int) -> np.ndarray:
    """``p`` as a batch of chart points (n, dim), complex or else float;
    raises :class:`DimensionMismatch` for no point, a single point or a wrong width."""
    p = np.asarray(p, dtype=complex if np.iscomplexobj(p) else float)
    if p.ndim != 2 or p.shape[1] != dim:
        raise DimensionMismatch(f"points have shape {p.shape}, expected (n, {dim})")
    return p


class ChartVectorField:
    """An evaluable vector field on a coordinate chart: a realized section.

    ``components`` maps points (n, dim) to chart components (n, dim).
    """

    def __init__(self, components, name=""):
        self.components = components
        self.name = name

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self.components(p)

    def __repr__(self):
        return f"ChartVectorField({self.name or 'anonymous'})"


def coordinate_frame(dim: int) -> Callable[[np.ndarray], tuple]:
    """The coordinate frame d/dq_i as a frame function: constant rows."""
    rows = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return lambda pts: rows


def complex_step(f, pts: np.ndarray):
    """For each coordinate ``j`` of the real points (n, dim), ``f`` at the
    points plus 1e-30 i along ``j`` as (real part, imaginary part / 1e-30):
    for an analytic ``f``, its values and its derivative along ``j`` to
    rounding.  Raises :class:`TypeError` where ``f`` is real at complex
    points: its derivative would read 0."""
    for j in range(pts.shape[1]):
        z = pts.astype(complex)
        z[:, j] += 1e-30j
        if not np.iscomplexobj(v := np.asarray(f(z))):
            raise TypeError(f"real values at complex points: a {v.dtype} allocation on the path")
        yield v.real, v.imag / 1e-30


def bracket_chart(f: Callable[[np.ndarray], np.ndarray], pairs: Sequence[tuple[int, int]],
                  p: np.ndarray) -> np.ndarray:
    """Lie brackets [f_a, f_b] = Df_b.f_a - Df_a.f_b for each ``(a, b)`` in
    ``pairs``, at ``p`` (single point or batch).

    ``f`` maps points (n, dim) to stacked chart components (n, k, dim) and is
    analytic: the values are the real part of the first call of
    :func:`complex_step`, and each derivative column is contracted with them
    as it arrives, in coordinate order, so a batch row equals its one-row
    call.  Returns (n, P, dim), or (P, dim) for a single point.
    """
    p = np.asarray(p, dtype=float)
    pts = np.atleast_2d(p)
    a, b = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    out = 0.0
    with np.errstate(invalid="ignore"):     # inf - inf gives NaN: reported below
        for j, (real, d) in enumerate(complex_step(f, pts)):
            vals = real.copy() if j == 0 else vals   # frees the complex values of call 0
            if vals.ndim != 3 or vals.shape[::2] != pts.shape:
                raise DimensionMismatch(f"sections returned {vals.shape} at points {pts.shape}")
            out = out + (d[:, b] * vals[:, a, j, None] - d[:, a] * vals[:, b, j, None])
    if not np.all(np.isfinite(out)):
        raise NonFiniteEvaluation("bracket evaluation produced NaN or inf")
    return out[0] if p.ndim == 1 else out


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class LieModel:
    """Exact structure constants: [e_i, e_j] = sum_k c[k, i, j] e_k.

    Raises :class:`DimensionMismatch` when made from constants whose
    antisymmetry or Jacobi defect passes 1e-12 max|c| or 1e-12 max|c|^2, or
    is NaN.
    """

    names: Sequence[str]
    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = len(self.names)
        if self.c.shape != (n, n, n):
            raise DimensionMismatch("structure constants must be (n, n, n)")
        scale = np.abs(self.c).max()
        # written as not <= so that a NaN constant is refused too
        if not self.antisymmetry_defect() <= 1e-12 * scale:
            raise DimensionMismatch("structure constants are not antisymmetric")
        if not self.jacobi_defect() <= 1e-12 * scale ** 2:
            raise DimensionMismatch("structure constants violate the Jacobi identity")

    @property
    def dim(self) -> int:
        return len(self.names)

    def values(self, sections: Sequence["Section"], pts=None) -> np.ndarray:
        """Constant frame coefficients as one row, (1, k, dim), at any points."""
        rows = np.stack([s.constant_coeffs() for s in sections])
        if rows.shape[1] != self.dim:
            raise DimensionMismatch("section does not match the model frame")
        return rows[None]

    def brackets(self, sections: Sequence["Section"], pairs: Sequence[tuple[int, int]],
                 pts=None) -> np.ndarray:
        """Exact brackets of the constant section pairs as one row,
        (1, P, dim), at any points."""
        u = [s.constant_coeffs() for s in sections]
        return np.array([bracket_lie(self, u[a], u[b]) for a, b in pairs]).reshape(1, -1, self.dim)

    def point(self, u=None) -> np.ndarray:
        """The base point, (1, dim), for any unit-box coordinates."""
        return np.zeros((1, self.dim))

    def sample(self, n: int, skip: int = 100) -> np.ndarray:
        """The base point, (1, dim): every point of the model looks the same."""
        return self.point()

    def flow(self, section: "Section", starts: np.ndarray, T: float, dt: float):
        """The lines start + t * section at the step times of :func:`_time_grid`;
        every row keeps all its steps."""
        nsteps, grid = _time_grid(T, dt)
        pts = np.atleast_2d(starts)[:, None, :] + grid[::2, None] * section.constant_coeffs()
        return grid[::2], pts, np.full(len(pts), nsteps)

    def wrap(self, p: np.ndarray) -> np.ndarray:
        """No periodic coordinates: the identity."""
        return np.asarray(p, dtype=float)

    def antisymmetry_defect(self) -> float:
        return float(np.abs(self.c + np.swapaxes(self.c, 1, 2)).max())

    def jacobi_defect(self) -> float:
        """Max norm of sum_cyclic [e_i, [e_j, e_k]] over all index triples."""
        # [e_i, [e_j, e_k]] = c[m, j, k] c[l, i, m] e_l
        t = np.einsum("lim,mjk->lijk", self.c, self.c)
        cyc = t + np.transpose(t, (0, 2, 3, 1)) + np.transpose(t, (0, 3, 1, 2))
        return float(np.abs(cyc).max())


def bracket_lie(m: LieModel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact bracket of constant-coefficient sections of a Lie frame: the
    structure-constant contraction of their coefficient vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (m.dim,) or v.shape != (m.dim,):
        raise DimensionMismatch("coefficient vectors must match the frame size")
    return np.einsum("kij,i,j->k", m.c, u, v)


@dataclass
class ChartModel:
    """A chart box with a designated global frame.

    ``rows`` maps points (n, dim) to the frame, ``dim`` rows of ``dim``
    entries (see the module docstring).  ``periodic`` maps a coordinate index
    to its period (used by samplers and wrapped distances).  ``orbit_periods``
    declares periods after which the *structure* closes up along that
    coordinate, which may be shorter than the chart period (the projectivized
    fiber of the Cartan prolongation closes after pi while the angle chart
    runs to 2*pi).  Raises :class:`DimensionMismatch` when made unless the
    frame at the box midpoint, as one point and as a batch, is ``dim`` rows
    of ``dim`` entries.
    """

    dim: int
    box: np.ndarray
    rows: Callable[[np.ndarray], Sequence]
    periodic: dict = field(default_factory=dict)
    orbit_periods: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        if self.box.shape != (self.dim, 2):
            raise DimensionMismatch("box must be (dim, 2)")
        # the box test's bounds, the largest floats on the periodic coordinates,
        # which never leave the chart; read-only periods keep the bounds theirs
        self.periodic = MappingProxyType(dict(self.periodic))
        self._lo, self._hi = self.box.T.copy()
        self._lo[list(self.periodic)], self._hi[list(self.periodic)] = -_BIG, _BIG
        # the frame's shape, once: at the box midpoint as one point and as a batch
        mid = self.point(np.full((1, self.dim), 0.5))
        for pts in (mid, np.repeat(mid, 2, axis=0)):
            if (lengths := [*map(len, self.rows(pts))]) != [self.dim] * self.dim:
                raise DimensionMismatch(f"frame rows have {lengths} entries, "
                                        f"not {self.dim} rows of {self.dim}")

    def values(self, sections: Sequence["Section"], pts: np.ndarray) -> np.ndarray:
        """Chart components of the sections at the points: (n, k, dim), one
        C-ordered array filled from :meth:`entries`."""
        pts = _points(pts, self.dim)
        out = np.empty((len(pts), len(sections), self.dim), dtype=pts.dtype)
        for k, comps in enumerate(self.entries(sections, pts)):
            for j, e in enumerate(comps):
                out[:, k, j] = e
        return out

    def entries(self, sections: Sequence["Section"], pts: np.ndarray) -> list:
        """Each section's ``dim`` chart components at the points as entries of
        a frame row's kinds, from one frame call: component ``j`` is the
        :func:`_entry_sum` of column ``j`` over the section's coefficients."""
        rows = self.rows(pts := _points(pts, self.dim))
        return [[_entry_sum(terms, rows, j) for j in range(self.dim)]
                for terms in (self._terms(s, pts) for s in sections)]

    def frame(self, pts: np.ndarray) -> np.ndarray:
        """The frame as one array (n, dim, dim), row ``i`` the chart components
        of frame field ``i``: a view of its entry planes (dim, dim, n)."""
        rows = self.rows(pts := _points(pts, self.dim))
        F = np.zeros((self.dim, self.dim, len(pts)), dtype=pts.dtype)
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if type(e) is not int or e:     # an int entry 0 is in place already
                    F[i, j] = e
        return F.transpose(2, 0, 1)

    def field(self, section: "Section") -> ChartVectorField:
        """The section as an evaluable chart field of a batch (n, dim), equal
        bit for bit to its :meth:`values`: one frame call, then component
        ``j`` is the :func:`_entry_sum` of column ``j`` in the points' dtype.
        A constant section's terms are computed once, any other's per call."""
        const = self._terms(section) if section.is_constant else None

        def components(pts):
            rows = self.rows(pts)
            terms = self._terms(section, pts) if const is None else const
            out = np.empty(pts.shape, complex if np.iscomplexobj(pts) else float)
            for j in range(self.dim):
                out[:, j] = _entry_sum(terms, rows, j)
            return out
        return ChartVectorField(components, name=section.name or "section")

    def _terms(self, section: "Section", pts: np.ndarray = None) -> list:
        """A section's coefficients (i, c_i) in frame order, zero numbers
        dropped: its constant floats, or its columns at the points."""
        cols = section._row.tolist() if section.is_constant else section.coeffs(pts)
        if len(cols) != self.dim:
            raise DimensionMismatch("section does not match the model frame")
        return [(i, c) for i, c in enumerate(cols) if isinstance(c, np.ndarray) or c]

    def _constant_velocity(self, section: "Section"):
        """The chart components (dim,) of a section that is constant in the
        chart, else None: a constant section whose nonzero coefficients read
        only int entries, which are the same number at every point, so its
        field at the box midpoint is its field everywhere, bit for bit."""
        rows = self.rows(mid := self.point(np.full((1, self.dim), 0.5)))
        if section.is_constant and all(type(e) is int for i, _ in self._terms(section)
                                       for e in rows[i]):
            return self.values([section], mid)[0, 0]

    def brackets(self, sections: Sequence["Section"], pairs: Sequence[tuple[int, int]],
                 pts: np.ndarray) -> np.ndarray:
        """Chart brackets of the section pairs at the points: (n, P, dim),
        from the complex step of all the section values."""
        return bracket_chart(lambda q: self.values(sections, q), pairs, _points(pts, self.dim))

    def point(self, u) -> np.ndarray:
        """The point at unit-box coordinates ``u`` (..., dim): lo + u (hi - lo)."""
        return self.box[:, 0] + u * (self.box[:, 1] - self.box[:, 0])

    def sample(self, n: int, skip: int = 100) -> np.ndarray:
        """``n`` Halton points of the box, (n, dim): :func:`sample_box`."""
        return sample_box(self, n, skip=skip)

    def flow(self, section: "Section", starts: np.ndarray, T: float, dt: float):
        """RK4 orbits of the section from every row of ``starts``, each stopped
        at its chart exit: :func:`_rk4_orbits` of its :meth:`field`.

        A section that is constant in the chart (a constant section whose
        nonzero coefficients read only int frame entries, such as a
        coordinate field) takes :func:`_constant_orbits`, the same result bit
        for bit as one prefix sum per row; every other section steps the loop.
        """
        if (v := self._constant_velocity(section)) is not None:
            return _constant_orbits(v, starts, T, dt, self)
        return _rk4_orbits(self.field(section), starts, T, dt, self)

    def contains(self, p: np.ndarray, pad: float = 0.0) -> np.ndarray:
        """Whether each point lies in the padded box; periodic coordinates
        are bounded only by the largest float, and NaN and inf lie nowhere."""
        pts = _points(p, self.dim)
        return ((pts >= self._lo - pad) & (pts <= self._hi + pad)).all(axis=1)

    def wrap(self, p: np.ndarray) -> np.ndarray:
        """Wrap periodic coordinates into [lo, lo + period)."""
        out = _points(p, self.dim).copy()
        for j, per in self.periodic.items():
            lo = self.box[j, 0]
            out[:, j] = lo + np.mod(out[:, j] - lo, per)
        return out

    def distance(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Chart distance with periodic (and orbit-period) wrapping: one
        distance per row of ``p``, each equal to its one-row call."""
        d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
        for j, per in {**self.periodic, **self.orbit_periods}.items():
            d[..., j] = (d[..., j] + per / 2.0) % per - per / 2.0
        return np.linalg.norm(d, axis=-1)


FrameModel = Union[ChartModel, LieModel]

_PRIMES = (2, 3, 5, 7, 11, 13)


def halton_points(n: int, dim: int, skip: int = 100) -> np.ndarray:
    """Deterministic Halton sequence in [0, 1)^dim, from index ``skip + 1``."""
    if dim > len(_PRIMES):
        raise DimensionMismatch("halton sampler supports dim <= 6")
    if skip < 0:    # a negative index has all-zero digits: the corner point
        raise ValueError(f"skip must be >= 0, got {skip}")
    out = np.empty((n, dim))
    for j in range(dim):
        b = _PRIMES[j]
        i = np.arange(skip + 1, skip + n + 1, dtype=np.int64)
        col = np.zeros(n)
        f = 1.0
        while np.any(i > 0):
            f /= b
            col += f * (i % b)
            i //= b
        out[:, j] = col
    return out


def sample_box(model: FrameModel, n: int, skip: int = 100) -> np.ndarray:
    """The points of a model at ``n`` Halton coordinates: in a chart box
    (n, dim), or a Lie model's base point (1, dim)."""
    return model.point(halton_points(n, model.dim, skip=skip))


def _entry_sum(terms: list, rows: Sequence, j: int):
    """Entry ``j`` of sum c_i F_i over ``terms`` (i, c_i), from zero in frame
    order, int entries 0 skipped: the one rule that combines a section with a
    chart frame.  A number, a float at one point, or an (n,) column."""
    acc = 0.0
    for i, c in terms:
        if type(e := rows[i][j]) is not int or e:
            acc = acc + c * e
    return acc


def _orbit_setup(starts: np.ndarray, T: float, dt: float, model):
    """What every chart orbit starts from: the starts (B, dim), the step count
    and half-step grid of :func:`_time_grid` and the padded box bounds, after
    :class:`ChartExit` at t = 0 for a start outside the box."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    nsteps, grid = _time_grid(T, dt)
    if model is not None and not (inside := model.contains(starts, 1e-9)).all():
        raise ChartExit(0.0, f"start {starts[np.argmin(inside)]} lies outside the chart box")
    lo, hi = (-_BIG, _BIG) if model is None else (model._lo - 1e-9, model._hi + 1e-9)
    return starts, nsteps, grid, lo, hi


def _rk4_orbits(f: Callable, starts: np.ndarray, T: float, dt: float, model=None):
    """Classical RK4 from every row of ``starts`` (B, dim) at once.

    Every row takes the n steps of T / n of :func:`_time_grid`, T signed.
    With a chart ``model`` a start outside the box (``contains`` with pad
    1e-9) raises :class:`ChartExit` at t = 0, and a row stops at the first
    step whose point leaves it; a step to NaN or inf raises
    :class:`NonFiniteEvaluation`.  Returns (times (n + 1,), points
    (B, n + 1, dim), NaN past each row's end, steps kept per row); each row
    is bit-identical to a one-row run.
    """
    starts, nsteps, grid, lo, hi = _orbit_setup(starts, T, dt, model)
    h = T / nsteps
    pts = np.full((len(starts), nsteps + 1, starts.shape[1]), np.nan)
    pts[:, 0] = p = starts
    half, sixth = 0.5 * h, h / 6.0
    kept, live = np.full(len(starts), nsteps), np.arange(len(starts))
    for k in range(nsteps):
        k1 = f(p)
        k2 = f(p + half * k1)
        k3 = f(p + half * k2)
        k4 = f(p + h * k3)
        p = p + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        if not (ok := (p >= lo) & (p <= hi)).all():
            if not np.isfinite(p).all():
                raise NonFiniteEvaluation(f"orbit reached NaN or inf at step {k + 1} of {nsteps}")
            inside = ok.all(axis=1)
            kept[live[~inside]] = k
            live, p = live[inside], p[inside]
            if not live.size:
                break
        pts[live, k + 1] = p
    return grid[::2], pts, kept


def _constant_orbits(v: np.ndarray, starts: np.ndarray, T: float, dt: float, model):
    """:func:`_rk4_orbits` of the constant field ``v`` (dim,) on a chart
    ``model``, bit for bit, with no loop over the steps.

    Every RK4 step of a constant field adds the same increment
    h/6 (v + 2v + 2v + v), and ``np.cumsum`` adds it to each start left to
    right, as the loop does.  A row's first point outside the padded box ends
    it, as in the loop; NaN or inf there raises :class:`NonFiniteEvaluation`
    at the earliest such step of any row.
    """
    starts, nsteps, grid, lo, hi = _orbit_setup(starts, T, dt, model)
    sixth = T / nsteps / 6.0
    pts = np.empty((len(starts), nsteps + 1, starts.shape[1]))
    pts[:, 0] = starts
    pts[:, 1:] = sixth * (v + 2 * v + 2 * v + v)
    with np.errstate(over="ignore", invalid="ignore"):   # past a row's end, or reported below
        np.cumsum(pts, axis=1, out=pts)
    outside = ~((pts[:, 1:] >= lo) & (pts[:, 1:] <= hi)).all(axis=2)     # (B, n) per step
    kept = np.where(outside.any(axis=1), outside.argmax(axis=1), nsteps)
    if (left := kept < nsteps).any():
        rows = np.flatnonzero(left)
        bad = ~np.isfinite(pts[rows, kept[rows] + 1]).all(axis=1)
        if bad.any():
            step = kept[rows[bad]].min() + 1
            raise NonFiniteEvaluation(f"orbit reached NaN or inf at step {step} of {nsteps}")
        pts[np.arange(nsteps + 1) > kept[:, None]] = np.nan
    return grid[::2], pts, kept


def _time_grid(T: float, dt: float) -> tuple[int, np.ndarray]:
    """The step rule of every integrator: n = max(1, round(|T| / dt)) steps
    of T / n, T signed, and their half-step grid linspace(0, T, 2n + 1), whose
    even entries are the step times linspace(0, T, n + 1) bit for bit.  Raises
    :class:`StepTooLarge` unless T is finite, dt finite and positive, and
    |T| / dt below half the largest array index, so that 2n + 1 is one."""
    if not (np.isfinite(T) and np.isfinite(dt) and dt > 0):
        raise StepTooLarge(f"need a finite T and a finite dt > 0, got T={T:g}, dt={dt:g}")
    if not abs(T) / dt < np.iinfo(np.intp).max / 2:
        raise StepTooLarge(f"T={T:g} at dt={dt:g} needs {abs(T) / dt:g} steps, "
                           "more than an array can hold")
    nsteps = max(1, int(round(abs(T) / dt)))
    return nsteps, np.linspace(0.0, T, 2 * nsteps + 1)


def _annihilator(E: np.ndarray) -> np.ndarray:
    """Components (..., 4) of the 1-form alpha(v) = det(e_1, e_2, e_3, v) whose
    kernel is the span of the rows of ``E`` (..., 3, 4): the signed 3x3 minors
    of ``E``, expanded along e_3 over the six 2x2 minors of e_1 and e_2."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = np.moveaxis(E, (-2, -1), (0, 1))
    p01, p02, p03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    p12, p13, p23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    return np.stack([c2 * p13 - c1 * p23 - c3 * p12,
                     c0 * p23 - c2 * p03 + c3 * p02,
                     c1 * p03 - c0 * p13 - c3 * p01,
                     c0 * p12 - c1 * p02 + c2 * p01], axis=-1)


def _check_frame(det: np.ndarray, frame: np.ndarray, degenerate: str) -> None:
    """Raises :class:`FrameDegenerate`, message ``degenerate``, where |``det``| is
    at most 1e-10 of the product of the row lengths of ``frame`` (n, dim, dim)."""
    scale = np.sqrt(np.einsum("nkd,nkd->nk", frame, frame)).prod(axis=-1)
    if not np.all(np.abs(det) > 1e-10 * scale):
        raise FrameDegenerate(degenerate)


def frame_coords(frame: np.ndarray, vecs: np.ndarray, degenerate: str) -> np.ndarray:
    """Coordinates of ``vecs`` (n, m, dim) in the rows of ``frame`` (n, dim,
    dim), a basis of TM at every point, by Cramer's rule: (n, m, dim).

    Coordinate k is v . cof_k / det, the cofactor rows cof_k being
    (-alpha_234, alpha_134, -alpha_124, alpha_123) in dim 4, alpha_abc the
    :func:`_annihilator` of rows a, b, c, and f_2 x f_3, f_3 x f_1, f_1 x f_2
    in dim 3; det = f_dim . cof_dim.  Raises :class:`DimensionMismatch` in any
    other dim, and :func:`_check_frame`'s :class:`FrameDegenerate` up front.
    """
    if frame.shape[1:] not in ((3, 3), (4, 4)):
        raise DimensionMismatch(f"frames must be (n, 3, 3) or (n, 4, 4), got {frame.shape}")
    if frame.shape[1] == 4:
        cof = (_annihilator(frame[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]])
               * [[-1.0], [1.0], [-1.0], [1.0]])
    else:
        (a0, a1, a2), (b0, b1, b2) = np.moveaxis(frame[:, [[1, 2, 0], [2, 0, 1]]], (1, 3), (0, 1))
        cof = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)
    det = np.einsum("nd,nd->n", frame[:, -1], cof[:, -1])
    _check_frame(det, frame, degenerate)
    return np.einsum("nmd,nkd->nmk", vecs, cof) / det[:, None, None]


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

class Section:
    """A frame-coefficient combination sum_i c_i(p) e_i.

    ``coeffs`` is either a constant row of numbers, one per frame field, or
    one function of the chart points (n, dim) that returns the coefficient
    columns in frame order, each an (n,) array or a number (a (dim, n) array
    is such a sequence of columns).  On a Lie model only a constant row is
    meaningful.
    """

    def __init__(self, coeffs, name: str = ""):
        self.name = name
        if callable(coeffs):
            self.coeffs, self._row = coeffs, None
            return
        self.coeffs = tuple(coeffs)
        if any(callable(c) for c in self.coeffs):
            raise TypeError(f"section {name!r}: coefficients are a row of numbers or one "
                            "function of the points returning all columns, not a mix")
        self._row = np.array([float(c) for c in self.coeffs])

    @property
    def is_constant(self) -> bool:
        return self._row is not None

    def constant_coeffs(self) -> np.ndarray:
        if self._row is None:
            raise DimensionMismatch(f"section {self.name!r} has non-constant coefficients")
        return self._row.copy()

    def coeff_at(self, pts: np.ndarray) -> np.ndarray:
        """Coefficient vectors at the points (n, dim): (n, len), read-only for
        a constant section.  A function is called once, on the whole batch."""
        if self._row is not None:
            return np.broadcast_to(self._row, (len(pts), len(self._row)))
        cols = self.coeffs(pts)
        out = np.empty((len(pts), len(cols)), dtype=pts.dtype)
        for j, c in enumerate(cols):
            out[:, j] = c
        return out

    def __repr__(self):
        return f"Section({self.name or self.coeffs})"


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def _certified(A: np.ndarray, tol: float) -> np.ndarray:
    """Whether each matrix of ``A`` (..., k, 4) passes the minor certificate of
    :func:`rank_with_margin`; False everywhere for one row or another width."""
    if A.shape[-1] != 4 or A.shape[-2] < 2:
        return np.zeros(A.shape[:-2], dtype=bool)
    with np.errstate(all="ignore"):     # zero, NaN and inf stacks fail the test below
        F = np.sqrt(np.einsum("...kd,...kd->...", A, A))
        U = A / F[..., None, None]      # unit Frobenius norm: no minor over- or underflows
        if A.shape[-2] == 2:
            i, j = np.triu_indices(4, 1)
            m = U[..., 0, i] * U[..., 1, j] - U[..., 0, j] * U[..., 1, i]
        elif A.shape[-2] == 3:
            m = _annihilator(U)
        else:
            m = np.einsum("...kd,...d->...k", U[..., 3:, :], _annihilator(U[..., :3, :]))
        vol = np.sqrt(np.einsum("...m,...m->...", m, m))
        return (F > 1e-150) & (tol > 1e-12 * F) & (vol > _CERTIFY_FACTOR * _MARGINAL_BAND * tol / F)


def rank_with_margin(vectors: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Batched rank of stacked row vectors, plus a marginal flag: the number
    of singular values above ``tol``, and whether one falls within a factor
    ``_MARGINAL_BAND`` of it.  ``vectors`` has shape (..., k, dim).

    Each matrix A with dim 4 first meets a certificate built from minors,
    with no LAPACK call.  By Cauchy-Binet, sigma_1 ... sigma_r (r = min(k,
    4)) is the root sum of squares of all r x r minors, and sigma_1 <=
    |A|_F, so sigma_r >= vol / |A|_F^(r-1) for vol the root sum of squares
    of any subset of them: the six 2x2 minors for k = 2, the
    :func:`_annihilator` alpha of the rows (their 3x3 minors) for k = 3, and
    alpha . r_j for k >= 4, alpha that of the first three rows and r_j each
    further row (4x4 minors).  They are read on A / |A|_F, where a minor is
    at most 1 and its rounding a few eps.  Where |A|_F > 1e-150, 1e-12 |A|_F
    < tol and vol > ``_CERTIFY_FACTOR`` ``_MARGINAL_BAND`` tol |A|_F^(r-1),
    every singular value is at least 20 tol, and the SVD's own error of a
    few eps sigma_1 < 1e-3 tol cannot bring one to the band's top edge 10
    tol: the rank is r and not marginal, as the SVD would report.  Every other
    matrix (a rank deficit, a value near ``tol``, a zero or huge matrix, one row,
    another dim) takes the SVD rule; one with NaN or inf raises NonFiniteEvaluation.
    """
    A = np.asarray(vectors, dtype=float)
    rank = np.full(A.shape[:-2], min(A.shape[-2:]))
    marginal = np.zeros(A.shape[:-2], dtype=bool)
    if (todo := ~_certified(A, tol)).any():
        if bad := int((~np.isfinite(rest := A[todo])).any(axis=(-2, -1)).sum()):
            raise NonFiniteEvaluation(f"rank of {bad} of {rank.size} matrices with NaN or inf")
        sv = np.linalg.svd(rest, compute_uv=False)
        rank[todo] = (sv > tol).sum(axis=-1)
        marginal[todo] = ((sv > tol / _MARGINAL_BAND) & (sv < tol * _MARGINAL_BAND)).any(axis=-1)
    return rank[()], marginal[()]       # numpy scalars for one matrix (k, dim), as the SVD gives


def distribution_rank(vectors: Sequence[np.ndarray]) -> int:
    """Number of singular values of the stacked matrix above ``RANK_TOL``."""
    if not (vectors := list(vectors)):
        raise EmptyInput("no vectors supplied")
    mat = np.vstack([np.asarray(v, dtype=float) for v in vectors])
    rank, _ = rank_with_margin(mat, RANK_TOL)
    return int(rank)

