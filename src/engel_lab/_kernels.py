"""Integration kernels, vectorized with numpy.

``dcurve_rk4`` integrates the D-curve control ODE by classical RK4 as four
prefix sums (``np.cumsum``), one per coordinate, so no Python loop runs over
the steps.  Both kernels take their samples on the half-step grid of
``frame_algebra._time_grid``.  ``transport_rk4`` solves the
E/W transport M' = A(t) M with 4th-order Magnus steps: every step is one
2x2 exponential (``expm2``), and the steps are multiplied together by a
log-depth prefix product, so no Python loop runs over the steps.  Its 2x2
products are elementwise products and sums on the entry planes (2, 2, n)
with no BLAS call, so their bits do not depend on the BLAS kernel.
``closed_form_exp`` is t -> exp(t A) for one fixed generator A; ``expm2``
serves the Magnus exponents, which change from step to step.
``tests/test_rigidity_lab.py`` checks the D-curve kernel against a scalar
reference copy and the prefix product against the sequential one.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import FrameDegenerate

# there is no numba path; the constant stays for the provenance record
# that perfbench/run.py writes
HAS_NUMBA = False

# curves per prefix-sum block: the (block, nsteps) stage arrays stay in
# cache, and peak memory stays near that of the output
_DCURVE_BLOCK = 8


def dcurve_rk4(u_half: np.ndarray, v_half: np.ndarray, starts: np.ndarray,
               dt: float, long_chart: bool = False) -> np.ndarray:
    """RK4 for the D-curve control ODE, batched over curves.

    Standard Engel-Darboux chart (``long_chart`` false)::

        x' = u,  y' = z u,  z' = w u,  w' = v

    long chart (``long_chart`` true, last coordinate is the angle)::

        x' = u cos(th),  y' = u z cos(th),  z' = u sin(th),  th' = v

    ``u_half``/``v_half`` hold control values on the half-step grid
    t0, t0+dt/2, t0+dt, ... with shape (batch, 2*nsteps + 1).

    The system is the chained form: the RK4 stages of w (or th) need only
    the controls, those of z need w, those of y need z and w, and those of x
    need the controls (and th).  So each coordinate's increments are built
    for all steps at once from the coordinates already integrated, with the
    operations of a step-by-step RK4 in the same order, and ``np.cumsum``
    adds them left to right.  The result is the step-by-step result bit for
    bit.  Curves go through in blocks of ``_DCURVE_BLOCK``; the result is a
    (batch, nsteps + 1, 4) view of a coordinate-major buffer.
    """
    u_half = np.asarray(u_half, dtype=float)
    v_half = np.asarray(v_half, dtype=float)
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    dt = float(dt)
    nsteps = (u_half.shape[1] - 1) // 2
    out = np.empty((4, starts.shape[0], nsteps + 1))

    def scan(j, rows, k1, k2, k3, k4):
        # coordinate j of a block: its start, then the running sum of its
        # RK4 increments; returns its values at the start of each step
        c = out[j, rows]
        c[:, 0] = starts[rows, j]
        c[:, 1:] = dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return np.cumsum(c, axis=1, out=c)[:, :-1]

    for lo in range(0, starts.shape[0], _DCURVE_BLOCK):
        rows = slice(lo, lo + _DCURVE_BLOCK)
        u, v = u_half[rows], v_half[rows]
        u0, um, u1 = u[:, 0:-2:2], u[:, 1::2], u[:, 2::2]
        v0, vm, v1 = v[:, 0:-2:2], v[:, 1::2], v[:, 2::2]
        w = scan(3, rows, v0, vm, vm, v1)
        w2, w3, w4 = w + 0.5 * dt * v0, w + 0.5 * dt * vm, w + dt * vm
        if not long_chart:
            kz = (w * u0, w2 * um, w3 * um, w4 * u1)
        else:
            c1, c2, c3, c4 = np.cos(w), np.cos(w2), np.cos(w3), np.cos(w4)
            kz = (u0 * np.sin(w), um * np.sin(w2), um * np.sin(w3), u1 * np.sin(w4))
        z = scan(2, rows, *kz)
        z2, z3, z4 = z + 0.5 * dt * kz[0], z + 0.5 * dt * kz[1], z + dt * kz[2]
        if not long_chart:
            scan(1, rows, z * u0, z2 * um, z3 * um, z4 * u1)
            scan(0, rows, u0, um, um, u1)
        else:
            scan(1, rows, u0 * z * c1, um * z2 * c2, um * z3 * c3, u1 * z4 * c4)
            scan(0, rows, u0 * c1, um * c2, um * c3, u1 * c4)
    return out.transpose(1, 2, 0)


def expm2(O: np.ndarray) -> np.ndarray:
    """exp of every 2x2 matrix in ``O`` (n, 2, 2), in closed form.

    With N = O - (tr/2) I one has N^2 = r^2 I, r^2 = N00^2 + N01 N10, so
    exp(O) = e^{tr/2} (cosh r I + sinh(r)/r N).  r is taken complex: an
    imaginary r gives the cos/sin (elliptic) form, r = 0 the unipotent one.
    """
    O = np.asarray(O, dtype=float)
    half_tr = 0.5 * (O[:, 0, 0] + O[:, 1, 1])
    N = O - half_tr[:, None, None] * np.eye(2)
    r = np.sqrt(N[:, 0, 0] ** 2 + N[:, 0, 1] * N[:, 1, 0] + 0j)
    sinhc = np.ones_like(r)
    np.divide(np.sinh(r), r, out=sinhc, where=r != 0)
    scale = np.exp(half_tr)[:, None, None]
    return scale * (np.cosh(r).real[:, None, None] * np.eye(2)
                    + sinhc.real[:, None, None] * N)


def closed_form_exp(A: np.ndarray) -> Callable:
    """t -> exp(t A) for a fixed trace-free 2x2 generator A.  A number t gives
    (2, 2), times (n,) give (n, 2, 2), and every entry is elementwise, so the
    matrix at one time is its row of a batch bit for bit; complex t stays complex.

    With r^2 = -det A, A^2 = r^2 I and exp(t A) = c I + s A, where (c, s) is
    (cosh rt, sinh(rt)/r), (cos rt, sin(rt)/r) or (1, t) as r^2 > 0, < 0, = 0.
    """
    A = np.asarray(A, dtype=float)
    if abs(A[0, 0] + A[1, 1]) > 1e-12:
        raise FrameDegenerate("closed form expects a trace-free generator")
    r2 = A[0, 1] * A[1, 0] - A[0, 0] * A[1, 1]
    r = np.sqrt(abs(r2))
    cos, sin = (np.cosh, np.sinh) if r2 > 0 else (np.cos, np.sin)

    def exp(t):
        t = np.asarray(t, dtype=complex if np.iscomplexobj(t) else float)
        c, s = (cos(r * t), sin(r * t) / r) if r2 else (np.ones_like(t), t)
        return np.stack([c + s * A[0, 0], s * A[0, 1], s * A[1, 0], c + s * A[1, 1]],
                        axis=-1).reshape(t.shape + (2, 2))

    return exp


def _matmul_planes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for 2x2 matrices, as (2, 2) or as entry planes (2, 2, n).

    Entry (i, j) is x_i0 y_0j + x_i1 y_1j: the products and the sum of a
    matmul without FMA, in its order, with no BLAS call.
    """
    return x[:, 0, None] * y[None, 0] + x[:, 1, None] * y[None, 1]


def transport_rk4(A_half: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve M' = A(t) M, M(0) = I, with A sampled on the half-step grid.

    A_half: (2*nsteps + 1, 2, 2).  Returns M (nsteps + 1, 2, 2) and
    det M (nsteps + 1,).  This is a 4th-order Magnus integrator; the name
    predates it and stays because the benchmark tracer binds it.  Step k
    takes the exponent

        Omega_k = dt/6 (A0 + 4 Am + A1) + dt^2/12 [A1, A0]

    from its samples at the start, middle and end, and M_k = E_k ... E_1
    with E_k = exp(Omega_k), formed by an inclusive prefix product in
    log2(nsteps) levels.  The exponents and the prefix product are formed on
    the entry planes (2, 2, nsteps) by ``_matmul_planes``, so no BLAS call
    runs and the bits do not depend on the BLAS kernel; M is stacked once,
    at the end.  det M_k = exp(sum of tr Omega_j), which stays accurate
    where the algebraic determinant of a huge hyperbolic matrix cancels
    away.
    """
    A = np.asarray(A_half, dtype=float).transpose(1, 2, 0).copy()
    dt = float(dt)
    A0, Am, A1 = A[..., 0:-2:2], A[..., 1::2], A[..., 2::2]
    omega = (dt / 6.0 * (A0 + 4.0 * Am + A1)
             + dt * dt / 12.0 * (_matmul_planes(A1, A0) - _matmul_planes(A0, A1)))
    del A, A0, Am, A1       # the copy of A need not live through expm2 and the scan
    P = expm2(omega.transpose(2, 0, 1)).transpose(1, 2, 0).copy()
    s = 1
    while s < P.shape[-1]:
        # P[k] becomes the product of E_k down to E_{k-2s+1}
        P[..., s:] = _matmul_planes(P[..., s:], P[..., :-s])
        s *= 2
    M = np.empty((P.shape[-1] + 1, 2, 2))
    M[0] = np.eye(2)
    M[1:] = P.transpose(2, 0, 1)
    dets = np.exp(np.concatenate([[0.0], np.cumsum(omega[0, 0] + omega[1, 1])]))
    return M, dets
