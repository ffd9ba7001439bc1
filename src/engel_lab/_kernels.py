"""Integration kernels, vectorized with numpy.

``dcurve_rk4`` integrates the D-curve control ODE by classical RK4, one
step at a time for a whole batch of curves.  ``transport_rk4`` solves the
E/W transport M' = A(t) M with 4th-order Magnus steps: every step is one
2x2 exponential (``expm2``), and the steps are multiplied together by a
log-depth prefix product, so no Python loop runs over the steps.
``tests/test_rigidity_lab.py`` checks the D-curve kernel against a scalar
reference copy and the prefix product against the sequential one.
"""
from __future__ import annotations

import numpy as np

# there is no numba path; the constant stays for the provenance record
# that perfbench/run.py writes
HAS_NUMBA = False


def dcurve_rk4(u_half: np.ndarray, v_half: np.ndarray, starts: np.ndarray,
               dt: float, long_chart: bool = False) -> np.ndarray:
    """RK4 for the D-curve control ODE, batched over curves.

    Standard Engel-Darboux chart (``long_chart`` false)::

        x' = u,  y' = z u,  z' = w u,  w' = v

    long chart (``long_chart`` true, last coordinate is the angle)::

        x' = u cos(th),  y' = u z cos(th),  z' = u sin(th),  th' = v

    ``u_half``/``v_half`` hold control values on the half-step grid
    t0, t0+dt/2, t0+dt, ... with shape (batch, 2*nsteps + 1).  Steps are
    written to a step-major buffer, so the (batch, nsteps + 1, 4) result is
    a transposed view of it.
    """
    u_half = np.asarray(u_half, dtype=float)
    v_half = np.asarray(v_half, dtype=float)
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    dt = float(dt)
    nsteps = (u_half.shape[1] - 1) // 2
    buf = np.empty((nsteps + 1, 4, starts.shape[0]))
    buf[0] = starts.T
    x, y, z, w = buf[0]
    for k in range(nsteps):
        u0, um, u1 = u_half[:, 2 * k], u_half[:, 2 * k + 1], u_half[:, 2 * k + 2]
        v0, vm, v1 = v_half[:, 2 * k], v_half[:, 2 * k + 1], v_half[:, 2 * k + 2]
        if not long_chart:
            k1x, k1y, k1z, k1w = u0, z * u0, w * u0, v0
            z2, w2 = z + 0.5 * dt * k1z, w + 0.5 * dt * k1w
            k2x, k2y, k2z, k2w = um, z2 * um, w2 * um, vm
            z3, w3 = z + 0.5 * dt * k2z, w + 0.5 * dt * k2w
            k3x, k3y, k3z, k3w = um, z3 * um, w3 * um, vm
            z4, w4 = z + dt * k3z, w + dt * k3w
            k4x, k4y, k4z, k4w = u1, z4 * u1, w4 * u1, v1
        else:
            c = np.cos(w)
            k1x, k1y, k1z, k1w = u0 * c, u0 * z * c, u0 * np.sin(w), v0
            z2, t2 = z + 0.5 * dt * k1z, w + 0.5 * dt * k1w
            c = np.cos(t2)
            k2x, k2y, k2z, k2w = um * c, um * z2 * c, um * np.sin(t2), vm
            z3, t3 = z + 0.5 * dt * k2z, w + 0.5 * dt * k2w
            c = np.cos(t3)
            k3x, k3y, k3z, k3w = um * c, um * z3 * c, um * np.sin(t3), vm
            z4, t4 = z + dt * k3z, w + dt * k3w
            c = np.cos(t4)
            k4x, k4y, k4z, k4w = u1 * c, u1 * z4 * c, u1 * np.sin(t4), v1
        nxt = buf[k + 1]
        np.add(x, dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x), out=nxt[0])
        np.add(y, dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y), out=nxt[1])
        np.add(z, dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z), out=nxt[2])
        np.add(w, dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w), out=nxt[3])
        x, y, z, w = nxt
    return buf.transpose(2, 0, 1)


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


def transport_rk4(A_half: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve M' = A(t) M, M(0) = I, with A sampled on the half-step grid.

    A_half: (2*nsteps + 1, 2, 2).  Returns M (nsteps + 1, 2, 2) and
    det M (nsteps + 1,).  This is a 4th-order Magnus integrator; the name
    predates it and stays because the benchmark tracer binds it.  Step k
    takes the exponent

        Omega_k = dt/6 (A0 + 4 Am + A1) + dt^2/12 [A1, A0]

    from its samples at the start, middle and end, and M_k = E_k ... E_1
    with E_k = exp(Omega_k), formed by an inclusive prefix product in
    log2(nsteps) batched matmuls.  det M_k = exp(sum of tr Omega_j), which
    stays accurate where the algebraic determinant of a huge hyperbolic
    matrix cancels away.
    """
    A_half = np.asarray(A_half, dtype=float)
    dt = float(dt)
    A0, Am, A1 = A_half[0:-2:2], A_half[1::2], A_half[2::2]
    omega = dt / 6.0 * (A0 + 4.0 * Am + A1) + dt * dt / 12.0 * (A1 @ A0 - A0 @ A1)
    M = np.empty((len(omega) + 1, 2, 2))
    M[0] = np.eye(2)
    M[1:] = expm2(omega)
    P = M[1:]
    s = 1
    while s < len(P):
        # P[k] becomes the product of E_k down to E_{k-2s+1}
        P[s:] = P[s:] @ P[:-s]
        s *= 2
    tr = omega[:, 0, 0] + omega[:, 1, 1]
    dets = np.exp(np.concatenate([[0.0], np.cumsum(tr)]))
    return M, dets
