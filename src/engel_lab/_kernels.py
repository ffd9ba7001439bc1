"""Hot integration kernels, numba-compiled when available.

Set ``ENGEL_LAB_NO_NUMBA=1`` to force the pure-numpy fallback path (the
fallback is vectorized across curve batches, so it stays usable).  The test
suite compares the jitted kernels with the fallback only where numba is
importable.  The uncompiled scalar D-curve source (``_dcurve_rk4_impl``) is
compared with the vectorized fallback everywhere; for transport the scalar
source ``_transport_rk4_impl`` is itself the fallback.
``benchmarks/bench_kernels.py`` times the fallback and, where numba is
importable, compares the jitted kernels with it.
"""
from __future__ import annotations

import os

import numpy as np

_DISABLED = os.environ.get("ENGEL_LAB_NO_NUMBA", "").strip() not in ("", "0")

try:  # pragma: no cover - import guard
    if _DISABLED:
        raise ImportError("numba disabled by ENGEL_LAB_NO_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f
        return wrap(args[0]) if args and callable(args[0]) else wrap


def using_numba() -> bool:
    return HAS_NUMBA


def _dcurve_rk4_impl(u_half, v_half, starts, dt, long_chart):
    """RK4 for the D-curve control ODE, batched over curves.

    Standard Engel-Darboux chart (``long_chart == 0``)::

        x' = u,  y' = z u,  z' = w u,  w' = v

    long chart (``long_chart == 1``, last coordinate is the angle)::

        x' = u cos(th),  y' = u z cos(th),  z' = u sin(th),  th' = v

    ``u_half``/``v_half`` hold control values on the half-step grid
    t0, t0+dt/2, t0+dt, ... with shape (batch, 2*nsteps + 1).
    """
    B = starts.shape[0]
    nsteps = (u_half.shape[1] - 1) // 2
    out = np.empty((B, nsteps + 1, 4))
    for b in range(B):
        x, y, z, w = starts[b, 0], starts[b, 1], starts[b, 2], starts[b, 3]
        out[b, 0, 0] = x
        out[b, 0, 1] = y
        out[b, 0, 2] = z
        out[b, 0, 3] = w
        for k in range(nsteps):
            u0 = u_half[b, 2 * k]
            um = u_half[b, 2 * k + 1]
            u1 = u_half[b, 2 * k + 2]
            v0 = v_half[b, 2 * k]
            vm = v_half[b, 2 * k + 1]
            v1 = v_half[b, 2 * k + 2]
            if long_chart == 0:
                k1x = u0
                k1y = z * u0
                k1z = w * u0
                k1w = v0
                z2 = z + 0.5 * dt * k1z
                w2 = w + 0.5 * dt * k1w
                k2x = um
                k2y = z2 * um
                k2z = w2 * um
                k2w = vm
                z3 = z + 0.5 * dt * k2z
                w3 = w + 0.5 * dt * k2w
                k3x = um
                k3y = z3 * um
                k3z = w3 * um
                k3w = vm
                z4 = z + dt * k3z
                w4 = w + dt * k3w
                k4x = u1
                k4y = z4 * u1
                k4z = w4 * u1
                k4w = v1
            else:
                c0 = np.cos(w)
                s0 = np.sin(w)
                k1x = u0 * c0
                k1y = u0 * z * c0
                k1z = u0 * s0
                k1w = v0
                z2 = z + 0.5 * dt * k1z
                t2 = w + 0.5 * dt * k1w
                c2 = np.cos(t2)
                s2 = np.sin(t2)
                k2x = um * c2
                k2y = um * z2 * c2
                k2z = um * s2
                k2w = vm
                z3 = z + 0.5 * dt * k2z
                t3 = w + 0.5 * dt * k2w
                c3 = np.cos(t3)
                s3 = np.sin(t3)
                k3x = um * c3
                k3y = um * z3 * c3
                k3z = um * s3
                k3w = vm
                z4 = z + dt * k3z
                t4 = w + dt * k3w
                c4 = np.cos(t4)
                s4 = np.sin(t4)
                k4x = u1 * c4
                k4y = u1 * z4 * c4
                k4z = u1 * s4
                k4w = v1
            x += dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
            y += dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
            z += dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
            w += dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
            out[b, k + 1, 0] = x
            out[b, k + 1, 1] = y
            out[b, k + 1, 2] = z
            out[b, k + 1, 3] = w
    return out


def _dcurve_rk4_numpy(u_half, v_half, starts, dt, long_chart):
    """Vectorized-over-batch fallback: the arithmetic of ``_dcurve_rk4_impl``
    in the same order, on one array per coordinate.  Steps are written to a
    step-major buffer, so the (batch, nsteps + 1, 4) result is a transposed
    view of it."""
    nsteps = (u_half.shape[1] - 1) // 2
    buf = np.empty((nsteps + 1, 4, starts.shape[0]))
    buf[0] = starts.T
    x, y, z, w = buf[0]
    for k in range(nsteps):
        u0, um, u1 = u_half[:, 2 * k], u_half[:, 2 * k + 1], u_half[:, 2 * k + 2]
        v0, vm, v1 = v_half[:, 2 * k], v_half[:, 2 * k + 1], v_half[:, 2 * k + 2]
        if long_chart == 0:
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


def _transport_rk4_impl(A_half, dt):
    """RK4 for M' = A(t) M with A sampled on the half-step grid.

    A_half: (2*nsteps + 1, 2, 2).  Returns (nsteps + 1, 2, 2), M[0] = I.
    """
    nsteps = (A_half.shape[0] - 1) // 2
    out = np.empty((nsteps + 1, 2, 2))
    M = np.eye(2)
    out[0] = M
    for k in range(nsteps):
        A0 = A_half[2 * k]
        Am = A_half[2 * k + 1]
        A1 = A_half[2 * k + 2]
        k1 = A0 @ M
        k2 = Am @ (M + 0.5 * dt * k1)
        k3 = Am @ (M + 0.5 * dt * k2)
        k4 = A1 @ (M + dt * k3)
        M = M + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = M
    return out


if HAS_NUMBA:  # pragma: no cover - exercised when numba is present
    _dcurve_rk4_jit = njit(cache=True)(_dcurve_rk4_impl)
    _transport_rk4_jit = njit(cache=True)(_transport_rk4_impl)


def dcurve_rk4(u_half: np.ndarray, v_half: np.ndarray, starts: np.ndarray,
               dt: float, long_chart: bool = False) -> np.ndarray:
    u_half = np.ascontiguousarray(u_half, dtype=float)
    v_half = np.ascontiguousarray(v_half, dtype=float)
    starts = np.ascontiguousarray(np.atleast_2d(starts), dtype=float)
    flag = 1 if long_chart else 0
    if HAS_NUMBA:
        return _dcurve_rk4_jit(u_half, v_half, starts, float(dt), flag)
    return _dcurve_rk4_numpy(u_half, v_half, starts, float(dt), flag)


def transport_rk4(A_half: np.ndarray, dt: float) -> np.ndarray:
    A_half = np.ascontiguousarray(A_half, dtype=float)
    if HAS_NUMBA:
        return _transport_rk4_jit(A_half, float(dt))
    return _transport_rk4_impl(A_half, float(dt))
