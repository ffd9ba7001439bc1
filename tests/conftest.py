import numpy as np
import pytest
from hypothesis import strategies as st

from engel_lab._kernels import expm2
from engel_lab.frame_algebra import Section
from engel_lab.presets import build_preset


def binade_entries(k_max):
    """Hypothesis floats +-[0.5, 1) 2^k with |k| <= ``k_max``, or 0."""
    return st.one_of(st.just(0.0), st.builds(
        lambda sign, m, k: sign * np.ldexp(m, k), st.sampled_from([-1.0, 1.0]),
        st.floats(0.5, 1.0, exclude_max=True), st.integers(-k_max, k_max)))


def frame_fields(model):
    """The frame of a chart model as realized fields, one per frame row."""
    return [model.field(Section(tuple(row), f"e{i}")) for i, row in enumerate(np.eye(model.dim))]


def rel_err(M, want):
    """Largest entry error of each 2x2 matrix relative to its largest entry,
    maximized over the stack."""
    return (np.abs(M - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))).max()


def fd_jacobian(f, pts, h):
    """Central-difference jacobian, batched over points: the shape of
    ``f(pts)`` with a trailing ``dim`` axis, entry ``[..., j]`` the
    derivative along coordinate ``j``; the independent reference for the
    complex step in ``frame_algebra.complex_step``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = pts.shape[1]
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        cols.append((np.asarray(f(pts + e)) - np.asarray(f(pts - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def lapack_coords(frame, vecs):
    """Coordinates of ``vecs`` (n, m, dim) in the rows of ``frame`` (n, dim,
    dim) from one LAPACK square solve per point, the reference for Cramer's
    rule in ``frame_coords``."""
    return np.swapaxes(np.linalg.solve(np.swapaxes(frame, -1, -2), np.swapaxes(vecs, -1, -2)),
                       -1, -2)


def lapack_sigma1(M):
    """Largest singular value of each 2x2 matrix from LAPACK's SVD, the
    reference for the closed form in ``characteristic_dynamics._sigma1``."""
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def lapack_eigen(M):
    """Eigenvalues of a 2x2 matrix from LAPACK's eig, larger real part first,
    and their unit eigenvectors as columns: the reference for the lines
    ``plus`` and ``minus`` of ``characteristic_dynamics._eigen_lines``."""
    evals, vecs = np.linalg.eig(M)
    order = np.argsort(evals.real)[::-1]
    return evals[order], vecs[:, order]


def lapack_image(M):
    """The top left singular vector of N = M - (tr/2) I from LAPACK's SVD and
    sqrt|N^2| / |N|: the reference for ``image`` and ``spread`` of
    ``characteristic_dynamics._eigen_lines`` near a parabolic M."""
    N = M - 0.5 * np.trace(M) * np.eye(2)
    u, sv, _ = np.linalg.svd(N)
    return u[:, 0], np.sqrt(np.abs(N @ N).max()) / sv[0]


def lapack_fit(t, y):
    """Least-squares slope and R^2 of y against t from LAPACK's lstsq on the
    columns (t, 1), the reference for ``characteristic_dynamics._linear_fit``."""
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef[0], 1.0 - np.sum((y - A @ coef) ** 2) / np.sum((y - y.mean()) ** 2)


def sequential_transport(A_half, dt):
    """The Magnus steps of ``transport_rk4`` multiplied one at a time, left
    to right: M_k = E_k M_{k-1}."""
    A0, Am, A1 = A_half[0:-2:2], A_half[1::2], A_half[2::2]
    omega = dt / 6.0 * (A0 + 4.0 * Am + A1) + dt * dt / 12.0 * (A1 @ A0 - A0 @ A1)
    out = np.empty((len(omega) + 1, 2, 2))
    out[0] = np.eye(2)
    for k, E in enumerate(expm2(omega)):
        out[k + 1] = E @ out[k]
    return out


def first_return_reference(model, p0, times, points, dt, eps):
    """The scalar return search over a sampled orbit: one ``model.distance``
    call per sample, then the first local minimum after max(2, ceil(10 dt /
    h)) samples within 2 step + eps of p0 whose refined parabola vertex of
    the squared distance lies within eps.  Returns its time, or None."""
    dists = np.array([model.distance(p, p0) for p in points])
    h = times[1] - times[0]
    k_min = max(2, int(np.ceil(10 * dt / h)))
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
            return float(times[k] + shift * h)
    return None


@pytest.fixture(scope="session")
def preset_cache():
    """Build each preset once per test session."""
    cache = {}

    def get(name, **overrides):
        key = (name, tuple(sorted(overrides.items())))
        if key not in cache:
            cache[key] = build_preset(name, **overrides)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20180417)
