"""Numeric defaults used throughout the package.

Only ``verify_engel``'s ``tol`` overrides one of them (``rank_tol``).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    # central-difference step for jacobians of vector fields
    h: float = 1e-5
    # singular values above this count toward a rank
    rank_tol: float = 1e-8
    # a rank decision is flagged marginal if any singular value lies in
    # [rank_tol / marginal_band, rank_tol * marginal_band]
    marginal_band: float = 10.0
    # chart-distance threshold for closed-orbit detection
    orbit_close_eps: float = 1e-6


DEFAULTS = NumericConfig()
