"""Named construction presets shared by the CLI and the test suite.

Every preset builder returns a dict with ``structure``; Lorentz presets also
expose the underlying ``extension``.  Chart and exact Lie realizations of the
constant-curvature families are separate presets so the numerical and
closed-form paths can cross-validate.
"""
from __future__ import annotations

import numpy as np

from .engel_verify import EngelStructure, darboux_long, darboux_standard
from .errors import ConfigError
from .frame_algebra import ChartModel, Section, coordinate_frame
from .geometry_models import (
    ConstantCurvatureUT,
    bump_surface,
    constant_curvature_surface,
    magnetic_extension,
    product_extension,
    unit_tangent_frames,
)
from .prolongations import (
    bi_engel_pair,
    cartan_prolongation,
    lorentz_prolongation,
    prequantum_local,
    propellor_structure,
    standard_contact_r3,
    suspension_geodesic,
    suspension_identity,
)

CAT_MAP = ((2, 1), (1, 1))
SHEAR_MAP = ((1, 1), (0, 1))


def _integrable_counterexample() -> EngelStructure:
    """A plane field with integrable 'E': fails (D1)/(D2) by construction."""
    model = ChartModel(4, [[-1, 1]] * 4, coordinate_frame(4), name="integrable")
    D = [Section((1, 0, 0, 0), "e0"), Section((0, 1, 0, 0), "e1")]
    E = D + [Section((1, 1, 0, 0), "e0+e1")]
    return EngelStructure(
        model=model, D_span=D, E_span=E,
        W_section=Section((1, 0, 0, 0), "e0"),
        transverse_section=Section((0, 0, 0, 1), "e3"),
        provenance="integrable_counterexample",
        emw_frame=(Section((0, 1, 0, 0), "e1"), Section((1, 1, 0, 0), "e0+e1")))


def _lorentz(kind: str, kappa: float, exact: bool):
    base = ConstantCurvatureUT(kappa) if exact else unit_tangent_frames(
        constant_curvature_surface(kappa))
    ext = product_extension(base) if kind == "product" else magnetic_extension(base)
    return {"structure": lorentz_prolongation(ext), "extension": ext}


def _magnetic_bump():
    ext = magnetic_extension(unit_tangent_frames(bump_surface()))
    return {"structure": lorentz_prolongation(ext), "extension": ext}


def _propellor(monodromy):
    return lambda o: {"structure": propellor_structure(
        np.array(monodromy, dtype=float), turns=int(o.get("turns", 1)))[1]}


_PRESETS = {
    "darboux": lambda o: {"structure": darboux_standard()},
    "long-darboux": lambda o: {"structure": darboux_long()},
    "cartan-r3": lambda o: {"structure": cartan_prolongation(standard_contact_r3())},
    "lorentz-product": lambda o: _lorentz("product", o.get("kappa", 1.0), exact=False),
    "lorentz-product-lie": lambda o: _lorentz("product", o.get("kappa", 1.0), exact=True),
    "lorentz-magnetic": lambda o: _lorentz("magnetic", o.get("kappa", 1.0), exact=False),
    "lorentz-magnetic-lie": lambda o: _lorentz("magnetic", o.get("kappa", 1.0), exact=True),
    "magnetic-bump": lambda o: _magnetic_bump(),
    "prequantum-local": lambda o: {"structure": prequantum_local()},
    "propellor-identity": _propellor(np.eye(2)),
    "propellor-parabolic": _propellor(SHEAR_MAP),
    "propellor-cat": _propellor(CAT_MAP),
    "bi-engel-cat": lambda o: {"structure": bi_engel_pair(np.array(CAT_MAP, dtype=float))[0]},
    "suspension-identity": lambda o: {"structure": suspension_identity()},
    "suspension-geodesic": lambda o: {"structure": suspension_geodesic(o.get("kappa", -1.0))},
    "integrable-counterexample": lambda o: {"structure": _integrable_counterexample()},
}

KAPPA_PRESETS = ("lorentz-product", "lorentz-product-lie",
                 "lorentz-magnetic", "lorentz-magnetic-lie",
                 "suspension-geodesic")


def preset_names() -> list:
    return sorted(_PRESETS)


def build_preset(name: str, **overrides) -> dict:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return _PRESETS[name](overrides)
