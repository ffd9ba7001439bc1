"""Named construction presets shared by the CLI and the test suite.

Every preset builder returns a dict with ``structure``; Lorentz presets also
expose the underlying ``extension``.  A builder's keyword parameters are the
settings its preset takes, with their defaults.  Chart and exact Lie
realizations of the constant-curvature families are separate presets so the
numerical and closed-form paths can cross-validate.
"""
from __future__ import annotations

import inspect

import numpy as np

from .engel_verify import EngelStructure, darboux_standard
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


def _long_darboux() -> EngelStructure:
    """The long Engel-Darboux structure on [-2, 2]^3 x S^1: the Cartan
    prolongation of (R^3, ker(dy - z dx)), D = <d/dth, cos(th) Xbar +
    sin(th) d/dz>.  On th in (-pi/2, pi/2) it is the standard structure via
    w = tan th."""
    s = cartan_prolongation(standard_contact_r3())
    s.provenance = "darboux_long"
    return s


def _prolonged(ext):
    return {"structure": lorentz_prolongation(ext), "extension": ext}


def _lorentz(kind: str, exact: bool):
    def build(kappa=1.0):
        base = ConstantCurvatureUT(kappa) if exact else unit_tangent_frames(
            constant_curvature_surface(kappa))
        return _prolonged(product_extension(base) if kind == "product"
                          else magnetic_extension(base))
    return build


def _propellor(monodromy):
    return lambda turns=1: {"structure": propellor_structure(
        np.array(monodromy, dtype=float), turns=int(turns))[1]}


_PRESETS = {
    "darboux": lambda: {"structure": darboux_standard()},
    "long-darboux": lambda: {"structure": _long_darboux()},
    "cartan-r3": lambda: {"structure": cartan_prolongation(standard_contact_r3())},
    "lorentz-product": _lorentz("product", exact=False),
    "lorentz-product-lie": _lorentz("product", exact=True),
    "lorentz-magnetic": _lorentz("magnetic", exact=False),
    "lorentz-magnetic-lie": _lorentz("magnetic", exact=True),
    "magnetic-bump": lambda: _prolonged(magnetic_extension(unit_tangent_frames(bump_surface()))),
    "prequantum-local": lambda: {"structure": prequantum_local()},
    "propellor-identity": _propellor(np.eye(2)),
    "propellor-parabolic": _propellor(SHEAR_MAP),
    "propellor-cat": _propellor(CAT_MAP),
    "bi-engel-cat": lambda: {"structure": bi_engel_pair(np.array(CAT_MAP, dtype=float))[0]},
    "suspension-identity": lambda: {"structure": suspension_identity()},
    "suspension-geodesic": lambda kappa=-1.0: {"structure": suspension_geodesic(kappa)},
    "integrable-counterexample": lambda: {"structure": _integrable_counterexample()},
}
KAPPA_PRESETS = tuple(name for name, build in _PRESETS.items()
                      if "kappa" in inspect.signature(build).parameters)


def preset_names() -> list:
    return sorted(_PRESETS)


def build_preset(name: str, **settings) -> dict:
    """The preset's dict, built with ``settings``, which its builder must take."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    takes = list(inspect.signature(_PRESETS[name]).parameters)
    if unknown := sorted(set(settings) - set(takes)):
        raise ConfigError(f"preset {name!r} takes {', '.join(takes) or 'no settings'}, "
                          f"not {', '.join(unknown)}")
    return _PRESETS[name](**settings)
