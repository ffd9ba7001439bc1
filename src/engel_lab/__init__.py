"""Engel structures on parallelizable 4-manifold models.

Construction (Cartan / Lorentz / pre-quantum / suspension prolongations),
numerical verification of the defining non-integrability conditions, and the
dynamics of the Cauchy characteristic on E/W.

The root binds the names that README's Library example and the acceptance
suite read; everything else is imported from its submodule.
"""

from .characteristic_dynamics import (
    HolonomyLift,
    developing_map,
    estimate_global_type,
    integrate_characteristic,
    transport_EmodW,
)
from .engel_verify import cauchy_characteristic, verify_engel
from .presets import build_preset
