"""Engel structures on parallelizable 4-manifold models.

Construction (Cartan / Lorentz / pre-quantum / suspension prolongations),
numerical verification of the defining non-integrability conditions, and the
dynamics of the Cauchy characteristic on E/W.
"""

from .characteristic_dynamics import (
    GlobalTypeEstimate,
    HolonomyLift,
    OrbitTrace,
    ProjectiveType,
    classify_projective,
    closed_orbit_holonomy,
    developing_map,
    estimate_global_type,
    geodesic_projection_check,
    integrate_characteristic,
    transport_EmodW,
)
from .engel_verify import (
    EngelStructure,
    VerificationReport,
    cauchy_characteristic,
    darboux_long,
    darboux_standard,
    verify_engel,
)
from .frame_algebra import (
    ChartModel,
    ChartVectorField,
    DistributionSpec,
    LieModel,
    Section,
    bracket_chart,
    bracket_lie,
    derived_distribution,
    distribution_rank,
)
from .geometry_models import (
    ConformalSurface,
    ConstantCurvatureUT,
    LorentzExtension,
    gauss_curvature,
    magnetic_extension,
    product_extension,
    surface_from_config,
    unit_tangent_frames,
)
from .presets import build_preset, preset_names
from .prolongations import (
    ContactModel,
    SuspensionData,
    bi_engel_pair,
    cartan_prolongation,
    lorentz_prolongation,
    prequantum_prolongation,
    propellor_structure,
    suspension,
)
from .rigidity_lab import (
    AccessRegion,
    DCurve,
    accessible_membership,
    boundary_cone_value,
    inaba_identity_check,
    infinitesimal_rigidity_check,
    null_variation_check,
    rigidity_probe,
    sample_d_curve,
)

__version__ = "0.1.0"
