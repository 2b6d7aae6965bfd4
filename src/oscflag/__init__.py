"""Numerical osculating-flag geometry of Euclidean submanifolds."""

from .errors import OscflagError
from .geometry import (Box, ImmersionChart, PointGeometry, box,
                       point_geometry, relative_nullity, ricci, s_nullity,
                       sectional_curvature)
from .jets import DerivativeTensor, Jet, jet_constant, jet_variable, variables
from .nonparallel import (NonparallelData, PhiTensor, classify_case,
                          nonparallel_data, phi_frame_fd, phi_pairing)
from .ruled_extension import (RuledExtension, SplittingSpec, build_extension,
                              verify_extension)
from .subspaces import (Subspace, complement_within, kernel_of,
                        principal_angles, span_of)
from .verify import Report, RunConfig, run_verification

__version__ = "0.1.0"

__all__ = [
    "Box", "DerivativeTensor", "ImmersionChart", "Jet", "NonparallelData",
    "OscflagError", "PhiTensor", "PointGeometry", "Report", "RuledExtension",
    "RunConfig", "SplittingSpec", "Subspace", "box", "build_extension",
    "classify_case", "complement_within", "jet_constant", "jet_variable",
    "kernel_of", "nonparallel_data", "phi_frame_fd", "phi_pairing",
    "point_geometry", "principal_angles", "relative_nullity", "ricci",
    "run_verification", "s_nullity", "sectional_curvature", "span_of",
    "variables", "verify_extension",
]
