"""latticemini: exact Ehrhart polynomials and horizontal lattice miniatures.

Counts lattice points of dilated convex lattice polytopes, interpolates
their enumerator polynomials, censuses the horizontal lattice copies of P
inside nP, and verifies — symbolically and against a brute-force oracle —
that the mean miniature volume converges to vol(P) / C(2d+1, d). All
arithmetic is exact (arbitrary-precision integers and rationals).
"""

__version__ = "0.1.0"

from .counting import count_points
from .ehrhart import EhrhartPolynomial, check_reciprocity, ehrhart_polynomial
from .errors import (
    ConstructionError,
    InternalConsistencyError,
    LatticeMiniError,
    NotFullDimensionalError,
    PolytopeParseError,
    ResourceLimitError,
    TheoremViolationError,
    UnsupportedInputError,
)
from .geometry import (
    HalfSpace,
    LatticePolytope,
    contains,
    dilate,
    from_vertices,
    pyramid,
    translate,
    volume,
)
from .miniatures import (
    CopyCensus,
    MuReport,
    copy_census,
    copy_polynomial,
    mu_inclusion_exclusion,
    mu_limit_symbolic,
    mu_ratio,
    mu_report,
    numerator_polynomial,
)
from .oracle import CopyWitness, average_miniature_volume, enumerate_copies
from .polynomial import RationalPolynomial

__all__ = [
    "__version__",
    "LatticePolytope",
    "HalfSpace",
    "RationalPolynomial",
    "EhrhartPolynomial",
    "CopyCensus",
    "MuReport",
    "CopyWitness",
    "from_vertices",
    "dilate",
    "translate",
    "contains",
    "volume",
    "pyramid",
    "count_points",
    "ehrhart_polynomial",
    "check_reciprocity",
    "copy_census",
    "copy_polynomial",
    "mu_ratio",
    "mu_limit_symbolic",
    "mu_report",
    "mu_inclusion_exclusion",
    "numerator_polynomial",
    "enumerate_copies",
    "average_miniature_volume",
    "LatticeMiniError",
    "ConstructionError",
    "NotFullDimensionalError",
    "UnsupportedInputError",
    "ResourceLimitError",
    "InternalConsistencyError",
    "TheoremViolationError",
    "PolytopeParseError",
]
