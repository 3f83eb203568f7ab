"""Geometry engine for convex level hypersurfaces g(x, z) = z^alpha -/+ f(x).

Computes hyperplane sections, cap volumes, lateral areas and
Gauss-Kronecker curvature of the level sets, and empirically tests the
point-independence conditions that single out elliptic paraboloids,
ellipsoids and elliptic hyperboloids.
"""

from .characterize import (
    Classification,
    ClassifyConfig,
    ConstancyReport,
    check_condition,
    check_invariant_constancy,
    classify,
    evaluate_cells,
    sample_points,
)
from .errors import (
    BranchError,
    ConfigError,
    ConvexityError,
    EvaluationError,
    ParseError,
    QuadrixError,
    RegionError,
    TangencyError,
)
from .funcspec import (
    ExpressionSpec,
    FunctionSpec,
    Jet2,
    PerturbedQuadratic,
    QuadraticForm,
    eval_jet2,
    eval_line,
    eval_value_grad,
    eval_values,
    parse_expression,
)
from .measure import (
    CapMeasures,
    MeasureResult,
    QuadratureSettings,
    cap_measures,
    starred_measures,
)
from .quadrics import (
    DomainEllipsoid,
    ellipsoid_cap_volume,
    hyperboloid_area_relation,
    hyperboloid_cap_volume,
    invariant_constant,
    mean_value_ratio,
    offset_map_h,
    paraboloid_starred,
    refutation_H,
    refutation_domain,
    refutation_theta,
    starred_oracle,
    unit_ball_volume,
    unit_sphere_area,
)
from .surface import (
    LevelFamily,
    LocalChart,
    SurfacePoint,
    TangencyResult,
    curvature_invariant,
    gauss_kronecker,
    parallel_tangent,
    point_on_level,
)
from .verify import derivative_check, determinant_identity_residual

__version__ = "0.15.1"
