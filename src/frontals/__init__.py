"""Numerical toolkit for plane curves with singular points.

Curves carrying a unit normal field stay smooth through cusps; their
curvature pair (ell, beta) classifies the singularities, and a single
first-order condition generates the whole family of mate constructions:
parallels, evolutes, involutes, their angular deformations, and general
direction-framed mates with an exact inverse operation.
"""

from .planar import ScalarFn, constant_fn, linear_fn, rotate_j
from .curves import (
    BuiltinSpec,
    CurveModel,
    ParamInterval,
    SingularCurveError,
    build_builtin,
    build_sampled,
    builtin_spec,
)
from .legendre import (
    CurvaturePair,
    CuspReport,
    LegendreCurve,
    TangencyError,
    astroid_frontal,
    builtin_frontal,
    check_ell_kappa_relation,
    circle_frontal,
    classify_singularities,
    from_regular,
    frontal_from_normal,
    frontal_from_samples,
    inflection_points,
    legendre_curvature,
)
from .mates import (
    LambdaSolution,
    MateConfig,
    MatePair,
    RegularBertrandReport,
    build_mate,
    check_mate_relation,
    check_regular_bertrand,
    compose_mates,
    inverse_mate,
    mate_curvature,
    regular_to_legendre_mates,
    solve_lambda,
    special_operator,
    verify_mate_curvature,
)

__version__ = "0.1.0"
