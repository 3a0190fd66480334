"""Finite-part integrals of entire functions and the exact small-parameter
evaluation of generalized Stieltjes transforms built on top of them."""

from .asymptotic import LeadingBehavior, LeadingKind, classify
from .entire import (BinomialPoly, CustomSeries, Exponential, MonomialExp,
                     Polynomial, Scaled, TaylorFunction)
from .errors import (DivergentIntegralError, FinitePartError,
                     IndeterminateZeroOrderError, NonconvergenceError)
from .finite_part import FpiMethod, FpiValue, finite_part_integral
from .oracles import QuadratureResult, fpi_epsilon_oracle, quad_adaptive
from .specfun import (Gauss2F1BranchParams, Gauss2F1IntParams, KummerParams,
                      KummerRegime, gauss2f1_branch, gauss2f1_integer,
                      gauss2f1_leading, kummer_u, kummer_u_leading)
from .stieltjes import (ExpansionResult, TransformSpec, effective_diffusivity,
                        eval_quadratic, evaluate_transform,
                        singular_term_branch, singular_term_integer)

__version__ = "0.1.0"

__all__ = [
    "BinomialPoly", "CustomSeries", "DivergentIntegralError",
    "ExpansionResult", "Exponential", "FinitePartError", "FpiMethod",
    "FpiValue", "Gauss2F1BranchParams", "Gauss2F1IntParams",
    "IndeterminateZeroOrderError", "KummerParams", "KummerRegime",
    "LeadingBehavior", "LeadingKind", "MonomialExp", "NonconvergenceError",
    "Polynomial", "QuadratureResult", "Scaled", "TaylorFunction",
    "TransformSpec", "classify", "effective_diffusivity", "eval_quadratic",
    "evaluate_transform", "finite_part_integral", "fpi_epsilon_oracle",
    "gauss2f1_branch", "gauss2f1_integer", "gauss2f1_leading", "kummer_u",
    "kummer_u_leading", "quad_adaptive",
    "singular_term_branch", "singular_term_integer",
]
