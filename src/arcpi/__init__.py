"""Exact-arithmetic arctangent sums, derivative-corrected quadrature, and
high-precision pi computation with verified digit counting."""

from .errors import (
    ComparisonError,
    DomainError,
    OrderError,
    PoleError,
    ReferenceIntegrityError,
)
from .exact import (
    DecimalExpansion,
    decimal_expand,
    matching_digits,
    parse_rational,
)
from .kernels import (
    arctan_deriv,
    arctan_deriv_scaled,
    arctan_deriv_sine_form,
    deriv_inv_one_minus_u2,
    deriv_inv_one_plus_t2,
)
from .quadrature import (
    ComputationParams,
    DerivativeOracle,
    integrate_all_orders,
    integrate_even_orders,
    integration_error,
    midpoint_nodes,
)
from .arctan import arctan_closed_form, arctan_derivative_form, closed_form_block
from .pi import (
    GAUSS_TERMS,
    METHODS,
    PiResult,
    arctan_taylor_reference,
    measure,
    pi_closed_form,
    pi_derivative_form,
    pi_gauss,
    pi_machin,
    reference_pi,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonError",
    "ComputationParams",
    "DecimalExpansion",
    "DerivativeOracle",
    "DomainError",
    "GAUSS_TERMS",
    "METHODS",
    "OrderError",
    "PiResult",
    "PoleError",
    "ReferenceIntegrityError",
    "arctan_closed_form",
    "arctan_deriv",
    "arctan_deriv_scaled",
    "arctan_deriv_sine_form",
    "arctan_derivative_form",
    "arctan_taylor_reference",
    "closed_form_block",
    "decimal_expand",
    "deriv_inv_one_minus_u2",
    "deriv_inv_one_plus_t2",
    "integrate_all_orders",
    "integrate_even_orders",
    "integration_error",
    "matching_digits",
    "measure",
    "midpoint_nodes",
    "parse_rational",
    "pi_closed_form",
    "pi_derivative_form",
    "pi_gauss",
    "pi_machin",
    "reference_pi",
]
