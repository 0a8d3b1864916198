"""Exact-arithmetic arctangent sums, derivative-corrected quadrature, and
high-precision pi computation with verified digit counting."""

from .errors import (
    DomainError,
    OrderError,
    PoleError,
    ReferenceIntegrityError,
)
from .exact import decimal_expand, matching_digits
from .kernels import arctan_deriv, arctan_deriv_sine_form
from .quadrature import ComputationParams
from .arctan import arctan_closed_form, arctan_derivative_form
from .pi import (
    measure,
    pi_closed_form,
    pi_derivative_form,
    pi_gauss,
    reference_pi,
)

__version__ = "0.1.0"

__all__ = [
    "ComputationParams",
    "DomainError",
    "OrderError",
    "PoleError",
    "ReferenceIntegrityError",
    "arctan_closed_form",
    "arctan_deriv",
    "arctan_deriv_sine_form",
    "arctan_derivative_form",
    "decimal_expand",
    "matching_digits",
    "measure",
    "pi_closed_form",
    "pi_derivative_form",
    "pi_gauss",
    "reference_pi",
]
