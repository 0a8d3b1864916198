"""Exception types shared across the library.

Plain division by zero (inverting a zero rational or Gaussian integer)
raises the builtin ZeroDivisionError; everything else gets a named type so
the CLI can map failures to distinct exit codes.
"""


class PoleError(ZeroDivisionError):
    """A rational kernel was evaluated at one of its poles."""


class OrderError(ValueError):
    """Derivative order outside the valid range of the chosen formula."""


class DomainError(ValueError):
    """Argument outside the domain a function is defined on."""


class ReferenceIntegrityError(RuntimeError):
    """Two independent routes disagree: the two sources of reference
    digits, or two evaluation paths that must give the same value.

    This can only mean an arithmetic bug (or a corrupted data file) and is
    always fatal.
    """
