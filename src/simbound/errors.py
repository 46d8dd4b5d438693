"""Exception types shared across the package."""

__all__ = ["NumericalError"]


class NumericalError(ArithmeticError):
    """Raised when an iterative routine diverges or fails to converge.

    The command-line front end maps this to exit code 2; ordinary input
    and usage problems raise ValueError and map to exit code 1.
    """
