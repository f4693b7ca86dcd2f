"""Exception hierarchy shared by all urlab modules, and their integer and dimension rules."""

import operator


class UrlabError(Exception):
    """Base class for all errors raised by urlab."""


class InvalidDimensionError(UrlabError):
    """A dimension argument is out of range (e.g. dim < 2)."""


class InvalidOperandError(UrlabError):
    """An operand fails a structural precondition (shape, hermiticity, ...)."""


class SingularStateError(InvalidOperandError):
    """A state to be inverted has its smallest eigenvalue at or below d eps max|lambda|."""


class SingularModelError(UrlabError):
    """A statistical model has a vanishing probability on a non-trivial effect."""


class NoUnbiasedEstimatorError(UrlabError):
    """The requested gradient has a component in the kernel of the Fisher operator."""


def _as_int(value, name: str, error: type = UrlabError) -> int:
    """value by operator.index, so 2.5 or "3" is refused and numpy integers pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def _as_dim(value, name: str = "dim") -> int:
    """value as an integer dimension of at least 2, else InvalidDimensionError."""
    dim = _as_int(value, name, InvalidDimensionError)
    if dim < 2:
        raise InvalidDimensionError(f"{name} must be >= 2, got {dim}")
    return dim
