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


def _as_int(value, name: str, error: type = UrlabError, least: int | None = None) -> int:
    """value by operator.index, else error; 2.5, "3", a bool and a value below least are refused,
    all with "{name} must be an integer >= {least}, got {value!r}" (no ">= ..." if least is None).
    """
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or least is not None and number < least:
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return number


def _as_dim(value, name: str = "dim") -> int:
    """value as an integer dimension of at least 2, else InvalidDimensionError."""
    return _as_int(value, name, InvalidDimensionError, 2)
