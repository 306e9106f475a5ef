"""Exception types shared across the package."""

from contextlib import contextmanager


class GpipError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(GpipError):
    """A Cholesky pivot fell at or below the positive-definiteness tolerance."""


class DenominatorUnderflow(GpipError):
    """A rank-one inverse update hit a vanishing Sherman-Morrison denominator."""


class EigenFailure(GpipError):
    """The symmetric eigensolver failed to converge."""


class DimensionMismatch(GpipError):
    """Array shapes are inconsistent with the operation's contract."""


class RankDeficient(GpipError):
    """A channel matrix does not have the full column rank the precoder needs."""


class BelowMinimumDistance(GpipError):
    """A link distance is below the path-loss model's validity range."""


class ConfigInvalid(GpipError):
    """An experiment configuration failed validation; message names the field."""


@contextmanager
def located(where: str):
    """Re-raise a NotPositiveDefinite or RankDeficient from the body as the
    same type, its message prefixed with `where` (the unit that failed)."""
    try:
        yield
    except (NotPositiveDefinite, RankDeficient) as exc:
        raise type(exc)(f"{where}{exc}") from exc
