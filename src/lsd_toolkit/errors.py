"""Typed exceptions shared across the toolkit."""


class LsdToolkitError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(LsdToolkitError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitTrace(LsdToolkitError):
    """Matrix trace is not 1 within tolerance."""


class NotPSD(LsdToolkitError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class NotSymmetric(LsdToolkitError):
    """Matrix is not complex symmetric within tolerance."""


class NotNormalized(LsdToolkitError):
    """Vector does not have unit norm within tolerance."""


class DependentVectors(LsdToolkitError):
    """Gram matrix of the supplied vectors is numerically singular."""


class SingularCoefficients(LsdToolkitError):
    """Coefficient block of a closed-form pair is numerically singular.

    Raised when the 2x2 block diag(Lambda_a, Lambda_b) + coeff c c^dag of
    a pair tied by z_a + z_b = x''_1 has reciprocal condition below 1e-12.
    """


class NoPurePart(LsdToolkitError):
    """Decomposition has no pure entangled part."""


class PhaseConstraintViolated(LsdToolkitError):
    """Supplied phases break the zero-concurrence constraint."""


class RankMismatch(LsdToolkitError):
    """Decomposition rank class disagrees with the state it claims to split."""


class RankDeficient(LsdToolkitError):
    """Operation requires a full-rank spectrum."""


class ZeroState(LsdToolkitError):
    """All generator weights are zero; no state can be formed."""


class NotSpecialUnitary(LsdToolkitError):
    """Matrix is not in SU(2) within tolerance."""


class ResidualCheckFailed(LsdToolkitError, ValueError):
    """A record's identity residual exceeds its threshold.

    Also a ValueError, so a caller that catches ValueError from a record
    constructor still catches it.
    """
