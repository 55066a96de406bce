"""Exception hierarchy shared across the package."""


class SymsqError(Exception):
    """Base class for all package errors."""


class NonSquare(SymsqError):
    pass


class NonHermitian(SymsqError):
    pass


class NonSymmetric(SymsqError):
    pass


class NonUnitary(SymsqError):
    pass


class NotPositive(SymsqError):
    """Matrix failed a positive-semidefiniteness gate.

    Carries the offending minimum eigenvalue in ``min_eig``.
    """

    def __init__(self, msg, min_eig=None):
        super().__init__(msg)
        self.min_eig = min_eig


class InvalidDensityMatrix(SymsqError):
    pass


class NotSymmetricState(SymsqError):
    """State violates the exchange-symmetry constraints (r = s, T = T^T, Tr T = 1)."""


class NoConvergence(SymsqError):
    """An iterative eigensolver hit its sweep limit above the off-diagonal target."""


class ChainMismatch(SymsqError):
    pass


class InvalidN(SymsqError):
    pass


class TraceViolation(SymsqError):
    pass


class ZeroMeanSpin(SymsqError):
    pass


class ParityViolation(SymsqError):
    pass


class NormalizationFailure(SymsqError):
    pass


class DomainError(SymsqError):
    pass


class NonUnitVector(SymsqError):
    pass
