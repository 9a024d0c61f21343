"""Exception types raised across the library."""


class NCTransportError(Exception):
    """Base class for all library errors."""


class NonPositiveLambda(NCTransportError):
    """A modular parameter lambda was not strictly positive."""


class EmptyContext(NCTransportError):
    """Requested a modular context with zero generators."""


class VarCountMismatch(NCTransportError):
    """Operands live over different numbers of generators."""


class DimMismatch(NCTransportError):
    """Vector or matrix dimensions do not agree."""


class IndexOutOfRange(NCTransportError):
    """A generator index is outside 1..N."""


class NotCyclicallySymmetric(NCTransportError):
    """Input required to be fixed by the twisted cyclic rotation is not."""


class NotGradient(NCTransportError):
    """Vector field fails the self-adjointness identity of cyclic gradients."""


class BadGamma(NCTransportError):
    """Gibbs-distance weight outside (0, 1/3)."""


class NormTooLarge(NCTransportError):
    """Series argument exceeds the convergence radius of an expansion."""


class HypothesisViolation(NCTransportError):
    """Contractivity hypotheses on the perturbation do not hold."""


class NoConvergence(NCTransportError):
    """Fixed-point iteration failed to contract."""


class ContractionFailure(NCTransportError):
    """Series inversion constant is not below one."""


class GramNotPositive(NCTransportError):
    """A Gram matrix required to be positive definite is numerically singular."""


class LevelTooLarge(NCTransportError):
    """Requested Fock level exceeds the configured cap."""


class NeumannDivergence(NCTransportError):
    """Neumann series for the inverse is not guaranteed to converge."""


class DenominatorNonpositive(NCTransportError):
    """Closed-form bound evaluated outside its domain."""
