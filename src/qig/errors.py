"""Exception hierarchy shared across the package."""


class QigError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QigError):
    pass


class ConvergenceError(QigError):
    """An eigensolver missed its residual tolerance, or the min-trace certificate failed a check."""


class RankDeficiencyError(QigError):
    """Operation requires a (numerically) full-rank or supported input."""


class RldExistenceError(QigError):
    """Tangent has weight outside the support of the state, so no RLD exists."""

    def __init__(self, out_of_support_norm, msg=None):
        self.out_of_support_norm = out_of_support_norm
        super().__init__(
            msg or f"RLD does not exist: out-of-support norm {out_of_support_norm:.3e}"
        )


class GaugeError(QigError):
    """Matrix supplied as a gauge transform is not a co-isometry."""


class SingularFamilyError(QigError):
    """Classical family has a zero-probability outcome with nonzero score."""


class InvalidCandidateError(QigError):
    """Candidate reverse estimate fails its reconstruction constraints."""

    def __init__(self, rho_residual, tangent_residual):
        self.rho_residual = rho_residual
        self.tangent_residual = tangent_residual
        super().__init__(
            "invalid reverse-estimate candidate: state residual "
            f"{rho_residual:.3e}, tangent residual {tangent_residual:.3e}"
        )


class NotReverseEstimableError(QigError):
    """Family fails the commutation criterion for global reverse estimation."""

    def __init__(self, commutator_norm):
        self.commutator_norm = commutator_norm
        super().__init__(
            "family is not globally reverse-estimable: "
            f"max commutator norm {commutator_norm:.3e}"
        )


class TruncationError(QigError):
    """Fock-space truncation leaks too much trace; increase the cutoff."""


class SpecFileError(QigError):
    """Malformed input specification file."""
