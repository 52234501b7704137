"""Exception types shared across the package.

Every error raised by the public API derives from UnitonsError, so callers
(and the CLI) can distinguish bad input from a genuine verification failure.
"""


class UnitonsError(Exception):
    """Base class for all package errors."""


class SizeMismatch(UnitonsError):
    """Matrix or loop operands have incompatible shapes."""


class ExactKindUnsupported(UnitonsError):
    """Operation requires z-free (or numeric) coefficients."""


class PoleAtZ(UnitonsError):
    """A rational function was evaluated at a pole."""


class ZeroLambda(UnitonsError):
    """A loop with negative powers was evaluated at lambda = 0."""


class SingularAtMinusOne(UnitonsError):
    """Loop value at lambda = -1 is not invertible."""


class NotInvertibleLoop(UnitonsError):
    """Loop determinant is identically zero."""


class NonMonomialDeterminant(UnitonsError):
    """Loop determinant is not of the form c * lambda^m with c != 0."""


class NonRationalAntiderivative(UnitonsError):
    """The antiderivative has a logarithmic part, hence is not rational.

    Attributes
    ----------
    log_numerator, log_denominator
        Exact certificate: the unintegrable remainder R / D with D squarefree
        and R != 0.  The full antiderivative would need sum_a res_a * log(z-a)
        over the roots a of D.
    poles
        Approximate complex roots of D (numeric aid only).
    residues
        Approximate residues R(a) / D'(a) at those roots.
    """

    def __init__(self, log_numerator, log_denominator, poles=(), residues=(), context=None):
        self.log_numerator = log_numerator
        self.log_denominator = log_denominator
        self.poles = tuple(poles)
        self.residues = tuple(residues)
        self.context = context
        detail = ", ".join(
            f"z={p:.6g} (residue {r:.6g})" for p, r in zip(self.poles, self.residues)
        )
        msg = "antiderivative is not rational"
        if context:
            msg = f"{context}: {msg}"
        if detail:
            msg += "; offending poles: " + detail
        super().__init__(msg)


class NotNilpotent(UnitonsError):
    """exp/log series did not terminate: the argument is not nilpotent."""


class OddSlotData(UnitonsError):
    """Even-type build received data in an odd lambda slot."""


class NotCanonical(UnitonsError):
    """Exponent vector is not canonical (consecutive gaps must be 0 or 1)."""


class NotS1Invariant(UnitonsError):
    """Operation requires a circle-invariant solution (C_0 data only)."""


class NotInBigCellForm(UnitonsError):
    """Loop is not an exp-of-graded-slots representative of the big cell."""


class SingularOnCircle(UnitonsError):
    """Numeric loop is (nearly) singular at some sampled |lambda| = 1."""


class NoConvergence(UnitonsError):
    """Spectral factorization failed to reach the residual target."""


class StepBelowResolution(UnitonsError):
    """A finite-difference step rounds away in floating point at its point."""


class InvalidType(UnitonsError):
    """Unknown simple-group type letter or rank out of range."""


class UnrecognizedSubsystem(UnitonsError):
    """A root subsystem did not match any simple diagram."""


class SchemaError(UnitonsError):
    """A JSON document does not match the documented schema."""
