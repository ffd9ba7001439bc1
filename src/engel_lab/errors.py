"""Exception types shared across the package."""


class EngelLabError(Exception):
    """Base class for every error raised by engel_lab."""


class NonFiniteEvaluation(EngelLabError):
    """A field, coefficient, or metric evaluation returned NaN or inf."""


class DimensionMismatch(EngelLabError):
    """Coefficient vectors do not match the frame size, points or transport
    determinants are missing or misshapen, or structure constants are not
    those of a Lie algebra."""


class EmptyInput(EngelLabError):
    """An operation received an empty list of vectors."""


class DegenerateKernel(EngelLabError):
    """The bracket pairing on E has rank < 2; E is not even-contact here."""


class SignatureError(EngelLabError):
    """A Lorentz extension names a kind that no construction knows."""


class NotContact(EngelLabError):
    """A declared contact plane field fails rank(xi + [xi,xi]) = 3."""


class CurvatureMismatch(EngelLabError):
    """d(beta) does not equal the interior product of the volume by w_bar."""


class EquivarianceError(EngelLabError):
    """A propellor line path is not equivariant under the monodromy."""


class TwistMonotonicityError(EngelLabError):
    """A suspension twist profile has d(rho)/dt <= 0 somewhere."""


class ChartExit(EngelLabError):
    """An orbit left the chart box at time ``t_exit``."""

    def __init__(self, t_exit, message=""):
        self.t_exit = float(t_exit)
        super().__init__(message or f"orbit left the chart at t={t_exit:.6g}")


class StepTooLarge(EngelLabError):
    """An integration step tripped a continuity guard, or a horizon T or step
    dt is invalid: T not finite, or dt not finite and positive."""


class FrameDegenerate(EngelLabError):
    """The E/W frame lost rank along an orbit."""


class MonotonicityViolation(EngelLabError):
    """A developing-map angle steps back by more than rounding, or is NaN."""


class AmbiguousClass(EngelLabError):
    """A first-return holonomy sits on a classification boundary."""


class SingularIntegrand(EngelLabError):
    """The integral-identity quadrature hit a singular value near t=0."""


class VariationNotDCurve(EngelLabError):
    """A variation left the class of D-curves beyond tolerance."""


class NotNull(EngelLabError):
    """A curve in a null variation drifted off the null cone."""


class ConfigError(EngelLabError):
    """A run manifest or preset configuration is invalid."""
