"""Exception hierarchy shared by all modules."""


class EnriquesBNError(Exception):
    """Base class for all domain errors raised by this package."""


class FormMismatchError(EnriquesBNError):
    """Two classes living in different intersection forms were paired."""


class ZeroClassError(EnriquesBNError):
    """An operation that needs a nonzero class received zero."""


class NotPositiveDefiniteError(EnriquesBNError):
    """A quadratic form that must be positive definite is not."""


class PositiveSquareRequiredError(EnriquesBNError):
    """The projection construction needs a class of positive self-intersection."""


class NotRealizableError(EnriquesBNError):
    """A requested intersection configuration can never be embedded; a
    bounded search that runs out raises SearchExhaustedError instead."""


class SearchExhaustedError(EnriquesBNError):
    """A certified search hit its configured bound without an answer.

    The bound that was hit is reported in the message; results are never
    silently truncated.
    """


class NotAmpleEnoughError(EnriquesBNError):
    """Input class fails the 'effective with positive square' precondition."""


class NotAmpleError(EnriquesBNError):
    """Input class is not ample (or has too small a square)."""


class GenusTooSmallError(EnriquesBNError):
    """Clifford index asked for a genus < 4 curve.

    For genus 2 and 3 the value is fixed by convention (0 for hyperelliptic
    curves, 1 for non-hyperelliptic genus 3); it is carried in
    ``convention_value`` so callers can report it.
    """

    def __init__(self, genus: int, convention_value: int, reason: str):
        super().__init__(
            f"genus {genus} < 4; convention value {convention_value} ({reason})"
        )
        self.genus = genus
        self.convention_value = convention_value
        self.reason = reason


class RangeError(EnriquesBNError):
    """A degree parameter fell outside its admissible range."""


class ClassParseError(EnriquesBNError):
    """A class literal could not be parsed; ``position`` points at the error."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CertificateError(EnriquesBNError):
    """An exact check on a search result failed.

    Searches recheck what they return (the square of every enumerated class,
    the solvability of the degree equation); a failure means the result is
    not certified, so it is raised instead of returned.
    """
