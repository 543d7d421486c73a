"""Exception types shared across the package.

Two kinds of failure are distinguished.  Contract violations (composite
characteristic, duplicate evaluation points, shape mismatches, ...) mean
the caller handed us something invalid.  ConstructionInfeasible subclasses
mean the request was well-formed but no code with those parameters can be
produced by the implemented families: an exhausted search, a point set
without a self-dual scaling, a length outside a family's range.  The CLI
reports the former with exit code 1 and the latter with exit code 2.  A
search that runs out of its node budget (SearchGaveUpError) has proved
nothing; the CLI exits 2 for it too, with a message saying it gave up.
"""


class GrsDualError(Exception):
    """Base class for every error raised by this package."""


class ConstructionInfeasible(GrsDualError):
    """A well-formed construction request that cannot be satisfied."""


# --- field construction / arithmetic -----------------------------------

class NotPrimeError(GrsDualError):
    """Characteristic is composite, or a size is not a prime power."""


class TooLargeError(GrsDualError):
    """Requested field exceeds the supported size limit."""


class DivisionByZeroError(GrsDualError, ZeroDivisionError):
    """Inverse or negative power of the zero element."""


class BadSubfieldError(ConstructionInfeasible):
    """Subfield order is not p^d with d dividing the extension degree."""


class EvenCharacteristicError(ConstructionInfeasible):
    """Operation requires odd characteristic."""


class NonResidueError(GrsDualError):
    """Square root requested for an element of character -1."""


class BadOrderError(ConstructionInfeasible):
    """Requested root-of-unity order does not divide q - 1."""


# --- linear algebra / codes --------------------------------------------

class DuplicatePointsError(GrsDualError):
    """Evaluation points must be pairwise distinct."""


class ShapeMismatchError(GrsDualError):
    """Matrix dimensions or entry counts do not agree."""


class LengthMismatchError(GrsDualError):
    """A code needs one column multiplier per evaluation point."""


# --- constructions ------------------------------------------------------

class NoSubfieldSolutionError(ConstructionInfeasible):
    """The nullspace line contains no nonzero vector over the subfield."""


class NotSelfDualizableError(ConstructionInfeasible):
    """No column scaling makes the evaluation code self-dual."""


class OddLengthError(ConstructionInfeasible):
    """Self-dual codes require even length."""


class LengthTooLongError(ConstructionInfeasible):
    """Requested length exceeds what the family supports."""


class BadResidueClassError(ConstructionInfeasible):
    """Field size is in the wrong residue class for this family."""


class ParameterRangeError(ConstructionInfeasible):
    """A numeric parameter is outside the family's valid range."""


class NotFoundError(ConstructionInfeasible):
    """Exhaustive search completed without finding a witness."""


# --- verification -------------------------------------------------------

class BudgetExceededError(GrsDualError):
    """Exact check would exceed the configured work budget."""


class SearchGaveUpError(BudgetExceededError):
    """A search used up its node budget before it found a witness or ruled
    one out, so it proved nothing either way."""

    def __init__(self, budget: int):
        super().__init__(f"search exceeded node budget {budget}")
        self.budget = budget


class InternalCheckError(GrsDualError):
    """A mathematically guaranteed step failed; indicates a bug."""
