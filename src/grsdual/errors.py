"""Exception types shared across the package: one per way a run can end.

GrsDualError is a bad request or a broken contract: a composite
characteristic, a field past the size limit, repeated evaluation points,
a malformed code object, or a guaranteed step that failed.  The CLI
reports it with exit code 1.  ConstructionInfeasible is a well-formed
request that no implemented family can satisfy, such as a length outside
a family's range or a field in the wrong residue class; the CLI exits 2.
Its subclass NotFoundError is a search that finished and found no
witness, which construct_auto catches to try the next family.
BudgetExceededError is an exact check that gave up at its work budget,
and its subclass SearchGaveUpError a search that gave up at its node
budget; both have proved nothing, and the CLI exits 2 for them and says
so.  The message, not the class, says which rule was broken.
"""


class GrsDualError(Exception):
    """Base class for every error raised by this package."""


class ConstructionInfeasible(GrsDualError):
    """A well-formed construction request that cannot be satisfied."""


class NotFoundError(ConstructionInfeasible):
    """Exhaustive search completed without finding a witness."""


class BudgetExceededError(GrsDualError):
    """Exact check would exceed the configured work budget."""


class SearchGaveUpError(BudgetExceededError):
    """A search used up its node budget before it found a witness or ruled
    one out, so it proved nothing either way."""

    def __init__(self, budget: int):
        super().__init__(f"search exceeded node budget {budget}")
        self.budget = budget
