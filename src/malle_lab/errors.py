"""Exception types shared across the package."""


class MalleLabError(Exception):
    """Base class for all package errors."""


class CoprimalityViolation(MalleLabError):
    """Ramification indices of the two factors share a prime factor."""


class OrderCapExceeded(MalleLabError):
    """Group closure grew past the configured order cap."""


class TrivialGroup(MalleLabError):
    """Operation needs a non-identity element but the group is trivial."""


class HypothesisViolated(MalleLabError):
    """|A| fails the coprimality hypothesis for the requested S_n."""

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        super().__init__(f"abelian order {m} violates the hypothesis for n={n}")


class IncompleteRkTable(MalleLabError):
    """r_k table does not cover every non-identity class of S_n."""


class SlopeNotGreater(MalleLabError):
    """Equal slopes where one factor's slope must win strictly: product_b needs
    a smaller a/deg on one side."""


class InsufficientRange(MalleLabError):
    """A counting sequence cannot be extended to cover the requested window."""


class InsufficientData(MalleLabError):
    """Not enough sample points (or decades) for a fit."""


class MalformedLine(MalleLabError):
    """A JSONL record failed to parse."""

    def __init__(self, lineno: int, reason: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {reason}")


class InvariantViolation(MalleLabError):
    """A record (or internal result) violates a structural invariant."""


class IncompleteList(MalleLabError):
    """A field list is not complete over the window an operation needs."""


class MissingWildEntry(MalleLabError):
    """Exact composition hit a wild prime pair absent from the wild table."""


class InadmissiblePair(MalleLabError):
    """The two fields' group labels do not form a supported S_n x A pair."""


class CapExceeded(MalleLabError):
    """Requested enumeration exceeds the configured cap."""


class NotSquarefree(MalleLabError):
    """Modulus q must be squarefree."""


class InsufficientGrid(MalleLabError):
    """Experiment grids must span at least a decade."""
