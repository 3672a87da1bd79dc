"""Exception types shared across the package."""

from __future__ import annotations


class GapLabError(Exception):
    """Base class for all gaplab-specific errors."""


class ParseError(GapLabError):
    """Malformed graph or labelling text; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MissingEdgeError(GapLabError):
    """An edge scheduled for removal is not present in the graph."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"edge {pair} is not present in the graph")
        self.pair = pair


class UnsupportedInputError(GapLabError):
    """The graph falls outside what the operation supports (e.g. disconnected)."""


class InvalidLabellingError(GapLabError):
    """A transform received a labelling that is not a valid gap labelling.

    ``conflicts`` holds every conflicting edge, as ``is_gap_labelling``
    lists them.
    """

    def __init__(self, message: str, conflicts):
        super().__init__(message)
        self.conflicts = conflicts


class DomainError(GapLabError):
    """Operation requested outside its mathematical domain (e.g. asking for a
    labelling of a family member that has none)."""


class SearchBudgetExceeded(GapLabError):
    """The assignment budget ran out before the search reached a verdict."""

    def __init__(self, tried: int, budget: int):
        super().__init__(f"search budget exhausted after {tried} assignments (cap {budget})")
        self.tried = tried
        self.budget = budget
