"""Exception hierarchy for paretoc."""


class ParetocError(Exception):
    """Base class for all paretoc errors."""


# --- tessellation ---


class DimensionTooLow(ParetocError):
    """Fewer than n+1 nodes were supplied for an n-dimensional tessellation."""


class DegenerateInput(ParetocError):
    """The nodes span fewer than n dimensions, or an insertion made a flat cell."""


class DuplicateNode(ParetocError):
    """Attempt to insert a node coinciding with an existing one."""


# --- problems ---


class UnknownProblem(ParetocError):
    """Requested problem name is not in the registry."""


# --- continuation ---


class UnsupportedObjectiveCount(ParetocError):
    """Polytope realization is only implemented for 2 or 3 objectives."""


# --- constrained ---


class RankDeficientConstraint(ParetocError):
    """Constraint Jacobian lost full rank at an evaluation point."""


class NonSquareUnsupported(ParetocError):
    """A manifold mesh for m objectives has cells that are not m-simplices."""


# --- refinement / metrics ---


class EmptyComplex(ParetocError):
    """Operation requires a nonempty complex."""


class NoProgress(ParetocError):
    """All refinement candidates were rejected by the spacing guard."""


class InsufficientData(ParetocError):
    """Not enough data points for the requested estimate."""
