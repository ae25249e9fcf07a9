"""Exception hierarchy shared by all latticemini modules.

Precondition-style failures derive from ValueError; consistency failures
(evidence of a bug or of a violated identity) derive from RuntimeError so
callers can tell the two classes apart.
"""

from __future__ import annotations


class LatticeMiniError(Exception):
    """Base class for every error raised by this package."""


class ConstructionError(LatticeMiniError, ValueError):
    """Invalid polytope construction input (empty, ragged, non-integer)."""


class NotFullDimensionalError(LatticeMiniError, ValueError):
    """Operation requires a full-dimensional polytope in its ambient space."""


class UnsupportedInputError(LatticeMiniError, ValueError):
    """Input outside the supported class (e.g. non-lattice intersection)."""


class ResourceLimitError(LatticeMiniError, RuntimeError):
    """A hard input guard was exceeded; the request is refused, not truncated."""


class InternalConsistencyError(LatticeMiniError, RuntimeError):
    """Two internal computation paths disagree; signals a bug, never swallowed."""


class TheoremViolationError(LatticeMiniError, RuntimeError):
    """An identity that must hold exactly failed; a test signal, never swallowed."""


class PolytopeParseError(LatticeMiniError, ValueError):
    """Malformed polytope JSON; the message gives the line and column when known."""
