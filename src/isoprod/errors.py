"""Exception hierarchy shared by all modules."""


class IsoprodError(Exception):
    """Base class for all errors raised by this package."""


class GroupError(IsoprodError):
    """Invalid permutation data, oversized group, or a map that is not a group action."""


class GraphError(IsoprodError):
    """Structurally invalid or unstable dual graph, or an unsupported graph shape."""


class ActionError(IsoprodError):
    """Group action data that fails a consistency check."""


class CharacterError(ActionError):
    """Missing or mutually inconsistent character data."""


class RamificationError(ActionError):
    """Ramification data for which Riemann-Hurwitz has no valid solution."""


class SurfaceError(IsoprodError):
    """Invalid product-surface descriptor or violated surface precondition."""


class SmoothingError(IsoprodError):
    """A node orbit that cannot be smoothed equivariantly from the given data."""


class FamilyError(IsoprodError):
    """Invalid family input (mismatched groups, too few strata)."""


# longest "<path>: <message>" line a document problem keeps; paths carry
# user-chosen keys and messages echo user values, which hostile input can
# make megabytes long
_MAX_PROBLEM = 240


def _clip(problem: str, limit: int = _MAX_PROBLEM) -> str:
    """``problem`` cut in the middle with "..." to ``limit`` (>= 3) characters."""
    if len(problem) <= limit:
        return problem
    keep = limit - 3
    return f"{problem[: (keep + 1) // 2]}...{problem[len(problem) - keep // 2 :]}"


class DocumentError(IsoprodError):
    """Input document rejected; carries every detected problem, not just the first.

    ``problems`` is a list of "json.path: message" strings, each cut in the
    middle to at most ``_MAX_PROBLEM`` characters.
    """

    def __init__(self, problems):
        self.problems = [_clip(problem) for problem in problems]
        super().__init__("\n".join(self.problems))
