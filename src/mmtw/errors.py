"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad vertex id, broken format, ...)."""


class ResourceError(RuntimeError):
    """A resource cap was hit: a settable one (blocker trace node budget, DP
    table size) or a fixed one (separator guesses, per-set oracle steps, MIS
    and target sizes).

    The trace has no depth cap: each stack frame of its search is a node
    charged to the budget, so the node budget bounds the depth too.  A
    search deeper than the interpreter allows raises RecursionError, which
    the CLI reports as a resource exit as well.

    Carries whatever partial statistics the aborted computation collected.
    """

    def __init__(self, message, **stats):
        super().__init__(message)
        self.stats = dict(stats)
