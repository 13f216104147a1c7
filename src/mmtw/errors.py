"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad vertex id, broken format, ...)."""


class ResourceError(RuntimeError):
    """A resource cap was hit: a settable one (blocker trace node budget or
    depth, DP table size) or a fixed one (separator guesses, per-set oracle
    steps, MIS and target sizes).

    Carries whatever partial statistics the aborted computation collected.
    """

    def __init__(self, message, **stats):
        super().__init__(message)
        self.stats = dict(stats)
