"""Error taxonomy shared across the package.

Three failure families matter operationally: bad configuration (rejected
before any computation), violated mathematical invariants (a computation
produced something the theory forbids), and iterative solvers giving up.
The command line front end maps them to distinct exit codes.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


class InvariantError(RuntimeError):
    """A runtime check of a mathematical invariant failed."""


class NonConvergenceError(RuntimeError):
    """An iterative procedure exhausted its budget without converging.

    artifacts names the files a command had already written when it gave
    up, so the manifest can list exactly those.
    """

    def __init__(self, message, artifacts=()):
        super().__init__(message)
        self.artifacts = tuple(artifacts)
