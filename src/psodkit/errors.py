"""Exception taxonomy shared by the library and the CLI.

Exit-code contract: ParseError -> 1, InputError / PreconditionError /
InvariantError -> 2, CapExceededError -> 3.
"""


class PsodkitError(Exception):
    """Base class for all library errors."""


class ParseError(PsodkitError):
    """A document could not be decoded or is schema-invalid."""

    exit_code = 1


class InputError(PsodkitError):
    """Arguments are structurally invalid (duplicate labels, bad residue...)."""

    exit_code = 2


class PreconditionError(PsodkitError):
    """A stated precondition of an operation does not hold."""

    exit_code = 2


class InvariantError(PsodkitError):
    """An internal invariant failed; ``witness`` names the objects involved
    (for a graded limit: the arrow, its block and both fibers)."""

    exit_code = 2

    def __init__(self, message: str, witness: dict) -> None:
        super().__init__(message)
        self.witness = witness


class CapExceededError(PsodkitError):
    """An enumeration would exceed the configured resource caps."""

    exit_code = 3
