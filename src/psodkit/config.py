"""Resource caps and run configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import CapExceededError, InputError


@dataclass(frozen=True)
class Caps:
    """Enumeration limits.

    carrier:        largest preorder carrier any builder may materialize
    factorial_level: largest n for which Z_{n!} machinery may be used
    nerve_depth:    deepest codimension explored when building strata from charts
    verify_total:   largest total diagram carrier verify_colimit will accept
    """

    carrier: int = 100_000
    factorial_level: int = 8
    nerve_depth: int = 3
    verify_total: int = 12

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise InputError(f"cap {f.name!r} must be positive")

    def check_carrier(self, size: int, what: str = "carrier") -> None:
        if size > self.carrier:
            raise CapExceededError(f"{what} needs {size} elements, cap is {self.carrier}")

    def check_level(self, level: int) -> None:
        if level > self.factorial_level:
            raise CapExceededError(
                f"factorial level {level} exceeds cap {self.factorial_level}"
            )


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class Config:
    """CLI-facing configuration: caps plus output/ordering switches."""

    caps: Caps = DEFAULT_CAPS
    output: str = "human"  # "human" | "machine"
    totalize: bool = False

    def __post_init__(self) -> None:
        if self.output not in ("human", "machine"):
            raise InputError(f"unknown output mode {self.output!r}")
