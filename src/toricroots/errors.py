"""Exception hierarchy shared by all modules.

``InputError`` marks malformed input data (CLI exit code 2).  ``DomainError``
marks structurally valid input that lies outside the domain of the requested
analysis, e.g. a non-radiant fan fed to a radiant-only computation (CLI exit
code 1).  ``InvariantViolation`` signals an internal consistency failure that
should be unreachable on valid input.
"""

from __future__ import annotations

import re


class ToricError(Exception):
    """Base class for every error raised by this package."""


class InputError(ToricError):
    """Malformed input; ``violations`` names each broken invariant, by
    default the message's leading ``name:`` prefix (none without one)."""

    def __init__(self, message: str, violations=None):
        super().__init__(message)
        if violations is None:
            violations = re.findall(r"\A([a-z0-9-]+): ", message)
        self.violations = tuple(violations)


class DomainError(ToricError):
    """Valid data outside the domain of the requested operation."""


class DegenerateRaysError(DomainError):
    """Rays do not span the ambient rational vector space."""


class IncompleteFanError(DomainError):
    """Ray set cannot belong to a complete fan (checked for rank <= 2)."""


class NotBilateralError(DomainError):
    """Analysis needs a bilateral fan but none was found."""


class NotCanonicalError(DomainError):
    """Ray matrix must first be put in canonical column order."""


class NoOpenOrbitError(DomainError):
    """Root set lacks a basic root, so the subgroup has no open orbit."""


class NotRadiantError(DomainError):
    """Surface sequence is not radiant."""


class NotTypeIError(DomainError):
    """Operation is defined only for varieties with commutative U_max."""


class CapExceededError(DomainError):
    """A configurable search or size cap was exceeded."""


class DegreeCapError(CapExceededError):
    """Polynomial degree guard tripped during exact composition."""


class ResultCapError(CapExceededError):
    """Enumeration hit the result cap; carries the partial output."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class InvariantViolation(ToricError):
    """Internal consistency check failed; indicates a bug, not bad input."""
