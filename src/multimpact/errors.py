"""Error types shared across the impact-resolution pipeline."""

from __future__ import annotations

__all__ = [
    "MultimpactError",
    "LcpSolveError",
    "ConeViolationError",
    "NonDegeneracyViolation",
    "SequentialCapExceeded",
    "SceneFormatError",
    "ThreadStartError",
]


class MultimpactError(Exception):
    """Base class for solver-level failures."""


class LcpSolveError(MultimpactError):
    """The complementarity solver did not return a certified solution."""

    def __init__(self, status: str, detail: str = ""):
        self.status = status
        self.detail = detail
        message = f"LCP solve failed with status {status!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        # Rebuild from the arguments, not from the formatted message, so
        # the error crosses a process boundary unchanged.
        return type(self), (self.status, self.detail), self.__dict__


class ConeViolationError(MultimpactError):
    """A computed post-impact state failed the friction-cone audit."""


class NonDegeneracyViolation(MultimpactError):
    """No strictly separating impulse-progress certificate exists: some
    nonnegative combination of contact impulse rays produces no velocity
    change (the contact geometry can jam)."""


class SequentialCapExceeded(MultimpactError):
    """One-contact-at-a-time resolution did not settle within the cap."""


class SceneFormatError(ValueError):
    """A scene description is well-formed JSON but inconsistent (for
    example a ``v0`` whose length differs from the scene's velocity
    dimension).  Not a solver failure, so it does not derive from
    :class:`MultimpactError`."""


class ThreadStartError(OSError):
    """The system would not start a thread for one of ``approximate``'s
    job ranges (it is out of threads or memory).  An ``OSError``, as a
    failed ``fork`` is, so the command line exits with code 3."""
