"""Errors of the atom-recovery pipeline, importable without numpy or the
algebra modules, so that callers can catch them before recovery loads."""

from __future__ import annotations


class IndeterminateRankError(RuntimeError):
    """The singular spectrum does not support a clean rank decision."""

    def __init__(self, message: str, singular_values, band: tuple[float, float]):
        super().__init__(message)
        self.singular_values = list(map(float, singular_values))
        self.band = band


class RecoveryFailedError(RuntimeError):
    """Recovery ran but could not produce a moment-matching measure."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
