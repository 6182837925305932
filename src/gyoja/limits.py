"""The element cap and the error raised when a computation would pass it.

Kept apart from :mod:`gyoja.weyl` so that code which only needs the cap or
the error (the CLI, the closed-form expansion) does not import numpy.
"""

from __future__ import annotations

import os

__all__ = ["DEFAULT_MAX_ELEMENTS", "ResourceLimitExceeded", "element_cap", "is_integer_text"]

DEFAULT_MAX_ELEMENTS = 5_000_000
_CAP_ENV_VAR = "GYOJA_MAX_ELEMENTS"


def is_integer_text(text: str) -> bool:
    """Whether ``text`` is ASCII digits after an optional + or -: unlike ``int()``, no blank, ``_`` or other digit."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def element_cap(max_elements: int | None = None) -> int:
    """The element cap in force: the argument, else GYOJA_MAX_ELEMENTS, else the default.

    Raises ValueError unless the cap is an integer >= 1.
    """
    cap, source = max_elements, "element cap"
    if cap is None:
        env = os.environ.get(_CAP_ENV_VAR, "")
        if not env:
            return DEFAULT_MAX_ELEMENTS
        cap, source = int(env) if is_integer_text(env) else env, _CAP_ENV_VAR
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {cap!r}")
    return cap


class ResourceLimitExceeded(RuntimeError):
    """The element cap was hit; carries the radius completed before it and the cap."""

    def __init__(self, completed_radius: int, cap: int):
        super().__init__(f"element cap {cap} exceeded after completing radius {completed_radius}")
        self.completed_radius = completed_radius
        self.cap = cap
