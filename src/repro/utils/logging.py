"""Thin logging wrapper so all library components share one configuration."""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "configure_logging"]

_ROOT_NAME = "repro"
_handler: "logging.Handler | None" = None

_TEXT_FORMAT = ("[%(asctime)s] %(name)s %(levelname)s: %(message)s", "%H:%M:%S")


def configure_logging(level: int = logging.INFO, stream=None) -> None:
    """Install a single stream handler on the library's root logger.

    Safe to call multiple times: exactly one handler is ever installed, and
    repeat calls re-apply ``level`` (to the logger *and* the handler), so
    later calls genuinely reconfigure rather than being ignored.  ``stream``
    only takes effect on the first call (the handler keeps the stream it was
    created with).
    """
    global _handler
    logger = logging.getLogger(_ROOT_NAME)
    logger.setLevel(level)
    if _handler is None:
        _handler = logging.StreamHandler(stream or sys.stderr)
        _handler.setFormatter(logging.Formatter(*_TEXT_FORMAT))
        logger.addHandler(_handler)
    _handler.setLevel(level)


def get_logger(name: str) -> logging.Logger:
    """Return a child logger under the library root namespace."""
    if name.startswith(_ROOT_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
