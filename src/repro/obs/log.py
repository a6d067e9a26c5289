"""Structured logging for the repro package.

Replaces ad-hoc ``print()`` with leveled, field-carrying log events that
render two ways:

* **human** — ``HH:MM:SS.mmm LEVEL logger event key=value …`` (default);
* **JSON lines** — one ``{"ts": …, "level": …, "event": …, …}`` object
  per line, for log shippers and offline analysis.

Diagnostics go to **stderr** so they never corrupt CLI table output or
piped stdout.  User-facing CLI/benchmark output goes through
:func:`console`, which writes plain text to stdout in human mode and a
JSON record in ``--log-json`` mode — one formatter, two audiences.

Configuration: :func:`configure` from code, ``--log-level`` /
``--log-json`` from the CLI, or the environment::

    REPRO_LOG_LEVEL=debug   # debug|info|warning|error
    REPRO_LOG_JSON=1        # emit JSON lines

The module is dependency-free and thread-safe (one lock around stream
writes; loggers themselves are immutable).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

#: Numeric severities (stdlib-compatible ordering).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_LEVEL_NAMES = {v: k for k, v in LEVELS.items()}

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def _level_no(level: int | str) -> int:
    if isinstance(level, int):
        return level
    try:
        return LEVELS[level.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
        ) from None


class _Config:
    """Mutable process-wide logging configuration."""

    def __init__(self):
        #: Guards every mutation of the fields below; created once so a
        #: concurrent ``reset()`` can never swap it out from under a waiter.
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.level = _level_no(os.environ.get("REPRO_LOG_LEVEL", "info") or "info")
        self.json_mode = (
            os.environ.get("REPRO_LOG_JSON", "").strip().lower() in _TRUTHY
        )
        #: Diagnostic stream (log events).  ``None`` means "current
        #: sys.stderr" so pytest capsys / redirects keep working.
        self.stream = None
        #: User-facing stream (``console``).  ``None`` → current stdout.
        self.console_stream = None


_CONFIG = _Config()


def configure(
    level: int | str | None = None,
    json_mode: bool | None = None,
    stream=None,
    console_stream=None,
) -> None:
    """Adjust global logging; ``None`` keeps the current value."""
    with _CONFIG.lock:
        if level is not None:
            _CONFIG.level = _level_no(level)
        if json_mode is not None:
            _CONFIG.json_mode = bool(json_mode)
        if stream is not None:
            _CONFIG.stream = stream
        if console_stream is not None:
            _CONFIG.console_stream = console_stream


def reset() -> None:
    """Restore defaults (re-reading the environment).  Used by tests."""
    _CONFIG.reset()
    with _REGISTRY_LOCK:
        _LOGGERS.clear()


# -- formatting ---------------------------------------------------------------


def format_human(record: dict) -> str:
    """``HH:MM:SS.mmm LEVEL logger event key=value``."""
    ts = record.get("ts", time.time())
    frac = int((ts % 1) * 1000)
    clock = time.strftime("%H:%M:%S", time.localtime(ts))
    level = str(record.get("level", "info")).upper()
    parts = [f"{clock}.{frac:03d}", f"{level:<7}", str(record.get("logger", "-")),
             str(record.get("event", ""))]
    for key, value in record.items():
        if key in ("ts", "level", "logger", "event"):
            continue
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def format_json(record: dict) -> str:
    return json.dumps(record, default=str, separators=(",", ":"))


def _emit(record: dict) -> None:
    line = format_json(record) if _CONFIG.json_mode else format_human(record)
    stream = _CONFIG.stream or sys.stderr
    with _CONFIG.lock:
        stream.write(line + "\n")
        try:
            stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass


# -- loggers ------------------------------------------------------------------


class Logger:
    """A named source of structured log events.

    ``logger.info("batch_done", batch=8, ms=12.3)`` — the first argument
    is the machine-matchable *event* name; keyword arguments become
    structured fields.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def log(self, level: int | str, event: str, **fields) -> None:
        no = _level_no(level)
        if no < _CONFIG.level:
            return
        record = {
            "ts": time.time(),
            "level": _LEVEL_NAMES.get(no, str(no)),
            "logger": self.name,
            "event": event,
        }
        record.update(fields)
        _emit(record)

    def debug(self, event: str, **fields) -> None:
        self.log(10, event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log(20, event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log(30, event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log(40, event, **fields)

    def isEnabledFor(self, level: int | str) -> bool:  # noqa: N802 — stdlib-style
        return _level_no(level) >= _CONFIG.level


_LOGGERS: dict[str, Logger] = {}
_REGISTRY_LOCK = threading.Lock()


def get_logger(name: str) -> Logger:
    """Get-or-create the named logger (cached, thread-safe)."""
    with _REGISTRY_LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = _LOGGERS[name] = Logger(name)
        return logger


# -- user-facing console ------------------------------------------------------


def console(*parts, sep: str = " ", err: bool = False) -> None:
    """User-facing output (CLI tables, benchmark results).

    Human mode: plain text to stdout (stderr when ``err``) — exactly like
    ``print``, so terminal tables keep their layout.  JSON mode: the text
    is wrapped in a ``{"event": "console", "text": …}`` record so that a
    ``--log-json`` run produces *only* machine-parsable lines.
    """
    text = sep.join(str(p) for p in parts)
    if _CONFIG.json_mode:
        record = {"ts": time.time(), "level": "info", "logger": "console",
                  "event": "console", "text": text}
        stream = (_CONFIG.console_stream or sys.stdout) if not err else (
            _CONFIG.stream or sys.stderr)
        with _CONFIG.lock:
            stream.write(format_json(record) + "\n")
        return
    stream = _CONFIG.console_stream or sys.stdout
    if err:
        stream = _CONFIG.stream or sys.stderr
    with _CONFIG.lock:
        stream.write(text + "\n")
        try:
            stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass


__all__ = [
    "LEVELS",
    "Logger",
    "configure",
    "reset",
    "get_logger",
    "console",
    "format_human",
    "format_json",
]
