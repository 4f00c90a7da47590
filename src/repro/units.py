"""Unit helpers and shared constants.

All simulation time is measured in **seconds** (floats); all data sizes in
**bytes** (ints).  These helpers exist so protocol code reads like the
paper ("heartbeat every 30 seconds", "348 microsecond diagnosis") instead
of sprinkling magic powers of ten.
"""

from __future__ import annotations

#: One microsecond, in seconds.
USEC = 1e-6
#: One millisecond, in seconds.
MSEC = 1e-3
#: One second (identity; included for symmetry/readability).
SEC = 1.0
#: One minute, in seconds.
MINUTE = 60.0
#: One hour, in seconds.
HOUR = 3600.0

#: One kibibyte / mebibyte, in bytes.
KIB = 1024
MIB = 1024 * KIB


def usec(n: float) -> float:
    """``n`` microseconds expressed in seconds."""
    return n * USEC


def msec(n: float) -> float:
    """``n`` milliseconds expressed in seconds."""
    return n * MSEC


def minutes(n: float) -> float:
    """``n`` minutes expressed in seconds."""
    return n * MINUTE


def hours(n: float) -> float:
    """``n`` hours expressed in seconds."""
    return n * HOUR


def kib(n: float) -> int:
    """``n`` KiB expressed in bytes (rounded)."""
    return int(n * KIB)


def mib(n: float) -> int:
    """``n`` MiB expressed in bytes (rounded)."""
    return int(n * MIB)


def fmt_time(t: float) -> str:
    """Render a duration the way the paper's tables do.

    Sub-millisecond durations render in microseconds (``348us``),
    sub-second in milliseconds (``120ms``), everything else in seconds
    with two decimals (``30.39s``).
    """
    if t < 0:
        raise ValueError(f"negative duration: {t!r}")
    if t == 0:
        return "0s"
    if t < MSEC:
        return f"{t / USEC:.0f}us"
    if t < SEC:
        return f"{t / MSEC:.0f}ms"
    return f"{t:.2f}s"


def fmt_bytes(n: int) -> str:
    """Human-readable byte count (``1.5MiB``)."""
    if n < 0:
        raise ValueError(f"negative size: {n!r}")
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or suffix == "GiB":
            if suffix == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{suffix}"
        value /= 1024
    raise AssertionError("unreachable")
