"""Host facts: the cores this process may run on."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware).

    Containers routinely restrict the affinity mask well below
    ``os.cpu_count()``, so the mask size is the honest default.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


__all__ = ["usable_cores"]
