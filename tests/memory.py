"""Memory measurement shared by the test suite's memory bounds."""

from __future__ import annotations

import tracemalloc


def peak_and_retained(fn, *args):
    """``fn(*args)``, the most memory it held at once, and the memory its
    call left allocated, in bytes, as tracemalloc counts them (numpy's array
    buffers included). Retained bytes are those of the result and anything
    else the call kept alive."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        now, peak = tracemalloc.get_traced_memory()
        return result, peak - before, now - before
    finally:
        if not tracing:
            tracemalloc.stop()
