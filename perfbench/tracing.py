"""Benchmark-side tracing: spans around calls into the program's layers.

Nothing here records spans inside ``src/``.  The traced run wraps the
protocol runner that the engine hands to ``replay_with_runner``, the
sampler's ``on_countdown``, and the public functions the program calls
between layers (``decode_arrays``, ``replay_with_runner``,
``select_board_engine``), then reads the program's own counters and
histograms.  Spans are aggregated in memory per name: call count, total
time, and self time (total minus the time covered by child spans).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Aggregates nested spans by name; one instance per traced pass."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._children: list = []  # child time accumulated per open span

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - children
            if self._children:
                self._children[-1] += duration

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


@contextmanager
def patched(original, replacement):
    """Route every reference to ``original`` held by a loaded ``repro``
    module to ``replacement`` for the duration of the block.

    Covers both the defining module and every ``from x import f`` copy,
    so the program's own call sites reach the wrapper.  Refuses to run if
    nothing references ``original``: a layer the traced run cannot see
    must fail loudly rather than report zero time.
    """
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith("repro.")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attribute))
    if not sites:
        raise RuntimeError(
            f"no repro module references {original.__qualname__}"
        )
    for module, attribute in sites:
        setattr(module, attribute, replacement)
    try:
        yield
    finally:
        for module, attribute in sites:
            setattr(module, attribute, original)
