"""Per-layer tracing from outside the program.

The traced run of each workload wraps the public entry points of each
layer from here; nothing under ``src/`` is instrumented.  Two tools:

* :class:`LayerTimer` wraps callables and accumulates busy time and call
  counts per layer name (the real pipeline and the server, where each
  layer is a plain method call);
* :class:`StackSampler` samples the main thread's stack and charges each
  sample to the innermost frame that belongs to a layer (the simulator,
  whose layers are generator bodies resumed by the event loop, so their
  time cannot be bracketed by a wrapper around a call).

The gap between a traced run and an untraced run of the same workload is
the tracing overhead; the README reports it.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
import typing as t
from collections import defaultdict


class LayerTimer:
    """Busy time and calls per layer, collected by wrapping callables."""

    def __init__(self) -> None:
        self.busy_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def wrapper(
        self,
        fn: t.Callable[..., t.Any],
        layer: str,
        before: t.Callable[..., None] | None = None,
    ) -> t.Callable[..., t.Any]:
        """``fn`` timed under ``layer``; ``before`` sees every call's args."""
        busy = self.busy_s
        calls = self.calls
        clock = time.perf_counter

        def timed(*args: t.Any, **kwargs: t.Any) -> t.Any:
            if before is not None:
                before(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[layer] += clock() - t0
                calls[layer] += 1

        return timed

    def wrap(
        self,
        obj: object,
        attr: str,
        layer: str,
        before: t.Callable[..., None] | None = None,
    ) -> None:
        """Replace ``obj.attr`` (an instance's bound method) by its timed form.

        Meant for objects the benchmark built and discards afterwards, so
        nothing needs restoring.
        """
        setattr(obj, attr, self.wrapper(getattr(obj, attr), layer, before))


@contextlib.contextmanager
def patched(obj: object, attr: str, replacement: t.Any) -> t.Iterator[None]:
    """Temporarily replace a class or module attribute."""
    original = getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield
    finally:
        setattr(obj, attr, original)


class StackSampler:
    """Statistical host-time shares by module, sampled from a thread.

    ``layers`` maps a layer name to module names; a sample goes to the
    layer of the innermost frame whose module is listed, or to
    ``"other"`` when none is.  The interpreter's switch interval is set
    to the sampling period while sampling, so the sampler gets the lock
    about once a period.
    """

    def __init__(
        self, layers: t.Mapping[str, t.Sequence[str]], period_s: float = 0.005
    ) -> None:
        self._layer_of = {mod: layer for layer, mods in layers.items() for mod in mods}
        self.counts: dict[str, int] = defaultdict(int)
        self._period = period_s
        self._target = threading.main_thread().ident
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="stack-sampler")
        self._saved_interval = sys.getswitchinterval()

    def _classify(self, frame: t.Any) -> str:
        layer_of = self._layer_of
        while frame is not None:
            layer = layer_of.get(frame.f_globals.get("__name__", ""))
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _run(self) -> None:
        frames = sys._current_frames
        while not self._stop.wait(self._period):
            frame = frames().get(self._target)
            if frame is not None:
                self.counts[self._classify(frame)] += 1
            del frame

    def __enter__(self) -> "StackSampler":
        sys.setswitchinterval(self._period)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._saved_interval)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def share(self, layer: str) -> float:
        total = self.samples
        return self.counts.get(layer, 0) / total if total else 0.0
