"""Wall-clock layer attribution for the benchmark's traced runs.

:class:`WallSampler` arms ``setitimer(ITIMER_REAL)``; every SIGALRM
charges the wall time elapsed since the previous sample to the stack
the main thread is executing at that moment:

* **self time** goes to the innermost frame that belongs to a named
  layer, one of the ``repro`` subpackages in :data:`LAYERS`.  Frames of
  ``repro.common`` and of the top-level ``repro`` modules (``options``,
  ``api``) are helpers: they are skipped, so their time counts toward
  the layer that called them.  Stdlib and numpy frames are skipped the
  same way, so numpy work inside the classifier is charged to the
  classifier.  ``repro.machine.simulator`` is split by function into
  ``machine.classify`` and ``machine.resolve``.
* **span time** goes to every span whose frame is anywhere on the
  stack: ``workloads.busy`` (any ``repro.workloads`` frame, i.e.
  ``instantiate`` and the ``access_chunks`` generators),
  ``machine.build`` (``SpurMachine.__init__``) and ``machine.busy``
  (``SpurMachine.run_chunks``).
* **blocked time** is self time whose innermost Python frame is a
  ``threading`` wait (a pool parent waiting on results or joining
  workers).

The sampler is wall-clock and signal-driven on purpose.  A timer
signal is handled by the main thread between bytecodes, so time spent
inside numpy or inside a blocking ``fsync`` is charged, once the call
returns, to the frame that made the call.  Charging elapsed time
rather than counting samples keeps long native calls, during which
several timer ticks coalesce into one signal, at their true weight.
"""

import os
import signal
import threading
import time
from collections import defaultdict

#: The layers time is charged to, named after ``repro`` subpackages.
LAYERS = (
    "workloads", "machine", "translation", "vm", "cache", "counters",
    "policies", "parallel", "campaignd", "analysis",
)

#: ``repro`` subpackages whose frames count toward their caller.
HELPER_PACKAGES = ("common",)

#: ``SpurMachine`` functions of the structural slow path: miss and
#: unsettled-write resolution plus the deferred-counter flush.  Every
#: other function of ``repro/machine/simulator.py`` classifies hits
#: (the chunk loop, the vectorized sweep, the per-reference loop).
RESOLVERS = frozenset({
    "_resolve_miss", "_resolve_write_hit", "_slow_write_hit", "_miss",
    "_flush_tally", "flush_page",
})

#: Span name -> predicate over (layer, code) for frames that open it.
SPANS = {
    "workloads.busy": lambda layer, code: layer == "workloads",
    "machine.build": (
        lambda layer, code: code.co_qualname == "SpurMachine.__init__"
    ),
    "machine.busy": (
        lambda layer, code: code.co_qualname == "SpurMachine.run_chunks"
    ),
}

_HELPER = "helper"
_THREADING_FILE = threading.__file__


def layer_of(filename, function, package_dir):
    """The layer a code object of *filename* belongs to.

    Returns ``None`` outside the ``repro`` package (stdlib, numpy, the
    benchmark itself), :data:`_HELPER` for helper frames, a
    ``machine.classify``/``machine.resolve`` split for the simulator,
    and otherwise the subpackage name, which may be a package outside
    :data:`LAYERS` (``observe``, ``fleet``, ...).
    """
    prefix = package_dir + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    if len(parts) == 1 or parts[0] in HELPER_PACKAGES:
        return _HELPER
    if parts[0] == "machine" and parts[1] == "simulator.py":
        if function in RESOLVERS:
            return "machine.resolve"
        return "machine.classify"
    return parts[0]


def base_layer(layer):
    """``machine.classify`` -> ``machine``; other layers unchanged."""
    return layer.split(".", 1)[0]


class WallSampler:
    """Signal-driven wall-clock sampler over the main thread's stack.

    ``package_dir`` is the directory of the ``repro`` package being
    measured.  Call :meth:`start` and :meth:`stop` around each traced
    region; totals accumulate across regions.
    """

    def __init__(self, package_dir, interval=0.001):
        self.package_dir = os.path.realpath(package_dir)
        self.interval = interval
        self.samples = 0
        self.traced_s = 0.0
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.blocked_s = defaultdict(float)
        self._codes = {}
        self._last = None
        self._previous_handler = None

    def start(self):
        """Begin charging wall time (main thread only)."""
        self._previous_handler = signal.signal(
            signal.SIGALRM, self._on_signal
        )
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        """Disarm the timer; the tail since the last sample is unnamed."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.traced_s += time.perf_counter() - self._last
        self._last = None

    def named_s(self):
        """Traced seconds charged to one of :data:`LAYERS`."""
        return sum(
            seconds for layer, seconds in self.self_s.items()
            if base_layer(layer) in LAYERS
        )

    def coverage(self):
        """Share of traced wall time charged to a named layer."""
        return self.named_s() / self.traced_s if self.traced_s else 0.0

    def _code_info(self, code):
        info = self._codes.get(code)
        if info is None:
            layer = layer_of(
                os.path.realpath(code.co_filename), code.co_name,
                self.package_dir,
            )
            spans = tuple(
                name for name, opens in SPANS.items()
                if layer is not None and opens(layer, code)
            )
            info = (layer, spans)
            self._codes[code] = info
        return info

    def charge(self, frame, seconds):
        """Charge *seconds* to the stack whose innermost frame is *frame*."""
        blocked = frame is not None and (
            frame.f_code.co_filename == _THREADING_FILE
        )
        owner = None
        spans = set()
        while frame is not None:
            layer, frame_spans = self._code_info(frame.f_code)
            if owner is None and layer is not None and layer != _HELPER:
                owner = layer
            spans.update(frame_spans)
            frame = frame.f_back
        owner = owner or "unattributed"
        self.self_s[owner] += seconds
        if blocked:
            self.blocked_s[owner] += seconds
        for name in spans:
            self.span_s[name] += seconds

    def _on_signal(self, signum, frame):
        now = time.perf_counter()
        elapsed = now - self._last
        self._last = now
        self.samples += 1
        self.traced_s += elapsed
        self.charge(frame, elapsed)
