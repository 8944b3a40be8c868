"""In-memory spans recorded around calls into the program's public functions.

The tracer patches module attributes (the names the pipeline looks up at
call time), records one span per call and restores the originals on
``uninstall``.  Spans live in a list until the run ends; ``summarize``
turns them into self time and call counts per layer.
"""

import time
from collections import namedtuple

Span = namedtuple("Span", "name layer start end parent op error")


class Tracer:
    """Span recorder for one benchmark process.

    ``op`` is the identifier of the operation in progress (a trial, a fix or
    a bound); every span records it, so spans of one operation share it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self.iterations = []
        self._stack = []
        self._patched = []

    def wrap(self, module, attr, layer, before=None, after=None):
        """Replace ``module.attr`` by a span-recording wrapper.

        ``before(args)`` runs ahead of the span (used to set ``op``);
        ``after(result)`` sees each successful result.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, layer, start, end, parent, self.op, error)
            if after is not None:
                after(result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def uninstall(self):
        """Restore every patched attribute, most recent first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def to_records(self):
        """Spans as JSON-ready lists: [name, layer, start, end, parent, op, error]."""
        return [list(s) for s in self.spans]


def self_times(spans):
    """Per-span self time: its duration minus the time its children cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered time is the sum of the children's durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans):
    """Self seconds and call counts per layer.

    A call counts once per entry into a layer: a span whose parent belongs
    to the same layer (say ``build_known_power_system`` calling
    ``build_system``) adds self time but no call.  Failures count each
    exception once, at the outermost span it escaped from.
    """
    own = self_times(spans)
    layer_self = {}
    layer_calls = {}
    failures = {}
    for s, t in zip(spans, own):
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + t
        parent = spans[s.parent] if s.parent is not None else None
        if parent is None or parent.layer != s.layer:
            layer_calls[s.layer] = layer_calls.get(s.layer, 0) + 1
        if s.error is not None and (parent is None or parent.error is None):
            failures.setdefault(s.error, []).append(s.op)
    return layer_self, layer_calls, failures
