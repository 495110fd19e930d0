"""Outside-in tracing: spans recorded around the program's layer entry points.

The benchmark never turns on the program's own tracer or metrics
registry (``repro.obs``): with the session tracer on,
``BatchSimulator.run`` takes a different input path, so the traced run
would measure another program.  Instead :class:`SpanRecorder` replaces
the public functions each layer exposes, at the module or class
attribute the flow calls them through, with a timing wrapper for the
length of a ``with recorder.patched(...)`` block.  Spans stay in memory
and are written out once, at the end of the run.

A span's self time is its duration minus the time its child spans
(same thread, nested calls) cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# (owner, attribute, span name, count) -- owner is "module" or
# "module:Class"; count, when given, maps the call's result to a work
# count stored on the span.
Target = Tuple[str, str, str, Optional[Callable[[object], int]]]


def _tasks(taskgraph) -> int:
    return len(taskgraph.tasks)


#: Front end through simulator build: RTLFlow.from_source, then
#: flow.simulator(n) (compile -> partition + codegen, executor build).
SETUP_TARGETS: List[Target] = [
    ("repro.core.flow", "parse_source", "verilog.parse_s", None),
    ("repro.core.flow", "elaborate", "elaborate.elaborate_s", None),
    ("repro.core.flow", "lower", "elaborate.lower_s", None),
    ("repro.elaborate.optimize", "optimize_design", "elaborate.optimize_s", None),
    ("repro.lint", "lint_artifacts", "lint.lint_s", None),
    ("repro.core.flow", "build_graph", "rtlir.build_graph_s", None),
    ("repro.core.flow", "partition", "partition.partition_s", _tasks),
    ("repro.core.codegen:KernelCodegen", "__init__", "core.codegen.compile_s", None),
    ("repro.core.codegen:KernelCodegen", "compile", "core.codegen.compile_s", None),
    ("repro.core.simulator:BatchSimulator", "__init__", "core.simulator.build_s", None),
]

#: The simulation loop: BatchSimulator.run and the calls it makes per cycle.
RUN_TARGETS: List[Target] = [
    ("repro.core.simulator:BatchSimulator", "run", "core.simulator.run_s", None),
    ("repro.core.simulator:BatchSimulator", "set_inputs",
     "core.simulator.set_inputs_s", None),
    ("repro.core.simulator:BatchSimulator", "evaluate",
     "core.simulator.evaluate_s", None),
    ("repro.core.simulator:BatchSimulator", "get",
     "core.simulator.readback_s", None),
]

#: The service path: client calls (main thread) and the store/merge calls
#: the service makes on its event-loop thread.
SERVICE_TARGETS: List[Target] = [
    ("repro.serve.client:ServiceClient", "submit", "serve.submit_s", None),
    ("repro.serve.client:ServiceClient", "result", "serve.result_s", None),
    ("repro.serve.server", "merge_payloads", "cluster.merge_s", None),
    ("repro.serve.store:ResultStore", "get", "serve.store_read_s", None),
    ("repro.serve.store:ResultStore", "put", "serve.store_write_s", None),
]


class Span:
    __slots__ = ("name", "label", "request", "parent", "start", "end",
                 "child", "count", "thread")

    def __init__(self, name: str, label: str, request: str,
                 parent: Optional["Span"]):
        self.name = name
        self.label = label
        self.request = request
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0
        self.count: Optional[int] = None
        self.thread = threading.get_ident()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child


class SpanRecorder:
    """In-memory span store plus the attribute patching that feeds it.

    ``label`` (a design name, or ``"serve"``) and ``request`` (the
    operation id) are set by the benchmark before each operation and
    stamped on every span it causes; spans of one operation share them.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.label = ""
        self.request = ""
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable[[object], int]] = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            span = Span(name, rec.label, rec.request,
                        stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.seconds
                rec.spans.append(span)
            if count is not None:
                span.count = count(out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                obj = _resolve(owner)
                original = obj.__dict__[attr] if isinstance(obj, type) \
                    else getattr(obj, attr)
                saved.append((obj, attr, original))
                setattr(obj, attr, self.wrap(original, name, count))
            yield
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    # -- aggregation -----------------------------------------------------------

    def totals(self, label: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: summed ``seconds``, ``self`` seconds, ``calls``
        and the last work ``count`` seen, over spans with ``label``."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"seconds": 0.0, "self": 0.0, "calls": 0, "count": 0}
        )
        for s in self.spans:
            if label is not None and s.label != label:
                continue
            agg = out[s.name]
            agg["seconds"] += s.seconds
            agg["self"] += s.self_seconds
            agg["calls"] += 1
            if s.count is not None:
                agg["count"] = s.count
        return dict(out)

    def top_level_seconds(self, label: str) -> float:
        return sum(s.seconds for s in self.spans
                   if s.label == label and s.parent is None)

    def dump(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "id": i, "name": s.name, "label": s.label,
                "request": s.request,
                "parent": ids.get(id(s.parent)) if s.parent else None,
                "start": s.start, "end": s.end, "self": s.self_seconds,
                "count": s.count, "thread": s.thread,
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj
