"""In-memory span tracing for the benchmark's traced run.

The tracer wraps functions at the module (or class) attribute their callers
look up, records one span per call (name, start, end, parent span), and puts
every original attribute back on exit.  Nothing in ``src/`` knows about it.
Spans are kept in compact arrays and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute path, span name).  The attribute is the one the caller
# looks up: ``estimators.evaluate`` is the name the log games call, and
# ``cli.run_federation`` is the name ``fedshapley simulate`` calls.  The
# benchmark itself calls the library through ``federation``, ``scenarios``,
# ``estimators`` and ``cli.main``, so those attributes are wrapped too.
PATCHES = (
    ("fedshapley.estimators", "reconstruct_submodel", "federation.reconstruct_submodel"),
    ("fedshapley.estimators", "evaluate", "models.evaluate"),
    ("fedshapley.estimators", "exact_shapley", "games.exact_shapley"),
    ("fedshapley.estimators", "check_convergence", "games.check_convergence"),
    ("fedshapley.estimators", "gtg_round", "estimators.gtg_round"),
    ("fedshapley.estimators", "mr_eval", "estimators.mr_eval"),
    ("fedshapley.estimators", "gtg_eval", "estimators.gtg_eval"),
    ("fedshapley.estimators", "gtg_ti", "estimators.gtg_ti"),
    ("fedshapley.estimators", "gtg_tib", "estimators.gtg_tib"),
    ("fedshapley.estimators", "gtg_oti", "estimators.gtg_oti"),
    ("fedshapley.federation", "train_local", "models.train_local"),
    ("fedshapley.federation", "reconstruct_submodel", "federation.reconstruct_submodel"),
    ("fedshapley.federation", "run_federation", "federation.run_federation"),
    ("fedshapley.games", "CoalitionGame.value_mask", "games.value_mask"),
    ("fedshapley.federation", "GradientLog.validate", "federation.validate"),
    ("fedshapley.scenarios", "generate_source", "scenarios.generate_source"),
    ("fedshapley.scenarios", "partition", "scenarios.partition"),
    ("fedshapley.cli", "main", "cli.main"),
    ("fedshapley.cli", "run_federation", "federation.run_federation"),
    ("fedshapley.cli", "save_log", "federation.save_log"),
    ("fedshapley.cli", "load_log", "federation.load_log"),
    ("fedshapley.cli", "build_participants", "cli.build_participants"),
    ("fedshapley.cli", "parse_config", "cli.parse_config"),
    ("fedshapley.cli", "generate_source", "scenarios.generate_source"),
    ("fedshapley.cli", "partition", "scenarios.partition"),
)

NO_PARENT = -1


def _owner(module_name: str, path: str):
    """The object holding the attribute, and the attribute's own name."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while active; use as a context manager.

    ``names`` maps a span's name id to its name; ``name_ids``, ``parents``,
    ``starts`` and ``ends`` are parallel arrays indexed by span id.
    """

    def __init__(self, patches=PATCHES, clock=time.perf_counter):
        self._patches = patches
        self._clock = clock
        self._saved: list[tuple[object, str, object]] = []
        self._stack = [NO_PARENT]
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")

    def _wrap(self, fn, name: str):
        nid = self._name_index.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = self._clock, self._stack
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, path, name in self._patches:
            owner, attr = _owner(module_name, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def excluded(self):
        """Drop the spans recorded inside the block."""
        keep = len(self.starts)
        try:
            yield
        finally:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                del arr[keep:]

    def save(self, path) -> None:
        """Write every span as parallel arrays (``np.load`` reads it back)."""
        np.savez(path, names=np.array(self.names),
                 name_ids=np.array(self.name_ids, dtype=np.int32),
                 parents=np.array(self.parents, dtype=np.int64),
                 starts=np.array(self.starts, dtype=np.float64),
                 ends=np.array(self.ends, dtype=np.float64))


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other; their union, clipped to the parent's
    interval, is what gets subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent in enumerate(parents):
        if parent != NO_PARENT:
            children[parent].append((starts[sid], ends[sid]))
    out = []
    for sid in range(len(starts)):
        lo, hi = starts[sid], ends[sid]
        covered = 0.0
        reach = lo
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append((hi - lo) - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, total self time, per-call durations (s)."""
    selfs = self_times(tracer.parents, tracer.starts, tracer.ends)
    out: dict[str, dict] = {}
    for sid, nid in enumerate(tracer.name_ids):
        entry = out.setdefault(tracer.names[nid],
                               {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        entry["durations"].append(tracer.ends[sid] - tracer.starts[sid])
    return out


def child_calls(tracer: Tracer, parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
    try:
        pid = tracer.names.index(parent_name)
        cid = tracer.names.index(child_name)
    except ValueError:
        return 0
    ids, parents = tracer.name_ids, tracer.parents
    return sum(1 for sid, nid in enumerate(ids)
               if nid == cid and parents[sid] != NO_PARENT
               and ids[parents[sid]] == pid)
