"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, op id, outcome). Spans are kept in
lists while the traced run executes and written out once, at the end. The
wrappers are installed on the package's module attributes from here, with
no change to the package: each wrapped name is looked up on its module at
call time, so patching the attribute routes every call through the span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

OUTCOMES = ("ok", "error", "skip", "fail")


class SpanRecorder:
    """Nested spans on one thread; a span named in `op_names` starts a new op."""

    def __init__(self, op_names=()):
        self.op_names = frozenset(op_names)
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.outcomes: list[str] = []
        self._stack: list[int] = []
        self._op = 0

    def open(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if name in self.op_names or parent < 0:
            self._op += 1
            op = self._op
        else:
            op = self.ops[parent]
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(op)
        self.outcomes.append("ok")
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, outcome: str = "ok"):
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")
        self.outcomes[idx] = outcome

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def root_time(self) -> float:
        return sum(
            e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0
        )

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time, call count, and outcome counts."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, **{k: 0 for k in OUTCOMES}}
        )
        for name, self_s, outcome in zip(self.names, self.self_times(), self.outcomes):
            row = out[name]
            row["s"] += self_s
            row["calls"] += 1
            row[outcome] += 1
        return dict(out)

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops, self.outcomes):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "outcome"), row))))
                fh.write("\n")


def wrap(rec: SpanRecorder, name: str, fn, outcome_of=None):
    """fn routed through a span; outcome_of maps its result to an outcome."""

    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, "error")
            raise
        rec.close(idx, outcome_of(out) if outcome_of else "ok")
        return out

    return wrapper


def _check_outcome(result) -> str:
    return {"pass": "ok", "skip": "skip", "fail": "fail"}.get(result.status, "error")


class Installed:
    """Context manager: route calls to module attributes through a recorder.

    `targets` holds (module, attribute, span name); each entry of the
    `checks` dict is wrapped in place as a span named `harness.check.<key>`.
    """

    def __init__(self, rec: SpanRecorder, targets, checks: dict):
        self.rec = rec
        self.targets = targets
        self.checks = checks
        self.saved_attrs = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        self.saved_checks = dict(checks)

    def __enter__(self):
        for (module, attr, name), (_, _, fn) in zip(self.targets, self.saved_attrs):
            setattr(module, attr, wrap(self.rec, name, fn))
        for check, fn in self.saved_checks.items():
            self.checks[check] = wrap(self.rec, f"harness.check.{check}", fn, _check_outcome)
        return self.rec

    def __exit__(self, *exc):
        for module, attr, fn in self.saved_attrs:
            setattr(module, attr, fn)
        self.checks.update(self.saved_checks)
        return False
