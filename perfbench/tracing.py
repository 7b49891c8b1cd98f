"""Spans and counts recorded from outside the program.

The tracer replaces a function where its caller looks it up (a module
attribute or a class attribute) with a wrapper that records one span per
call: name, start, end, parent span, an optional amount (windows, bytes or
op calls) and the autodiff op calls made inside it. Spans stay in memory
until :meth:`Tracer.dump`. :meth:`Tracer.uninstall` puts every original
back, so an untraced pass in the same process runs the unwrapped program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# Span fields, kept as lists to make recording cheap.
NAME, START, END, PARENT, AMOUNT, OPS, ID = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops = 0  # autodiff op calls seen so far
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, 0, self.ops, len(self.spans)]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        span[OPS] = self.ops - span[OPS]
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        amount: Callable[[tuple, object], int] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``amount(args, result)`` runs after the span closes, so its cost is
        not charged to the layer.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if amount is not None:
                span[AMOUNT] = amount(args, result)
            return result

        self._replace(owner, attr, wrapper)

    def count_ops(self, owner: object, attr: str) -> None:
        """Count calls of ``owner.attr`` as autodiff op calls, without a span."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.ops += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self, forward_root: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, amount and op calls.

        ``fwd_self`` is the self time of the calls made under a
        ``forward_root`` span, which splits forward work from backward work.
        """
        covered = [0.0] * len(self.spans)
        in_forward = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            parent = span[PARENT]
            in_forward[i] = span[NAME] == forward_root or (parent >= 0 and in_forward[parent])
            if parent >= 0:
                covered[parent] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(
                span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "fwd_self_s": 0.0, "amount": 0, "ops": 0}
            )
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - covered[i]
            if in_forward[i]:
                entry["fwd_self_s"] += duration - covered[i]
            entry["amount"] += span[AMOUNT]
            entry["ops"] += span[OPS]
        return out

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent, amount, ops]``."""
        path.write_text(json.dumps([span[:6] for span in self.spans]))
