"""Spans around the calls one exactntt layer makes into another.

A traced run swaps each traced callable for a wrapper at the name its
caller looks up (``exactntt.convolution.forward_fast`` is the name
``convolve_ntt`` resolves), records one span per call in memory and
restores the originals afterwards.  A span is
``[name, start, end, parent, op, n]``: ``parent`` is the index of the
enclosing span (-1 for none), ``op`` the op id (-1 during set-up) and
``n`` the work size (transform length, or sequence length for reduce).
"""

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager


def _plan_length(args):
    return args[1].length


def _first_arg(args):
    return args[0]


def _length_of_first(args):
    return len(args[0])


def _targets(lib):
    conv = lib.convolution
    return [
        # called by the benchmark itself
        (lib, "convolve_ntt", "exactntt.convolve_ntt", None),
        (lib, "convolve_crt", "exactntt.convolve_crt", None),
        (lib, "deconvolve", "exactntt.deconvolve", None),
        (lib, "select_moduli", "exactntt.select_moduli", None),
        (lib, "bigint_multiply", "exactntt.bigint_multiply", None),
        (lib.BigDigits, "from_decimal", "exactntt.BigDigits.from_decimal", None),
        (lib.BigDigits, "to_decimal", "exactntt.BigDigits.to_decimal", None),
        # called by the convolution layer
        (conv, "forward_fast", "exactntt.convolution.forward_fast", _plan_length),
        (conv, "inverse_fast", "exactntt.convolution.inverse_fast", _plan_length),
        (conv, "build_plan", "exactntt.convolution.build_plan", _first_arg),
        (conv.ResidueSequence, "reduce", "exactntt.convolution.ResidueSequence.reduce", _length_of_first),
        (conv, "select_moduli", "exactntt.convolution.select_moduli", None),
        (conv, "convolve_crt", "exactntt.convolution.convolve_crt", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, fn, name, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                   size(args) if size else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, lib):
        """Wrap every traced callable of ``lib`` for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, size in _targets(lib):
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    replacement = staticmethod(self.wrap(getattr(owner, attr), name, size))
                else:
                    replacement = self.wrap(raw, name, size)
                saved.append((owner, attr, raw))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


TRANSFORM = (
    "exactntt.convolution.forward_fast",
    "exactntt.convolution.inverse_fast",
    "exactntt.convolution.ResidueSequence.reduce",
    "exactntt.convolution.build_plan",
)
CONVOLUTION = (
    "exactntt.convolve_ntt",
    "exactntt.convolve_crt",
    "exactntt.deconvolve",
    "exactntt.convolution.convolve_crt",
)
SELECT = ("exactntt.select_moduli", "exactntt.convolution.select_moduli")


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def setup_build_plan_ms(spans) -> float:
    """Plan-build time (ms) in the spans recorded before the first op."""
    return 1e3 * sum(
        rec[2] - rec[1] for rec in spans
        if rec[4] < 0 and rec[0] == "exactntt.convolution.build_plan"
    )


def loop_metrics(spans) -> dict:
    """Per-op layer costs over the spans of the traced loop (op >= 0).

    Root spans are named ``op:<kind>``; times are means per op.
    """
    own = self_times(spans)
    self_s = defaultdict(float)
    count = defaultdict(int)
    butterflies = bytes_computed = transform_call_s = 0.0
    op_s = []
    by_kind = defaultdict(list)
    for rec, t in zip(spans, own):
        name = rec[0]
        if rec[4] < 0:
            continue
        if name.startswith("op:"):
            op_s.append(rec[2] - rec[1])
            by_kind[name[3:]].append(rec[2] - rec[1])
            continue
        self_s[name] += t
        count[name] += 1
        if name in TRANSFORM[:2]:
            n = rec[5]
            stages = math.log2(n) if n > 1 else 0.0
            butterflies += n / 2 * stages
            # computed, not measured: each radix-2 stage reads and writes
            # every int64 element once
            bytes_computed += 16 * n * stages
            transform_call_s += t
    ops = max(len(op_s), 1)
    op_total = sum(op_s)

    def per_op_ms(names):
        return 1e3 * sum(self_s[n] for n in names) / ops

    def median_ms(kind):
        values = sorted(by_kind.get(kind, ()))
        return 1e3 * values[len(values) // 2] if values else 0.0

    return {
        "transform.forward_ms": per_op_ms(TRANSFORM[:1]),
        "transform.inverse_ms": per_op_ms(TRANSFORM[1:2]),
        "transform.reduce_ms": per_op_ms(TRANSFORM[2:3]),
        "transform.share": sum(self_s[n] for n in TRANSFORM) / op_total if op_total else 0.0,
        "transform.butterflies_per_s": butterflies / transform_call_s if transform_call_s else 0.0,
        "transform.bytes_computed_per_op": bytes_computed / ops,
        "transform.plan_builds": count["exactntt.convolution.build_plan"],
        "convolution.self_ms": per_op_ms(CONVOLUTION),
        "convolution.primes_per_op": count["exactntt.convolution.inverse_fast"] / ops,
        "convolution.select_moduli_ms": per_op_ms(SELECT),
        "convolution.from_decimal_ms": per_op_ms(("exactntt.BigDigits.from_decimal",)),
        "convolution.to_decimal_ms": per_op_ms(("exactntt.BigDigits.to_decimal",)),
        "convolution.bigint_self_ms": per_op_ms(("exactntt.bigint_multiply",)),
        "cli.convolve_ms": median_ms("convolve"),
        "cli.mul_ms": median_ms("mul"),
        "trace.op_ms": 1e3 * op_total / ops,
    }
