"""One workload in one single-threaded process: set-up, then a closed loop.

Started by run.py, never by hand.  Prints one JSON object on its last
stdout line.  Modes:

  setup  import exactntt, load and verify the registry, run the warm-up
         ops (building every plan the schedule needs); report setup_s
  run    setup, then the timed loop for end-to-end metrics
  trace  setup and an untraced half-loop (with baselines) for reference,
         then a traced half-loop for per-layer metrics
"""

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100          # p90 then has at least 10 samples beyond it
LOOP_CAP_S = 120.0     # a loop stops here even short of MIN_OPS
BASELINE_SHARE = 0.2   # of the untraced half-loop, spent on baselines


def op_rng(seed: int, workload: str, stream: int, i: int):
    """Inputs of op ``i`` depend only on the seed, the workload and the op index."""
    return np.random.default_rng([seed % (1 << 64), zlib.crc32(workload.encode()), stream, i])


class Loop:
    """Closed loop with one caller: generate, call (timed), check, free."""

    def __init__(self, wl, lib, seed, workdir, inject_every=0):
        self.wl, self.lib, self.seed, self.workdir = wl, lib, seed, workdir
        self.inject_every = inject_every
        self.attempted = 0
        self.failed = 0
        self.next_op = 0

    def one(self, kind, rng, tracer=None, baselines=None):
        """Run one op; returns (latency_s, inputs, result), result None on error."""
        inputs = self.wl.make(kind, rng, self.workdir)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.run(self.lib, kind, inputs)
            else:
                result = tracer.wrap(self.wl.run, "op:" + kind)(self.lib, kind, inputs)
        except Exception as exc:  # every failure is counted, the loop goes on
            print(f"op {kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            result = None
        latency = time.perf_counter() - start
        if baselines is not None:
            baselines(kind, inputs, latency)
        return latency, inputs, result

    def check(self, kind, inputs, result):
        self.attempted += 1
        if result is not None and self.inject_every and self.attempted % self.inject_every == 0:
            result = workloads.corrupt(result)
        if result is None or not self.wl.check(kind, inputs, result):
            self.failed += 1

    def run(self, seconds, min_ops, tracer=None, baselines=None):
        """Whole schedule cycles until ``seconds`` have passed and ``min_ops`` ran."""
        latencies = []
        start = time.perf_counter()
        while True:
            for kind in self.wl.schedule:
                if tracer is not None:
                    tracer.op = self.next_op
                rng = op_rng(self.seed, self.wl.name, 1, self.next_op)
                latency, inputs, result = self.one(kind, rng, tracer, baselines)
                self.next_op += 1
                latencies.append(latency)
                self.check(kind, inputs, result)
                del inputs, result
            elapsed = time.perf_counter() - start
            if elapsed >= LOOP_CAP_S or (elapsed >= seconds and len(latencies) >= min_ops):
                return latencies


class BaselineSampler:
    """Times the workload's non-NTT reference path beside the library, within a budget."""

    def __init__(self, wl, lib, budget_s):
        self.wl, self.lib, self.budget_s = wl, lib, budget_s
        self.samples = []   # (baseline key, library s, baseline s)
        self.spent = 0.0

    def __call__(self, kind, inputs, latency):
        key = self.wl.baselines.get(kind)
        if key is None or (self.samples and self.spent >= self.budget_s):
            return
        start = time.perf_counter()
        workloads.BASELINES[key](self.lib, inputs)
        took = time.perf_counter() - start
        self.spent += took
        self.samples.append((key, latency, took))

    def metrics(self):
        def p50(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for key in workloads.BASELINES:
            out[f"baseline.{key}_ms"] = 1e3 * p50([b for k, _, b in self.samples if k == key])
        lib = p50([t for _, t, _ in self.samples])
        base = p50([b for _, _, b in self.samples])
        out["baseline.speedup"] = base / lib if lib else 0.0
        return out


def warm_up(wl, lib, seed, workdir):
    """Registry load and verify, then one op of each warm-up kind.

    Returns (registry load s, input generation s, summed op latency s,
    [(kind, inputs, result)]) so the caller can check the results after
    set-up has been timed.
    """
    registry_s = 0.0
    if lib is not None:
        start = time.perf_counter()
        lib.load_registry()
        registry_s = time.perf_counter() - start
    gen_s = op_s = 0.0
    warm = []
    for j, kind in enumerate(wl.warmup):
        start = time.perf_counter()
        inputs = wl.make(kind, op_rng(seed, wl.name, 0, j), workdir)
        gen_s += time.perf_counter() - start
        start = time.perf_counter()
        result = wl.run(lib, kind, inputs)
        op_s += time.perf_counter() - start
        warm.append((kind, inputs, result))
    return registry_s, gen_s, op_s, warm


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned this process")
    p.add_argument("--inject-every", type=int, default=0, help="corrupt every k-th result (self-test)")
    p.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        out = _run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _run(args, wl, workdir):
    lib = None
    if wl.in_process:
        import exactntt as lib
    tracer = tracing.Tracer() if args.mode == "trace" else None
    with tracer.installed(lib) if tracer and lib else contextlib.nullcontext():
        registry_s, gen_s, warm_s, warm = warm_up(wl, lib, args.seed, workdir)
    # In-process: this process's start to its first result.  For cli the
    # library process is the CLI subprocess, so set-up is its first call.
    setup_s = time.monotonic() - args.t0 - gen_s if lib else warm_s
    loop = Loop(wl, lib, args.seed, workdir, args.inject_every)
    for kind, inputs, result in warm:
        loop.check(kind, inputs, result)
    del warm
    out = {"setup_s": setup_s, "numpy": np.__version__}

    if args.mode == "run":
        latencies = loop.run(args.seconds, MIN_OPS)
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        out.update(
            ops=len(latencies),
            ops_per_s=len(latencies) / sum(latencies),
            latency_p50_ms=1e3 * statistics.median(latencies),
            latency_p90_ms=1e3 * q[89],
            peak_rss_mib=resource.getrusage(who).ru_maxrss / 1024,
        )
    elif args.mode == "trace":
        half = args.seconds / 2
        sampler = BaselineSampler(wl, lib, BASELINE_SHARE * half)
        plain = loop.run(half, 0, baselines=sampler)
        with tracer.installed(lib) if lib else contextlib.nullcontext():
            traced = loop.run(half, 0, tracer=tracer)
        if args.spans:
            tracer.dump(args.spans)
        if lib is None:
            import exactntt
            start = time.perf_counter()
            exactntt.load_registry()
            registry_s = time.perf_counter() - start
        layers = {
            "registry.load_ms": 1e3 * registry_s,
            "transform.build_plan_ms": tracing.setup_build_plan_ms(tracer.spans),
        }
        layers.update(tracing.loop_metrics(tracer.spans))
        layers.update(sampler.metrics())
        layers["trace.overhead"] = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        out.update(ops=len(plain) + len(traced), layers=layers)
    out.update(attempted=loop.attempted, failed=loop.failed)
    return out


if __name__ == "__main__":
    sys.exit(main())
