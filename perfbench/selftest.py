"""Self-test of the benchmark's correctness gate.  Run from the repository root:

    python3 perfbench/selftest.py

Shows that the gate cannot pass vacuously:

1. for every workload and op kind, the real result of a seeded op passes
   its check and a deliberately corrupted copy fails it;
2. the two convolution oracles (np.convolve, decimal Kronecker packing)
   agree, and both disagree with a corrupted result;
3. the filter check rejects a filter whose spectrum has a zero bin;
4. a short worker loop that corrupts every 3rd result reports those
   ops as failed, while the same loop without injection reports none.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import exactntt  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import op_rng  # noqa: E402


def check_each_kind(failures, workdir):
    for wl in workloads.WORKLOADS.values():
        for i, kind in enumerate(dict.fromkeys(wl.schedule)):
            inputs = wl.make(kind, op_rng(0, wl.name, 2, i), workdir)
            result = wl.run(exactntt, kind, inputs)
            if not wl.check(kind, inputs, result):
                failures.append(f"{wl.name}/{kind}: correct result rejected")
            elif wl.check(kind, inputs, workloads.corrupt(result)):
                failures.append(f"{wl.name}/{kind}: corrupted result accepted")
            else:
                print(f"ok   {wl.name}/{kind}: real result passes, corrupted result fails")


def check_oracles(failures):
    rng = np.random.default_rng(7)
    f = rng.integers(-50, 51, size=2048)
    g = rng.integers(-50, 51, size=2048)
    via_np = workloads.cyclic_convolution(f, g)
    n = len(f)
    via_decimal = workloads._fold(workloads._kronecker_linear(f, g, n * 50 * 50), n)
    wrong = workloads.corrupt(via_np.tolist())
    if not np.array_equal(via_np, via_decimal):
        failures.append("np.convolve and decimal Kronecker oracles disagree")
    elif workloads.same_sequence(wrong, via_np):
        failures.append("a corrupted convolution matches the oracles")
    else:
        print("ok   np.convolve and decimal Kronecker oracles agree at N=2048")

    # alternating sum 0 puts a zero at bin N/2
    null_at_half = np.tile([3, 3], workloads.SMALL_N // 2)
    if workloads.spectrum_invertible(null_at_half):
        failures.append("filter with a zero spectral bin accepted")
    else:
        print("ok   filter with a zero bin at N/2 rejected")


def check_injected_loop(failures):
    runner = run.Runner(argparse.Namespace(workload="crt-small", seed=3))
    clean = runner.worker("run", 1)
    faulty = runner.worker("run", 1, "--inject-every", "3")
    expected = faulty["attempted"] // 3
    if clean["failed"] != 0:
        failures.append(f"clean loop reported {clean['failed']} failures")
    elif faulty["failed"] != expected or expected == 0:
        failures.append(f"injected loop reported {faulty['failed']} failures, expected {expected}")
    else:
        print(f"ok   injected loop: {faulty['failed']} of {faulty['attempted']} ops failed "
              f"(error rate {faulty['failed'] / faulty['attempted']:.3f}); clean loop: 0")


def main() -> int:
    os.environ.update(run.worker_env())  # the cli workload's subprocesses import src/
    failures = []
    workdir = ROOT / ".bench_build" / "perfbench" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_each_kind(failures, workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    check_oracles(failures)
    check_injected_loop(failures)
    for line in failures:
        print("FAIL " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
