"""The exactntt benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload conv-large --seed 1 --seconds 27 --trace 0

Each workload runs in its own single-threaded process as a closed loop
with one caller; every op gets fresh inputs drawn from --seed just before
its call and is checked against an exact oracle outside the timed region
(see workloads.py).

  conv-large  convolve_ntt at N=2**16 over 13631489, bounds at the
              capacity edge, 1 unsigned : 3 signed; transform-bound
  crt-small   signed convolve_crt at N=1024 over select_moduli's primes,
              bounds 2**10..2**14; every 4th op a deconvolve; CRT and
              pointwise Python loops weigh as much as the transforms
  bigint      decimal string -> BigDigits.from_decimal -> bigint_multiply
              -> to_decimal at 500..4800 digits; decimal I/O and carry
  cli         `python -m exactntt.cli convolve` on N=2**14 sequence files
              (3 of 4 calls) and `mul` on 4800-digit operands, one
              subprocess at a time; process start and file I/O

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json:

  ops_per_s       ops completed / time spent inside the timed calls
  latency_p50_ms  median op latency; the sample count is in the report
  latency_p90_ms  p90 op latency; a run has >= 100 ops, so >= 10 beyond it
  setup_s         median over 5 fresh processes of process start -> first
                  result (import, registry load and verify, plan builds,
                  warm-up ops), input generation excluded; for cli the
                  first CLI call, whose process is the library's
  peak_rss_mib    ru_maxrss of the process running the library
                  (RUSAGE_SELF; RUSAGE_CHILDREN for cli)

Ops that raised or returned a wrong result are counted in "failed" out
of "attempted"; the report line gives error_rate = failed / attempted,
and "correct" is true only when none failed.  error_rate is not a
BENCHMARK.json metric because it is 0 on a correct build.

--trace 1 runs half of --seconds untraced (with baselines timed beside
sampled ops) and half traced, and prints the per-layer metrics; spans go
to .bench_build/perfbench/spans-<workload>-seed<seed>.jsonl.  A layer a
workload never calls in-process reads 0: transform.* and convolution.*
on cli (the library runs in the CLI subprocess), cli.convolve_ms and
cli.mul_ms elsewhere, and the baseline a workload has none of.

The second-to-last stdout line is the full report, with the environment;
the last line is the result object.  Self-test of the correctness gate:
python3 perfbench/selftest.py
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
DEADLINE_S = 170.0
WORKLOADS = ("conv-large", "crt-small", "bigint", "cli")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = worker_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark ran past its deadline")
        return left

    def worker(self, mode: str, seconds: float, *extra: str) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(seconds), "--mode", mode, *extra,
        ]
        timeout = self._timeout()
        proc = subprocess.Popen(
            cmd + ["--t0", repr(time.monotonic())],
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def process_wall_ms(self, code: str) -> float:
        """Median wall time of ``python -c code`` in a fresh process."""
        walls = []
        for _ in range(IMPORT_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                           check=True, timeout=self._timeout())
            walls.append(time.perf_counter() - start)
        return 1e3 * statistics.median(walls)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src" / "exactntt"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, numpy_version, ops) -> dict:
    return {
        "commit": _git_commit(),
        "src_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def measure(args) -> tuple[dict, dict]:
    """Returns (metric values by name, report)."""
    runner = Runner(args)
    report = {}
    if args.trace:
        spans = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        main = runner.worker("trace", args.seconds, "--spans", str(spans))
        values = dict(main["layers"])
        values["cli.import_ms"] = runner.process_wall_ms("import exactntt.cli")
        values["cli.import_floor_ms"] = runner.process_wall_ms("import numpy")
        attempted, failed = main["attempted"], main["failed"]
        report["spans"] = str(spans.relative_to(ROOT))
    else:
        setups = [runner.worker("setup", 0) for _ in range(SETUP_SAMPLES - 1)]
        main = runner.worker("run", args.seconds)
        setups.append(main)
        values = {k: main[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mib")}
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        attempted = sum(s["attempted"] for s in setups)
        failed = sum(s["failed"] for s in setups)
        report["setup_s_samples"] = [s["setup_s"] for s in setups]
        report["latency_samples"] = main["ops"]
    report.update(
        env=environment(args, main["numpy"], main["ops"]),
        attempted=attempted,
        failed=failed,
        error_rate={"value": failed / attempted, "unit": "ratio"},
    )
    return values, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not (ROOT / "src" / "exactntt" / "__init__.py").is_file():
        print(f"error: no exactntt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    values, report = measure(args)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print("perfbench report " + json.dumps(report))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
