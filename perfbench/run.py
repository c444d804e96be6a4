"""goodsets benchmark: seeded workloads, checked outputs, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload related-search --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root.  Every workload is a closed loop with one
client: jobs run one after another in this process (cli-corpus: one
`python -m goodsets.cli` subprocess at a time).  A run repeats whole passes
over the workload's fixed job list and starts no new pass once --seconds
have elapsed.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 the run makes one untraced and one traced pass and
reports per-layer metrics instead.  Scratch files go to .bench_work/.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

RUN_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("cli-corpus", "related-search", "exact-solve", "loop-certify")
SETUP_REPS = 5
# A job slower than this is a failure, not a hang; the slowest job today
# takes about 2.5 s.  No job starts after RUN_LIMIT_S, so a run ends well
# inside its 180 s budget even when everything slows down.
JOB_CAP_S = 15.0
RUN_LIMIT_S = 140.0
STARTUP_REPS = 5
# The CPU speed of a shared VM drifts by about 20% within a second
# (measured on a 2-core Intel Xeon VM at 2.0 GHz: identical pure-Python work
# took 20 to 29 ms, CPU time tracking wall time).  Every timing is therefore scaled to reference
# speed: a fixed, benchmark-only kernel (the probe) runs before, after and,
# every TICK_S, during the timed work, and the time is multiplied by
# PROBE_REFERENCE_S over the probes' median.  Changes to goodsets cannot
# move the probe, so they move the scaled times in full.
PROBE_REFERENCE_S = 0.0007
TICK_S = 0.025


def _probe_kernel() -> int:
    acc, table = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i, i + 2)
        table[(i % 7, acc.denominator % 101)] = acc.numerator % 97
    total = 0
    for i in range(4000):
        total += i * i
    return len(table) + total


def probe_s() -> float:
    began = perf_counter()
    _probe_kernel()
    return perf_counter() - began


class JobTimeout(BaseException):
    """Raised from the clock's tick inside a job that exceeded its cap."""


class Clock:
    """Times a region at reference speed, minus the probes run inside it.

    A SIGALRM tick every TICK_S runs the probe (when `sample`) and raises
    JobTimeout once the region has run longer than `cap`.  With two probes
    (a region shorter than a tick) the faster one sets the scale, so a
    stray interrupt inflates neither.
    """

    def __init__(self, cap: float | None = None, sample: bool = True):
        self.cap = cap
        self.sample = sample

    def _tick(self, signum, frame):
        now = perf_counter()
        if self.cap is not None and now - self.began > self.cap:
            raise JobTimeout
        if self.sample and not self._probing:
            self._probing = True
            self.samples.append(probe_s())
            self._probing = False
            self.stolen += perf_counter() - now

    def __enter__(self):
        self.samples = [probe_s()]
        self.stolen = 0.0
        self._probing = False
        signal.signal(signal.SIGALRM, self._tick)
        self.began = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = perf_counter() - self.began - self.stolen
        self.samples.append(probe_s())
        self.scaled = self.raw * PROBE_REFERENCE_S / statistics.median_low(self.samples)
        return False


class Outcome:
    def __init__(self):
        self.times: list[float] = []  # at reference speed
        self.raw_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, kind: str, message: str):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {message}")


def measure(groups, seconds: float, checks, tracer=None) -> Outcome:
    """Run whole passes over the groups until `seconds` have elapsed.

    Each job is timed alone by a Clock; its check runs after the clock
    stops.  A job that raises, exceeds JOB_CAP_S, fails its check, or
    cannot start before RUN_LIMIT_S counts as failed.
    """
    out = Outcome()
    start = perf_counter()
    job_id = 0
    while True:
        for group in groups:
            for job in group.jobs:
                out.attempted += 1
                job_id += 1
                remaining = RUN_LIMIT_S - (perf_counter() - RUN_START)
                if remaining <= 0:
                    out.fail(job.kind, "not started before the run limit")
                    continue
                if tracer is not None:
                    tracer.job = job_id
                # Every job starts from a collected heap, so the cyclic
                # collections inside it depend on its own allocations, not
                # on which jobs the seed ordered before it.
                gc.collect()
                # Probes inside traced spans would count as layer time.
                clock = Clock(cap=min(JOB_CAP_S, remaining), sample=tracer is None)
                try:
                    with clock:
                        result = job.run()
                except JobTimeout:
                    out.fail(job.kind, "hit the per-job cap")
                    continue
                except Exception as exc:  # a job that raises is a failed job; keep going
                    out.fail(job.kind, f"raised {type(exc).__name__}: {exc}")
                    continue
                finally:
                    out.times.append(clock.scaled)
                    out.raw_times.append(clock.raw)
                    if tracer is not None:
                        tracer.job = None
                try:
                    job.check(result)
                except checks.CheckFailed as exc:
                    out.fail(job.kind, str(exc))
                except Exception as exc:  # a result the check cannot even read is wrong too
                    out.fail(job.kind, f"check raised {type(exc).__name__}: {exc}")
        if perf_counter() - start >= seconds or perf_counter() - RUN_START >= RUN_LIMIT_S:
            return out


def warm_up(groups):
    """Run the smallest group of each kind once, untimed.

    A job that raises here raises again, and is counted, in the measured
    passes.
    """
    smallest = {}
    for group in groups:
        if group.kind not in smallest or group.size < smallest[group.kind].size:
            smallest[group.kind] = group
    for group in smallest.values():
        for job in group.jobs:
            try:
                job.run()
            except Exception:
                pass


def setup_clock() -> Clock:
    """Set-up may not outlast the run limit either."""
    return Clock(cap=RUN_LIMIT_S - (perf_counter() - RUN_START))


def setup_in_process(name: str, seed: int, workloads, reps: int):
    durations = []
    for _ in range(reps):
        with setup_clock() as clock:
            groups = workloads.build_in_process(name, seed)
            warm_up(groups)
        durations.append(clock.scaled)
    return groups, statistics.median(durations)


def setup_cli(seed: int, workloads, reps: int, in_process: bool, reported: list):
    env = workloads.cli_env(ROOT)
    durations = []
    for rep in range(reps):
        with setup_clock() as clock:
            examples = WORK / f"examples-{rep}"
            shutil.rmtree(examples, ignore_errors=True)
            workloads.emit_examples(examples, env)
            rng = random.Random(f"cli-corpus:{seed}")
            groups = workloads.cli_corpus(rng, examples, env, in_process, reported)
            warm_up(groups)
        durations.append(clock.scaled)
    return groups, statistics.median(durations)


def interpreter_ms(code: str, env: dict) -> float:
    """Median time of a fresh interpreter running `code`."""
    times = []
    for _ in range(STARTUP_REPS):
        with Clock() as clock:
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(clock.scaled)
    return statistics.median(times) * 1000.0


def end_to_end(args, import_s: float, workloads, checks) -> tuple[Outcome, dict]:
    if args.workload == "cli-corpus":
        groups, setup_s = setup_cli(args.seed, workloads, SETUP_REPS, False, [])
        who = resource.RUSAGE_CHILDREN
    else:
        groups, setup_s = setup_in_process(args.workload, args.seed, workloads, SETUP_REPS)
        setup_s += import_s
        who = resource.RUSAGE_SELF
    out = measure(groups, args.seconds, checks)
    ok = out.attempted - out.failed
    times = out.times
    metrics = {
        "throughput_jobs_per_s": (ok / sum(times) if times else 0.0, "jobs/s"),
        "latency_p50_ms": (statistics.median(times) * 1000.0, "ms"),
        "latency_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }
    print(f"samples={len(times)} failed_ratio={out.failed / out.attempted:.4f} "
          f"unscaled_throughput={ok / sum(out.raw_times):.4f}")
    return out, metrics


def per_layer(args, workloads, checks) -> tuple[Outcome, dict]:
    import tracing

    reported: list[float] = []
    if args.workload == "cli-corpus":
        groups, _ = setup_cli(args.seed, workloads, 1, in_process=True, reported=reported)
    else:
        groups, _ = setup_in_process(args.workload, args.seed, workloads, 1)
    reported.clear()
    plain = measure(groups, 0, checks)
    reported_ms = float(sum(reported))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(groups, 0, checks, tracer)
    finally:
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = tracer.layer_metrics()
    env = workloads.cli_env(ROOT)
    startup = interpreter_ms("pass", env)
    metrics["cli.startup_ms"] = (startup, "ms")
    metrics["cli.import_ms"] = (interpreter_ms("import goodsets", env) - startup, "ms")
    metrics["cli.reported_elapsed_ms"] = (reported_ms, "ms")
    metrics["trace_overhead_ratio"] = (sum(traced.times) / sum(plain.times), "ratio")
    both = Outcome()
    both.attempted = plain.attempted + traced.attempted
    both.failed = plain.failed + traced.failed
    both.errors = plain.errors + traced.errors
    return both, metrics


def result_line(out: Outcome, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": out.failed == 0,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_all(args) -> int:
    """Each workload in turn, each in a fresh process so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"== {name}: attempted={r['attempted']} failed={r['failed']} "
              f"failed_ratio={r['failed'] / r['attempted']:.4f}")
        for key, m in r["metrics"].items():
            print(f"   {key:40s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "goodsets" / "__init__.py").is_file():
        print(f"no goodsets sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    with Clock() as clock:
        import goodsets  # noqa: F401  (timed: the import is part of set-up)
    import_s = clock.scaled
    import checks
    import workloads

    if args.trace:
        out, metrics = per_layer(args, workloads, checks)
    else:
        out, metrics = end_to_end(args, import_s, workloads, checks)
    for line in out.errors:
        print(f"FAILED {line}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:14.4f} {unit}")
    print(result_line(out, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
