"""Benchmark of the imspe package: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload eval-lowd --seed 1 --seconds 15 --trace 0

Workloads are ``eval-lowd``, ``eval-highd``, ``search`` and ``certify``;
``BENCHMARK.json`` at the root names them and every metric with its unit,
and ``metric_map.json`` says why each workload exists. The benchmark
imports ``imspe`` from ``src/`` of the checkout, builds its inputs from the
seed, warms up, runs whole passes of operations until ``--seconds`` of timed
work have passed (and, with ``--trace 0``, at least two passes), and then
checks the outputs outside the timed phase.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median of
the set-ups of this process and of six fresh processes. ``--trace 1`` runs
the same inputs untraced, then traced at the default BLAS thread count, then
traced in a child process with ``OPENBLAS_NUM_THREADS=1``, each for half of
``--seconds``, and reports the per-layer metrics (the child's under a
``t1.`` prefix) and the tracing overhead. Spans are written to
``.bench_out/``. ``README.md`` next to this file defines every metric.

The full record, with the environment block and the verification summary,
is printed as indented JSON; the last line of standard output is the result
line ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 6
# passes of an end-to-end phase at the least: a search pass takes 12-17 s on
# 2 vCPUs, and its figures should not rest on one pass in some runs and two
# in others
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# per-layer metrics of the traced child run with OPENBLAS_NUM_THREADS=1
THREAD1 = "t1."


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=tuple(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: fresh-process set-up probes and the one-thread traced child
    parser.add_argument("--role", choices=("main", "setup", "thread1"), default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    source = ROOT / "src" / "imspe" / "__init__.py"
    if not source.is_file():
        sys.exit(f"error: {source} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import imspe

    if Path(imspe.__file__).resolve() != source.resolve():
        sys.exit(f"error: imported imspe from {imspe.__file__}, not from {source}")


def environment(seed):
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Phase:
    """Latencies, kept outputs (or the exception raised) and pass timings of one timed phase.

    Only what verification needs is kept of each output (``Workload.keep``),
    and the ops themselves are regenerated from the seed when they are
    checked, so the memory a phase holds does not grow with the number of
    passes a faster program completes.
    """

    def __init__(self):
        self.latencies = []
        self.outputs = []
        self.pass_sizes = []
        self.pass_seconds = []

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def timed_s(self):
        return sum(self.pass_seconds)

    def _slice(self, index):
        start = sum(self.pass_sizes[:index])
        return slice(start, start + self.pass_sizes[index])

    def pass_outputs(self, index):
        return self.outputs[self._slice(index)]

    def pass_latencies(self, index):
        return self.latencies[self._slice(index)]


def run_phase(workload, seconds, tracer=None, min_passes=1):
    """Run whole passes until ``seconds`` of timed work and ``min_passes`` passes.

    Making and keeping a pass's outputs is not timed.
    """
    phase = Phase()
    while phase.timed_s < seconds or len(phase.pass_sizes) < min_passes:
        ops = workload.make_pass(len(phase.pass_sizes))
        outputs = []
        pass_start = time.perf_counter()
        for op in ops:
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(op)
                else:
                    out = tracer.run_op(phase.ops, workload.run, op)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            phase.latencies.append(time.perf_counter() - start)
            outputs.append(out)
        phase.pass_seconds.append(time.perf_counter() - pass_start)
        phase.pass_sizes.append(len(ops))
        phase.outputs += [out if isinstance(out, Exception) else workload.keep(op, out) for op, out in zip(ops, outputs)]
    return phase


def verify(workload, phase):
    """Check the outputs: failed ops, a summary per kind of check, and the worst relative error."""
    failed = {i for i, out in enumerate(phase.outputs) if isinstance(out, Exception)}
    raised = Counter(type(phase.outputs[i]).__name__ for i in failed)
    checks = []
    for index in workload.passes_to_check(len(phase.pass_sizes)):
        offset = sum(phase.pass_sizes[:index])
        for check in workload.verify(index, workload.make_pass(index), phase.pass_outputs(index)):
            checks.append(check._replace(index=offset + check.index))
    summary = {}
    for check in checks:
        entry = summary.setdefault(check.what, {"checked": 0, "failed": 0, "max_rel_err": 0.0})
        entry["checked"] += 1
        entry["max_rel_err"] = max(entry["max_rel_err"], check.rel_err)
        if not check.ok:
            entry["failed"] += 1
            failed.add(check.index)
    return {
        "failed": len(failed),
        "checks": summary,
        "raised": dict(raised),
        "max_rel_err": max((c.rel_err for c in checks), default=0.0),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ops_per_s(phase):
    """Ops per second of the median pass."""
    return statistics.median(size / seconds for size, seconds in zip(phase.pass_sizes, phase.pass_seconds))


def end_to_end(workload, phase, setup_samples, peak_mb):
    """The end-to-end figures of one phase.

    Other tenants of a shared machine slow a process down by up to 1.6x for
    seconds at a time. Throughput is therefore taken per pass, where a pass
    is a fraction of a second for the eval and certify workloads, and
    reported as the median over the passes; ``Workload.tail`` says how the
    tail is taken.
    """
    tail_s, percentile, beyond = workload.tail(phase)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s(phase),
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_mb,
    }
    detail = {
        "ops": phase.ops,
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
    }
    return values, detail


def setup(args, tracer=None):
    """Import, build the workload and its first inputs, warm up; returns the workload."""
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.make_pass(0)
    warmup = workload.warmup_ops()
    if tracer is None:
        for op in warmup:
            workload.run(op)
    else:
        from spans import Installed

        installed = Installed(tracer)
        try:
            for op in warmup:
                workload.run(op)
        finally:
            installed.remove()
    return workload


def child(args, role, env=None):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", repr(args.seconds), "--trace", str(args.trace), "--role", role]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{role} child failed with code {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    )


def main_untraced(args):
    workload = setup(args)
    setup_s = time.perf_counter() - _T0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    phase = run_phase(workload, args.seconds, min_passes=MIN_PASSES)
    peak_mb = peak_rss_mb()  # before verification, which holds regenerated inputs
    verdict = verify(workload, phase)
    samples = [setup_s] + [child(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    metrics, detail = end_to_end(workload, phase, samples, peak_mb)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": 0,
        "environment": environment(args.seed),
        "metrics": metrics,
        "reported": {
            "failed_frac": verdict["failed"] / phase.ops,
            "max_rel_err": verdict["max_rel_err"],
            **workload.summary(phase),
            **detail,
            "passes": len(phase.pass_sizes),
            "timed_s": phase.timed_s,
            "setup_samples_s": samples,
        },
        "verification": verdict,
    }
    print(json.dumps(record, indent=2))
    print(result_line(verdict["failed"] == 0, phase.ops, verdict["failed"], metrics, E2E_UNITS))
    return 0


def main_traced(args):
    from spans import Installed, Tracer, span_cost_s
    from layers import layer_metrics

    tracer = Tracer()
    workload = setup(args, tracer)
    # three phases (untraced, traced, traced at one thread) share the run's time
    seconds = args.seconds / 2
    phases = []
    if args.role == "main":
        phases.append(run_phase(workload, seconds))
    installed = Installed(tracer)
    try:
        traced = run_phase(workload, seconds, tracer)
    finally:
        installed.remove()
    phases.append(traced)
    verdicts = [verify(workload, phase) for phase in phases]
    metrics = layer_metrics(tracer)
    metrics["trace.ops_per_s"] = ops_per_s(traced)
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-t1" if args.role == "thread1" else ""
    tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}{suffix}.npz")
    attempted = sum(phase.ops for phase in phases)
    failed = sum(v["failed"] for v in verdicts)
    if args.role == "thread1":
        print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0

    one = child(args, "thread1", dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    attempted += one["attempted"]
    failed += one["failed"]
    untraced = phases[0]
    extra = workload.summary(untraced)
    metrics["trace.overhead_frac"] = 1.0 - metrics["trace.ops_per_s"] / ops_per_s(untraced)
    metrics["trace.span_cost_us"] = span_cost_s() * 1e6
    metrics["failed_frac"] = verdicts[0]["failed"] / untraced.ops
    metrics["max_rel_err"] = verdicts[0]["max_rel_err"]
    metrics["starts_converged_frac"] = extra.get("starts_converged_frac", 0.0)
    metrics["tables_s"] = extra.get("tables_s", 0.0)
    for name in LAYER_UNITS:
        if name.startswith(THREAD1):
            metrics[name] = one["metrics"][name[len(THREAD1) :]]
    missing = set(LAYER_UNITS) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": 1,
        "environment": environment(args.seed),
        "untraced_ops_per_s": ops_per_s(untraced),
        "verification": verdicts,
        "thread1": {"attempted": one["attempted"], "failed": one["failed"]},
        "known_defects": workload.known_defects(),
    }
    print(json.dumps(record, indent=2))
    metrics = {name: metrics[name] for name in LAYER_UNITS}
    print(result_line(failed == 0, attempted, failed, metrics, LAYER_UNITS))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return main_traced(args) if args.trace else main_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
