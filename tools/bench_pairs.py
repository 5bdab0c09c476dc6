"""Run the benchmark in interleaved pairs on a parent commit and on the working tree; write BENCH_<label>.json.

Run it from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --label 23 --seeds 3-12 \\
        --change "what the change does"

For each seed and each workload of ``BENCHMARK.json`` it runs

    python3 bench/run.py --workload W --seed K --seconds 15 --trace 0

(15 being ``BENCHMARK.json``'s ``run_seconds``) once in a ``git archive``
of the parent commit and once in a copy of the working tree (its tracked
and untracked files that git does not ignore, uncommitted edits included),
each in a temporary directory, one run at a time. Which side goes first
alternates with the seed: the parent goes first on odd seeds. The runs
inherit this process's environment, so ``OPENBLAS_NUM_THREADS`` is
whatever it is here. Nothing from ``bench/`` is imported or changed.

The output holds, for each workload and end-to-end metric, both sides'
values in pair order, their medians and quartiles and the number of pairs in
which the change did better by the metric's ``better`` in ``BENCHMARK.json``;
then each side's ``failed_frac`` and ``correct`` lists and, under ``runs``,
every run's full record with its result line. It is rewritten after every
pair, so an interrupted run keeps the pairs it finished.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path.cwd()
RUN_TIMEOUT_S = 900


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against (any git revision)")
    parser.add_argument("--label", type=int, required=True, help="the output is BENCH_<label>.json in the working tree")
    parser.add_argument("--seeds", default="3-12", help="first-last seed, inclusive (default 3-12)")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    return parser.parse_args(argv)


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def unpack(commit, into):
    """Write the tree of ``commit`` into the directory ``into``; return the full commit id."""
    full = subprocess.run(["git", "rev-parse", commit], capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", full], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return full


def copy_working_tree(into):
    """Copy the working tree's files that git does not ignore into the directory ``into``."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        capture_output=True, text=True, check=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():
            (Path(into) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, Path(into) / name)


def run_once(tree, workload, seed, seconds):
    """The record of one benchmark run in ``tree``, its result line under ``result_line``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    *body, last = done.stdout.strip().splitlines()
    return {**json.loads("\n".join(body)), "result_line": json.loads(last)}


def quartiles(values):
    """First and third quartiles (the 'inclusive' method), or the value itself for a single run."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summary(runs, workloads, metrics):
    """Per workload: pair count, each end-to-end metric's lists and statistics, failure and correctness lists."""
    out = {}
    for workload in workloads:
        sides = {
            side: [run["record"] for run in runs if run["workload"] == workload and run["side"] == side]
            for side in ("parent", "change")
        }
        pairs = min(map(len, sides.values()))
        if pairs == 0:
            continue
        block = {"pairs": pairs}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent, change = ([record["metrics"][name] for record in sides[side][:pairs]] for side in ("parent", "change"))
            block[name] = {
                "parent": parent,
                "change": change,
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_quartiles": quartiles(parent),
                "change_quartiles": quartiles(change),
                "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
            }
        block["failed_frac"] = {side: [r["reported"]["failed_frac"] for r in sides[side][:pairs]] for side in sides}
        block["correct"] = {side: [r["result_line"]["correct"] for r in sides[side][:pairs]] for side in sides}
        out[workload] = block
    return out


def conditions(record, seeds):
    env = record["environment"]
    blas = env["blas"]
    threads = env["thread_env"].get("OPENBLAS_NUM_THREADS")
    return (
        f"{env['cpu_count']} vCPUs ({env['cpu_model']}), Python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, {blas.get('name')} {blas.get('version')} at "
        f"{'OPENBLAS_NUM_THREADS=' + threads if threads else 'its default thread count'}; "
        "runs one at a time, parent and change alternating which goes first in each pair "
        f"(parent first on odd seeds), seeds {seeds[0]}-{seeds[-1]}"
    )


def main(argv=None):
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    seeds = seeds_of(args.seeds)
    out_path = ROOT / f"BENCH_{args.label}.json"
    command = " ".join(benchmark["command"]) + f" --workload W --seed K --seconds {seconds:g} --trace 0"
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tree:
        parent_commit = unpack(args.parent, parent_tree)
        copy_working_tree(change_tree)
        trees = {"parent": parent_tree, "change": change_tree}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    record = run_once(trees[side], workload, seed, seconds)
                    runs.append({
                        "run": len(runs) + 1,
                        "side": side,
                        "workload": workload,
                        "seed": seed,
                        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                        "record": record,
                    })
                    print(f"run {len(runs)}: {side} {workload} seed {seed} {record['metrics']}", file=sys.stderr)
                result = {
                    "label": args.label,
                    "change": args.change,
                    "parent_commit": [parent_commit],
                    "command": command,
                    "conditions": conditions(runs[0]["record"], seeds),
                    "sides": "parent: a git archive of the parent commit; change: a copy of the working tree (git_commit null on both)",
                    "summary": summary(runs, workloads, benchmark["end_to_end"]),
                    "runs": runs,
                }
                out_path.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
