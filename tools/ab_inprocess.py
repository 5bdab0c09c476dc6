"""Time one benchmark workload's seeded operations on two checkouts in one process, interleaved.

Run it from anywhere, naming the two checkouts:

    OPENBLAS_NUM_THREADS=1 python3 tools/ab_inprocess.py /path/to/parent . \\
        --workload search --seed 1 --passes 1 --repeats 5

Each checkout's ``src/imspe`` is imported under its own package name
(``imspe_a`` and ``imspe_b``), and its ``bench/workloads.py`` under its own
module name, read as it is; while a side's workload loads or runs, the name
``imspe`` (and every ``imspe.*`` submodule the workload or the package looks
up by that name) points at that side's package. The ops are the workload's
passes 0 to ``--passes`` - 1 for the seed, after one round of its warm-up
ops on each side. Every repeat runs each op once on each side, back to back,
and which side goes first alternates op by op and repeat by repeat; an op
that raises counts as a failure and its time still counts.

Printed, per side: the median and the quartiles of its total time per
repeat, the repeats in which its total was the lower one, the ops in which
its time was the lower one, and its failures; then the median ratio of the
two totals (b / a). Nothing in either checkout is written.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout of side a (for example the parent)")
    parser.add_argument("b", type=Path, help="checkout of side b (for example the change)")
    parser.add_argument("--workload", required=True, help="a workload name of bench/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=1, help="passes of ops, from pass 0 (default 1)")
    parser.add_argument("--repeats", type=int, default=5, help="repeats of every op on each side (default 5)")
    return parser.parse_args(argv)


def _is_imspe(name):
    return name == "imspe" or name.startswith("imspe.")


class Side:
    """One checkout: its package under its own name and its workload, with the ``imspe`` names it sees."""

    def __init__(self, label, root, workload, seed):
        self.label, self.root = label, root.resolve()
        package = f"imspe_{label}"
        source = self.root / "src" / "imspe"
        self.package = _load(package, source / "__init__.py", [str(source)])
        for module in sorted(source.glob("*.py")):
            if not module.name.startswith("__"):
                importlib.import_module(f"{package}.{module.stem}")
        # the name imspe and its submodules, as this side's workload and package see them
        self.names = {"imspe": self.package}
        self.names.update(
            {"imspe" + name[len(package):]: module
             for name, module in sys.modules.items() if name.startswith(package + ".")})
        with self:
            module = _load(f"workloads_{label}", self.root / "bench" / "workloads.py")
            self.workload = module.WORKLOADS[workload](seed)

    def __enter__(self):
        for name in [name for name in sys.modules if _is_imspe(name)]:
            del sys.modules[name]
        sys.modules.update(self.names)
        return self

    def __exit__(self, *exc):
        # keep what the side imported by the name imspe meanwhile (imspe.data, say)
        self.names = {name: module for name, module in sys.modules.items() if _is_imspe(name)}
        for name in self.names:
            del sys.modules[name]
        return False

    def run(self, op):
        """Seconds the op took, and whether it raised."""
        with self:
            start = time.perf_counter()
            try:
                self.workload.run(op)
                failed = False
            except Exception:
                failed = True
            return time.perf_counter() - start, failed


def _load(name, path, search=None):
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None):
    args = parse_args(argv)
    sides = [Side("a", args.a, args.workload, args.seed), Side("b", args.b, args.workload, args.seed)]
    ops = [[op for index in range(args.passes) for op in side.workload.make_pass(index)] for side in sides]
    for side in sides:
        with side:
            warmup = side.workload.warmup_ops()
        for op in warmup:
            side.run(op)
    totals = [[], []]
    op_wins, failures = [0, 0], [0, 0]
    for repeat in range(args.repeats):
        total = [0.0, 0.0]
        for i, pair in enumerate(zip(*ops)):
            first = (i + repeat) % 2
            took = [0.0, 0.0]
            for k in (first, 1 - first):
                took[k], failed = sides[k].run(pair[k])
                failures[k] += failed
                total[k] += took[k]
            if took[0] != took[1]:
                op_wins[took[1] < took[0]] += 1
        for k in (0, 1):
            totals[k].append(total[k])
    count = len(ops[0])
    print(f"{args.workload}, seed {args.seed}: {count} ops (passes 0-{args.passes - 1}), {args.repeats} repeats")
    for k, side in enumerate(sides):
        q1, q3 = _quartiles(totals[k])
        wins = sum(mine < theirs for mine, theirs in zip(totals[k], totals[1 - k]))
        print(f"{side.label} {side.root}: total per repeat median {statistics.median(totals[k]):.4f} s, "
              f"quartiles {q1:.4f}-{q3:.4f} s; lower total in {wins} of {args.repeats} repeats, "
              f"lower time in {op_wins[k]} of {count * args.repeats} ops; {failures[k]} failed")
    ratios = [b / a for a, b in zip(*totals)]
    print(f"b / a: median ratio of totals {statistics.median(ratios):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
