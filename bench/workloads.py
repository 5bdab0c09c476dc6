"""Seeded workloads of the imspe benchmark.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns, and no thread or process is started. A
workload turns ``(seed, pass index)`` into the inputs of one pass, runs one
operation at a time against the public ``imspe`` API, and checks the outputs
after the timed phase. The package functions are looked up on the module at
call time (``api.imspe``, ``cli.main``), so the tracer's wrappers take effect.

Inputs depend only on the seed: the same seed gives the same operations, and
pass ``k`` of a run always holds the same operations whatever the speed of
the program. The eval workloads never repeat a design, so a memo cache cannot
win there; the search table cells (seed 0) and the certify corners are the
same ops in every pass. Every pass of the eval and certify workloads holds
the same mix of shapes (family, n, d) in a seeded order, so passes and seeds
differ in their inputs but hardly in the work those inputs take.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import imspe as api
import imspe.cli as cli

EPS = float(np.finfo(float).eps)
FAMILIES = api.FAMILY_KINDS


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` selects how it runs, ``args`` are its inputs."""

    kind: str
    args: tuple
    tag: str = ""


class Check(NamedTuple):
    """Verification of one operation's output against an independent reference."""

    index: int
    rel_err: float
    ok: bool
    what: str


def _rng(seed, salt, *stream):
    return np.random.default_rng([seed, zlib.crc32(salt.encode()), *stream])


def _latin(rng, n, d):
    # one point per stratum on every axis, kept off the stratum edges so no
    # two points coincide in any coordinate
    cols = [(rng.permutation(n) + 0.1 + 0.8 * rng.uniform(size=n)) / n * 2.0 - 1.0 for _ in range(d)]
    return np.column_stack(cols)


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


def _log_uniform(rng, lo, hi, size=None):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=size)


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


def _criterion_tolerance(family, points, reference):
    # a Cholesky-based evaluation of 1 - (a sum close to 1) can lose
    # cond(R) * eps relative to the O(1) terms; outputs within a generous
    # multiple of that pass, gross errors fail
    R = api.cross_correlation(family, points, points)
    return 1e-10 + 100.0 * EPS * float(np.linalg.cond(R)) / abs(reference)


class Workload:
    """Base class: subclasses define passes, the warm-up, one op, and the checks."""

    name = ""

    def __init__(self, seed, tiny=False):
        self.seed = int(seed)
        self.tiny = tiny

    def make_pass(self, index):
        """The ops of pass ``index``, drawn from their own seeded stream."""
        return self.generate(_rng(self.seed, self.name, index))

    # rounds of the warm-up over every shape
    WARMUP_ROUNDS = 1

    def warmup_ops(self):
        """Every (family, n, d) shape, WARMUP_ROUNDS times, drawn apart from the timed passes."""
        ops = []
        for round_ in range(self.WARMUP_ROUNDS):
            seen = {}
            for op in self.generate(_rng(self.seed, self.name + "/warmup", round_)):
                family, points = op.args[0], op.args[1]
                seen.setdefault((family.kind, *np.shape(points)), op)
            ops += seen.values()
        return ops

    def generate(self, rng):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def keep(self, op, out):
        """The part of an op's output that verification needs."""
        return out

    # passes whose outputs are checked: None for every pass, else a seeded
    # sample of this many passes
    CHECKED_PASSES = None

    def passes_to_check(self, total):
        if self.CHECKED_PASSES is None or total <= self.CHECKED_PASSES:
            return list(range(total))
        rng = _rng(self.seed, self.name + "/verify")
        return sorted(int(k) for k in rng.choice(total, size=self.CHECKED_PASSES, replace=False))

    def verify(self, index, ops, outputs):
        """Checks of the ops of pass ``index`` (``outputs[i]`` is what ``keep`` kept of op i)."""
        raise NotImplementedError

    def tail(self, phase):
        """Tail latency of a timed phase: ``(seconds, percentile, samples beyond it)``.

        Per pass, the latency at the highest percentile with at least ten
        samples beyond it; the median over the passes. Taken per pass, the
        percentile stays the same whatever number of passes a run completes.
        """
        tails = []
        for index in range(len(phase.pass_sizes)):
            ordered = sorted(phase.pass_latencies(index))
            beyond = min(10, len(ordered) - 1)
            rank = len(ordered) - beyond
            tails.append((ordered[rank - 1], 100.0 * rank / len(ordered), beyond))
        return tuple(statistics.median(column) for column in zip(*tails))

    def summary(self, phase):
        """Workload-specific end-to-end figures beyond the common ones."""
        return {}

    def known_defects(self):
        """Defects seen outside the timed ops, by name, with the input that shows them."""
        return {}


class EvalLowD(Workload):
    """One ``imspe()`` call per op, d in {1, 2}, n in {8, 16, 32, 64}."""

    name = "eval-lowd"
    SIZES = (8, 16, 32, 64)
    # theta ranges at n = 8; larger designs scale theta with the point
    # density so that cond(R) stays near or below 1e5 and the d = 1
    # quadrature oracle converges
    THETA = {
        "exponential": (0.3, 10.0, 1),
        "gaussian": (3.0, 30.0, 2),
        "matern32": (0.5, 15.0, 2),
        "matern52": (1.0, 30.0, 2),
    }
    # each (family, n, d) shape PER_SHAPE times a pass, plus ILL designs that
    # are ill-conditioned on purpose: matern52, n = 16, d = 1, cond(R) around
    # 1e6, where the criterion loses 1e-7 to 1e-5
    PER_SHAPE = 15
    ILL = 32
    ILL_THETA = (1.0, 2.0)
    # at the default two BLAS threads, about one fresh process in three has
    # its first ~60 n = 32 solves take ~15 ms instead of ~0.05 ms; eight
    # rounds over the shapes (64 evaluations at n = 32) charge that transient
    # to set-up instead of spreading it over the first timed ops
    WARMUP_ROUNDS = 8

    def generate(self, rng):
        per_shape, ill = (1, 2) if self.tiny else (self.PER_SHAPE, self.ILL)
        ops = []
        for kind, n, d in itertools.product(FAMILIES, self.SIZES, (1, 2)):
            lo, hi, power = self.THETA[kind]
            for _ in range(per_shape):
                theta = _log_uniform(rng, lo, hi) * (n / 8.0) ** (power / d)
                ops.append(Op("eval", (api.CovarianceFamily(kind, theta), _latin(rng, n, d))))
        for _ in range(ill):
            theta = _log_uniform(rng, *self.ILL_THETA)
            ops.append(Op("eval", (api.CovarianceFamily("matern52", theta), _latin(rng, 16, 1)), "ill"))
        return _shuffled(rng, ops)

    def run(self, op):
        family, points = op.args
        return api.imspe(family, points).value

    CHECKED_PASSES = 2

    def verify(self, index, ops, outputs):
        rng = _rng(self.seed, self.name + "/verify", index)
        done = [i for i, out in enumerate(outputs) if isinstance(out, float)]
        ill = [i for i in done if ops[i].tag == "ill"]
        flat = [i for i in done if ops[i].args[1].shape[1] == 1 and ops[i].tag != "ill"]
        plane = [i for i in done if ops[i].args[1].shape[1] == 2 and ops[i].args[1].shape[0] == 8]
        checks = []
        for i in _sample(rng, ill, 2) + _sample(rng, flat, 4):
            family, points = ops[i].args
            reference = api.integrate_mspe(family, points, _LOOSE_SPEC)
            rel = _rel(outputs[i], reference)
            tol = _criterion_tolerance(family, points, reference)
            checks.append(Check(i, rel, rel <= tol, f"d=1 {ops[i].tag or 'regular'} vs integrate_mspe"))
        for i in _sample(rng, plane, 1):
            family, points = ops[i].args
            reference = nested_mspe_average(family, points)
            rel = _rel(outputs[i], reference)
            tol = _criterion_tolerance(family, points, reference) + 1e-9
            checks.append(Check(i, rel, rel <= tol, "d=2 vs nested average_over_domain"))
        return checks


class EvalHighD(Workload):
    """One ``imspe()`` call per op with one theta per axis, d in {6, 8, 10}."""

    name = "eval-highd"
    DIMS = (6, 8, 10)
    SIZES = (4, 8, 16)
    THETA = (0.3, 3.0)

    PER_SHAPE = 2

    def generate(self, rng):
        ops = []
        for kind, d, n in itertools.product(FAMILIES, self.DIMS, self.SIZES):
            for _ in range(self.PER_SHAPE):
                theta = _log_uniform(rng, *self.THETA, size=d)
                ops.append(Op("eval", (api.CovarianceFamily(kind, theta), _latin(rng, n, d))))
        ops = _shuffled(rng, ops)
        return ops[:4] if self.tiny else ops

    def run(self, op):
        family, points = op.args
        return api.imspe(family, points).value

    CHECKED_PASSES = 4

    def verify(self, index, ops, outputs):
        # exact symmetry (README): relabelling the points and reflecting any
        # axis leave the value unchanged to the last bit
        rng = _rng(self.seed, self.name + "/verify", index)
        done = [i for i, out in enumerate(outputs) if isinstance(out, float)]
        checks = []
        for i in _sample(rng, done, 4):
            family, points = ops[i].args
            signs = np.where(rng.integers(2, size=points.shape[1]) == 1, -1.0, 1.0)
            moved = points[rng.permutation(points.shape[0])] * signs
            other = api.imspe(family, moved).value
            rel = _rel(outputs[i], other)
            checks.append(Check(i, rel, other == outputs[i], "permutation + reflection, bitwise"))
        return checks


@dataclass(frozen=True)
class SearchJob:
    family: str
    theta: tuple
    n: int
    d: int
    starts: int
    seed: int
    max_iterations: int = 500
    reference: object = None

    def argv(self):
        argv = ["search", "--family", self.family]
        for t in self.theta:
            argv += ["--theta", repr(float(t))]
        argv += ["--n", str(self.n), "--d", str(self.d), "--starts", str(self.starts)]
        argv += ["--max-iterations", str(self.max_iterations)]
        return argv + ["--seed", str(self.seed), "--quiet"]


class Search(Workload):
    """One ``imspe search`` CLI job per op: the reference-table cells, then d = 2 jobs."""

    name = "search"
    # (family, theta per axis, n, d, starts); matern32 theta = 1 at n = 6
    # converges in about 1 of 50 starts today
    EXTRA = (
        ("exponential", (3.0,), 3, 2, 4),
        ("matern32", (3.0,), 3, 2, 4),
        ("gaussian", (1.0, 4.0), 3, 2, 4),
        ("matern52", (1.0, 4.0), 4, 2, 4),
        ("matern32", (1.0,), 6, 1, 8),
    )
    # iteration cap of the extra jobs. Over the multistart seeds, gaussian
    # theta = (1, 4) at (4, 2) takes 0.7 s to 20 s at the CLI default of 500,
    # because some starts creep to the cap; at 100 every extra job stays
    # within about 2 s and a start that would creep counts as not converged.
    EXTRA_MAX_ITERATIONS = 100

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        cases = api.load_reference_cases()
        if tiny:
            cases = [c for c in cases if c.n == 1][:1]
        # the table cells run at the CLI defaults (32 starts, seed 0), as
        # `imspe reproduce-tables` does; the extra jobs draw their multistart
        # seed from the workload seed and the pass
        self.tables = [SearchJob(c.family, (c.theta,), c.n, 1, 32, 0, reference=c) for c in cases]
        self.extra = self.EXTRA[:1] if tiny else self.EXTRA

    def make_pass(self, index):
        seed = int(_rng(self.seed, self.name, index).integers(2**31))
        jobs = self.tables + [
            SearchJob(family, theta, n, d, 2 if self.tiny else starts, seed, self.EXTRA_MAX_ITERATIONS)
            for family, theta, n, d, starts in self.extra
        ]
        return [Op("search", (job,), "table" if job.reference else "") for job in jobs]

    def warmup_ops(self):
        shapes = {}
        for job in (op.args[0] for op in self.make_pass(0)):
            start = np.repeat(np.linspace(-1.0, 1.0, job.n + 2)[1:-1, None], job.d, axis=1)
            shapes.setdefault((job.family, job.n, job.d), Op("eval", (api.CovarianceFamily(job.family, job.theta), start)))
        return list(shapes.values())

    def run(self, op):
        if op.kind == "eval":
            return api.imspe(*op.args).value
        job = op.args[0]
        out = io.StringIO()
        # the record goes to stdout; stderr only says that no start converged
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job.argv())
        record = json.loads(out.getvalue())
        return {"exit": code, **record["outputs"], "starts": job.starts}

    def verify(self, index, ops, outputs):
        checks = []
        for i, out in enumerate(outputs):
            if not isinstance(out, dict):
                continue  # raised: counted as failed already
            job = ops[i].args[0]
            # a table cell must converge and exit 0; an extra job may also end
            # with no converged start, which the CLI reports as exit 4
            converged = out["best_design"] is not None
            if converged:
                ok = out["exit"] == cli.EXIT_OK
            else:
                ok = job.reference is None and out["exit"] == cli.EXIT_NO_CONVERGENCE
            checks.append(Check(i, 0.0, ok, "exit code, and every table cell converges"))
            if not converged:
                continue
            best = float.fromhex(out["best_imspe_hex"])
            family = api.CovarianceFamily(job.family, job.theta)
            again = api.imspe(family, np.array(out["best_design"])).value
            checks.append(Check(i, 0.0, again == best, "best_imspe == imspe(best_design), bitwise"))
            case = job.reference
            if case is not None:
                rel = _rel(best, case.imspe)
                coord = float(np.max(np.abs(np.sort(np.ravel(out["best_design"])) - np.sort(case.design))))
                ok = rel <= case.imspe_rtol and coord <= case.coord_atol
                checks.append(Check(i, rel, ok, f"table {case.table} cell vs reference"))
        return checks

    TAIL_PERCENTILE = 90

    def tail(self, phase):
        # a pass holds 14 jobs, whose tail with ten samples beyond it would be
        # the fourth-fastest job, and a run holds two or three passes. The tail
        # is the 90th percentile (nearest rank) of all jobs of the phase: it
        # falls among the slowest jobs, and the percentile does not depend on
        # the number of passes. The slowest job alone varies twice as much
        # from run to run.
        ordered = sorted(phase.latencies)
        rank = math.ceil(self.TAIL_PERCENTILE / 100.0 * len(ordered))
        return ordered[rank - 1], float(self.TAIL_PERCENTILE), len(ordered) - rank

    def summary(self, phase):
        converged = attempted = 0
        tables = []
        for index in range(len(phase.pass_sizes)):
            ops, outputs, latencies = self.make_pass(index), phase.pass_outputs(index), phase.pass_latencies(index)
            done = [(op, out, lat) for op, out, lat in zip(ops, outputs, latencies) if isinstance(out, dict)]
            converged += sum(out["starts_converged"] for _, out, _ in done)
            attempted += sum(out["starts"] for _, out, _ in done)
            tables.append(sum(lat for op, _, lat in done if op.tag == "table"))
        return {
            "starts_converged_frac": converged / attempted if attempted else 0.0,
            # wall time of the table cells of one pass, median over the passes
            "tables_s": statistics.median(tables),
        }


class Certify(Workload):
    """One closed-form-vs-oracle comparison per op, plus one 10^4-anchor batch per family and pass."""

    name = "certify"
    THETA = (1e-6, 1e2)
    BATCH = 10_000
    # fixed corners in every pass: the slow exponential theta = 100 oracle,
    # also at anchors MIN_GAP apart, where it refines to the 1024-node rule
    # (the deepest the random draws reach; building that rule once costs
    # about 1 s and 13 MB, so it belongs in the warm-up), and the small-theta
    # cancellation, at the anchors the ROADMAP quotes
    CORNERS = (
        ("exponential", 100.0, 0.3, -0.2),
        ("exponential", 100.0, 0.3, 0.28),
        ("exponential", 1e-6, 0.3, -0.2),
        ("matern32", 1e-6, 0.3, -0.2),
        ("matern52", 1e-6, 0.3, -0.2),
    )
    PAIR_RTOL = 1e-8
    # integrate_pair raises OracleDivergenceError for exponential theta above
    # about 20 with anchors closer than about 0.01: its refinements wobble at
    # 1e-13 around a value the first rule already had right (about 1 pair in
    # 4000 of these draws). Random anchors stay MIN_GAP apart, so no op fails
    # and none refines past 256 nodes per panel; the traced run calls
    # known_defects(), which runs DIVERGENCE_PROBE to report the defect. Refining
    # to the last level builds 2048- and 4096-node rules, which takes seconds
    # and about 250 MB.
    MIN_GAP = 0.02
    DIVERGENCE_PROBE = ("exponential", 58.65513694707694, 0.30230729473956175, 0.3075607452836615)

    def generate(self, rng):
        pairs, designs = (2, 1) if self.tiny else (128, 4)  # per family
        ops = [Op("pair", corner, "corner") for corner in self.CORNERS]
        for kind in [kind for kind in FAMILIES for _ in range(pairs)]:
            theta = float(_log_uniform(rng, *self.THETA))
            a, b = rng.uniform(-1.0, 1.0, size=2)
            while abs(a - b) < self.MIN_GAP:
                b = rng.uniform(-1.0, 1.0)
            ops.append(Op("pair", (kind, theta, float(a), float(b))))
        for kind in [kind for kind in FAMILIES for _ in range(designs)]:
            n = int(rng.integers(2, 9))
            lo, hi, power = EvalLowD.THETA[kind]
            theta = float(_log_uniform(rng, lo, hi)) * (n / 8.0) ** power
            ops.append(Op("mspe", (api.CovarianceFamily(kind, theta), _latin(rng, n, 1))))
        ops = _shuffled(rng, ops)
        size = 100 if self.tiny else self.BATCH
        batches = []
        for kind in FAMILIES:
            a, b = rng.uniform(-1.0, 1.0, size=(2, size))
            batches.append(Op("batch", (kind, float(_log_uniform(rng, 0.1, 10.0)), a, b)))
        return batches + ops

    def warmup_ops(self):
        shapes = {("corner", corner): Op("pair", corner, "corner") for corner in self.CORNERS}
        for op in self.generate(_rng(self.seed, self.name + "/warmup")):
            key = (op.kind, op.args[0]) if op.kind != "mspe" else (op.kind, op.args[0].kind)
            shapes.setdefault(key, op)
        return list(shapes.values())

    # anchors of each batch checked against the oracle; they are uniform
    # draws, so the first ones are a random sample
    BATCH_CHECKS = 2

    def run(self, op):
        if op.kind == "batch":
            return api.pair_integral(*op.args)
        if op.kind == "pair":
            return api.pair_integral(*op.args), api.integrate_pair(*op.args)
        family, points = op.args
        return api.imspe(family, points).value, api.integrate_mspe(family, points)

    def keep(self, op, out):
        # plain floats: a slice of a batch would keep the whole batch alive
        return tuple(float(x) for x in (out[: self.BATCH_CHECKS] if op.kind == "batch" else out))

    def verify(self, index, ops, outputs):
        checks = []
        for i, out in enumerate(outputs):
            if isinstance(out, BaseException):
                continue
            op = ops[i]
            if op.kind == "batch":
                kind, theta, a, b = op.args
                for j in range(len(out)):
                    reference = api.integrate_pair(kind, theta, a[j], b[j])
                    rel = _rel(out[j], reference)
                    checks.append(Check(i, rel, rel <= self.PAIR_RTOL, f"{kind} batch anchor vs integrate_pair"))
            elif op.kind == "pair":
                rel = _rel(*out)
                checks.append(Check(i, rel, rel <= self.PAIR_RTOL, f"{op.args[0]} pair_integral vs integrate_pair"))
            else:
                family, points = op.args
                rel = _rel(*out)
                tol = _criterion_tolerance(family, points, out[1])
                checks.append(Check(i, rel, rel <= tol, "d=1 imspe vs integrate_mspe"))
        return checks

    def known_defects(self):
        try:
            api.integrate_pair(*self.DIVERGENCE_PROBE)
        except api.OracleDivergenceError:
            return {"integrate_pair diverges at near-coincident anchors": list(self.DIVERGENCE_PROBE)}
        return {}


def _sample(rng, indices, count):
    if len(indices) <= count:
        return list(indices)
    return [indices[j] for j in sorted(rng.choice(len(indices), size=count, replace=False))]


# the profile of an ill-conditioned design carries rounding noise of about
# cond(R) * eps, and the outer rule of the nested average integrates inner
# averages good to about 1e-13; both stop refining at a looser tolerance
_LOOSE_SPEC = api.QuadratureSpec(rtol=1e-11)


def nested_mspe_average(family, points):
    """Average of the prediction variance over [-1, 1]^2 by a nested panel rule.

    Each axis splits at the design's coordinates on that axis, where the
    profile loses smoothness; this route never touches W or v.
    """
    profile = api.mspe_evaluator(family, points)
    xs, ys = points[:, 0], points[:, 1]

    def inner(x):
        def along_y(y):
            return profile(np.column_stack([np.full(y.shape, x), y]))

        return api.average_over_domain(along_y, tuple(ys))

    def outer(x):
        return np.array([inner(float(xi)) for xi in np.atleast_1d(x)])

    return api.average_over_domain(outer, tuple(xs), _LOOSE_SPEC)


WORKLOADS = {cls.name: cls for cls in (EvalLowD, EvalHighD, Search, Certify)}
