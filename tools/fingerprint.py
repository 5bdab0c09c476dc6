"""Print sha256 hashes over seeded outputs of the imspe package, to the last bit.

Run it from the root of a checkout, once against each of two trees, and
compare the lines; equal hashes mean the two trees produce bit-identical
outputs on everything hashed here. One line per section below (hash, then
section name) comes first, then one line with the overall hash of all
sections' bytes in order:

    PYTHONPATH=src python3 tools/fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/fingerprint.py

The numpy, scipy and BLAS versions and ``OPENBLAS_NUM_THREADS`` go to
standard error, so standard output holds the hashes alone.

Hashed, in order:

- ``imspe()`` on three designs per family, n in 1..19 and d in 1..6, 8 and
  10: one uniform and one with tied and zero coordinates at random
  anisotropic theta, and one with tied and zero coordinates at one random
  theta for all axes; the value in hex and the bytes of R, W and v, or the
  error raised;
- the search's ``_value_and_gradient`` on the same designs: the value, the
  gradient bytes and the rounding unit in hex, or the error raised;
- ``_values_and_gradients`` on stacks of 1, 2, 7 and 32 designs per family,
  as one search round prices them: d = 1 stacks that mix designs with tied
  coordinates, 0.0 and -0.0, mirror-symmetric designs and uniform draws,
  and d = 2 stacks at one theta and at one theta per axis, each stack of
  two or more with a design of coincident points in its middle; every
  entry's value, rounding unit and gradient bytes, or its error;
- canonical forms: the points, row orders, signs and repeated-point flags
  ``_canonical_forms`` returns for one-design stacks of centrally symmetric
  designs (d in 1..6), the diagonal search starts (n in 2..8, d in 2..4),
  2^d factorial and star designs (d in 2..5), grids of tied, 0.0 and -0.0
  coordinates and uniform draws (d in 1..6), then for d = 1 stacks of 1, 2
  and 7 designs and for stacks of 2 and 5 designs at d in {2, 3, 6}, each
  mixing ties, signed zeros, mirror-symmetric designs and uniform draws,
  then search-sized stacks of the same mix (32 designs at n = 8 with d = 2
  and d = 1, 4 designs at n = 4, d = 2), and stacks of 2, 5 and 32 designs
  at n = 4, d in {2, 3} that mix heads unique after a tie on the first axis,
  heads with a zero coordinate, tied heads, repeated rows that are not the
  head and uniform draws;
- large designs, n in {32, 33, 64} and d in {1, 2, 6} per family, at one
  theta per axis and at one theta for all axes: Latin-hypercube points with
  one -0.0 coordinate and, for d >= 2, ties on the first axis; ``imspe()``'s
  value in hex and the bytes of R, W and v, then ``_value_and_gradient``'s
  value, gradient bytes and rounding unit (or the error raised); then one
  5-design ``_values_and_gradients`` stack per family at n = 33, d = 2 (an
  odd count of anchor pairs), at both theta forms;
- on the same designs, in input order: the bytes of
  ``build_correlation_matrix``, ``build_pair_matrix`` and
  ``build_single_vector``, ``correlation`` in hex on every pair of rows,
  then the ``mspe_evaluator`` profile at seven fixed abscissae (or the
  error raised);
- ``cross_correlation`` between three pairs of distinct point sets per
  family and d in 1..10 (n and m in 1..32, n != m), at anisotropic theta
  and at one theta for all axes, and ``rho`` on a grid of 401 offsets in
  [-2, 2] at three scalar thetas per family;
- one batch of 1000 anchors per family through ``pair_integral`` and
  ``single_integral``, box edges and the centre included;
- 48 quadrature-oracle values in hex, six ``integrate_pair`` and six
  ``integrate_single`` per family at theta in [0.1, 10], and
  ``integrate_mspe`` on ten d = 1 designs (or the error raised);
- oracle edges, each value in hex or the error raised: ``integrate_pair``
  at anchors one ulp apart, at 0.0 and -0.0, at the box edges, at a
  steep exponential theta = 100 with anchors 0.02 apart and at the
  near-coincident anchors where a doubled rule once diverged;
  ``average_over_domain`` with -0.0/0.0, duplicate, out-of-box, infinite
  and NaN splits, splits one ulp apart, a loose tolerance that stops at
  the first comparison and two integrands that never settle;
  ``integrate_single`` at -1, 1, -0.0 and 0.0 per family; and
  ``integrate_mspe`` on d = 1 designs with n in 1..8 whose points include
  0.0, -0.0 and near-ties;
- five ``multistart_search`` outcomes, three with d = 1 and two with d = 2:
  values in hex, design bytes, converged starts and iterations, then every
  start's stop reason, projected-gradient norm in hex and iteration count;
  the matern32 job reports one optimum and its mirror image as two minima,
  and the 32-start exponential θ = 10, n = 2 table cell has starts that
  stop after 1 to 21 evaluations;
- the ``imspe eval --diagnostics``, ``imspe search`` and
  ``imspe reproduce-tables --table 1`` JSON records without ``timing_ms``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np
import scipy

from imspe import (
    FAMILY_KINDS,
    CovarianceFamily,
    ImspeError,
    QuadratureSpec,
    SearchConfig,
    average_over_domain,
    build_correlation_matrix,
    build_pair_matrix,
    build_single_vector,
    correlation,
    cross_correlation,
    imspe,
    integrate_mspe,
    integrate_pair,
    integrate_single,
    mspe_evaluator,
    multistart_search,
    pair_integral,
    rho,
    single_integral,
)
from imspe.cli import main
from imspe.criterion import _canonical_forms, _value_and_gradient, _values_and_gradients


def _designs(rng):
    for kind in FAMILY_KINDS:
        for n in range(1, 20):
            for d in (*range(1, 7), 8, 10):
                theta = np.round(rng.uniform(0.5, 5.0, size=d), 3).tolist()
                yield kind, theta, rng.uniform(-1.0, 1.0, size=(n, d))
                yield kind, theta, _tied(rng, n, d)
                yield kind, theta[:1], _tied(rng, n, d)


def _tied(rng, n, d):
    grid = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, d))
    jitter = rng.uniform(-1.0, 1.0, size=(n, d))
    return np.where(rng.random((n, d)) < 0.5, grid, jitter)


def _update_error(digest, exc):
    digest.update(f"{type(exc).__name__}: {exc}".encode())


def _evaluations(digest, designs):
    for kind, theta, points in designs:
        try:
            ev = imspe(CovarianceFamily(kind, theta), points)
        except ImspeError as exc:
            _update_error(digest, exc)
            continue
        digest.update(ev.value.hex().encode())
        for array in (ev.R, ev.W, ev.v):
            digest.update(array.tobytes())


def _gradients(digest, designs):
    for kind, theta, points in designs:
        try:
            value, grad, unit = _value_and_gradient(CovarianceFamily(kind, theta), points)
        except ImspeError as exc:
            _update_error(digest, exc)
            continue
        digest.update(f"{value.hex()} {unit.hex()}".encode())
        digest.update(grad.tobytes())


def _signed_ties(rng, shape):
    grid = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=shape)
    return np.where(rng.random(shape) < 0.5, grid, rng.uniform(-1.0, 1.0, size=shape))


def _mirrored(rng, n, d=1):
    # rows in mirror pairs x, -x, and a signed-zero row when n is odd
    half = rng.uniform(-1.0, 1.0, size=(n // 2, d))
    middle = rng.choice([-0.0, 0.0], size=(n % 2, d))
    return rng.permutation(np.concatenate((half, -half, middle)))


def _mixed_stack(rng, size, d=1, top=13, n=None):
    # each design is tied, mirror-symmetric or uniform, at one n (drawn below top unless given) for the stack
    n = int(rng.integers(1, top)) if n is None else n
    draws = (
        lambda: _signed_ties(rng, (n, d)),
        lambda: _mirrored(rng, n, d),
        lambda: rng.uniform(-1.0, 1.0, size=(n, d)),
    )
    return np.stack([draws[rng.integers(3)]() for _ in range(size)])


def _stacks(rng):
    for kind in FAMILY_KINDS:
        for size in (1, 2, 7, 32):
            stack = _mixed_stack(rng, size)
            n = stack.shape[1]
            yield kind, [float(rng.uniform(0.5, 5.0))], stack
            theta = rng.uniform(0.5, 5.0, size=2).tolist()
            for family_theta in (theta[:1], theta):
                yield kind, family_theta, _signed_ties(rng, (size, n, 2))


def _stacked_rounds(digest, rng):
    for kind, theta, stack in _stacks(rng):
        if len(stack) > 1:
            stack[len(stack) // 2] = stack[len(stack) // 2, 0]
        _priced_stack(digest, CovarianceFamily(kind, theta), stack)


def _priced_stack(digest, family, stack):
    for value, grad, unit, error in zip(*_values_and_gradients(family, stack)):
        if error is not None:
            _update_error(digest, error)
            continue
        digest.update(f"{value.hex()} {unit.hex()}".encode())
        digest.update(grad.tobytes())


def _canonical_designs(rng):
    for d in range(1, 7):
        for n in (1, 2, 4):
            half = rng.uniform(-1.0, 1.0, size=(n, d))
            yield np.vstack([half, -half])[None]
    for n in range(2, 9):
        for d in range(2, 5):
            yield np.repeat(np.linspace(-1.0, 1.0, n + 2)[1:-1, None], d, axis=1)[None]
    for d in range(2, 6):
        yield np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(1, d, -1).transpose(0, 2, 1)
        yield np.vstack([0.7 * np.eye(d), -0.7 * np.eye(d), np.zeros((1, d))])[None]
    for d in range(1, 7):
        for n in (1, 3, 6, 9):
            yield rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(1, n, d))
            yield rng.uniform(-1.0, 1.0, size=(1, n, d))
    for size in (1, 2, 7):
        for _ in range(4):
            yield _mixed_stack(rng, size)
    for size in (2, 5):
        for d in (2, 3, 6):
            for _ in range(4):
                yield _mixed_stack(rng, size, d, top=10)
    for size, n, d in ((32, 8, 2), (32, 8, 1), (4, 4, 2)):
        for _ in range(2):
            yield _mixed_stack(rng, size, d, n=n)
    for size in (2, 5, 32):
        for d in (2, 3):
            for _ in range(2):
                yield _branch_stack(rng, size, 4, d)


def _branch_design(rng, n, d, branch):
    # row 0 has the largest |x| on axis 0, so it or its tie is the head row
    points = rng.uniform(-0.9, 0.9, size=(n, d))
    points[0, 0] = rng.choice([-0.95, 0.95])
    if branch == "first tie":  # rows 0 and 1 tie on axis 0 only: the head is unique
        points[1, 0] = -points[0, 0]
    elif branch == "zero":  # the head has a zero coordinate
        points[0, 1 + rng.integers(d - 1)] = rng.choice([-0.0, 0.0])
    elif branch == "tied head":  # row 1 mirrors the head on some axes
        points[1] = points[0] * rng.choice([-1.0, 1.0], size=d)
    elif branch == "repeat":  # two equal rows that are not the head
        points[-1] = points[-2]
    return rng.permutation(points)


def _branch_stack(rng, size, n, d):
    branches = ("first tie", "zero", "tied head", "repeat", "uniform")
    return np.stack([_branch_design(rng, n, d, branches[rng.integers(5)]) for _ in range(size)])


def _canonical_forms_of(digest, rng):
    for stack in _canonical_designs(rng):
        for array in _canonical_forms(stack):
            digest.update(array.tobytes())


def _latin(rng, n, d):
    strata = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
    points = (strata + rng.uniform(0.0, 1.0, size=(n, d))) / n * 2.0 - 1.0
    points[0, -1] = -0.0
    if d > 1:
        points[1::8, 0] = points[0, 0]
    return points


def _large_designs(digest, rng):
    for kind in FAMILY_KINDS:
        for n in (32, 33, 64):
            for d in (1, 2, 6):
                # theta grows with n so that R stays usable
                theta = (n * rng.uniform(0.5, 2.0, size=d)).tolist()
                for family_theta in (theta, theta[:1]):
                    design = [(kind, family_theta, _latin(rng, n, d))]
                    _evaluations(digest, design)
                    _gradients(digest, design)
        theta = (33 * rng.uniform(0.5, 2.0, size=2)).tolist()
        stack = np.stack([_latin(rng, 33, 2) for _ in range(5)])
        for family_theta in (theta, theta[:1]):
            _priced_stack(digest, CovarianceFamily(kind, family_theta), stack)


def _assemblies(digest, designs):
    for kind, theta, points in designs:
        family = CovarianceFamily(kind, theta)
        for build in (build_correlation_matrix, build_pair_matrix, build_single_vector):
            digest.update(build(family, points).tobytes())
        for x in points:
            for y in points:
                digest.update(correlation(family, x, y).hex().encode())
        d = points.shape[1]
        abscissae = np.cos(np.outer(np.arange(1, 8), np.arange(1, d + 1)))
        try:
            digest.update(mspe_evaluator(family, points)(abscissae).tobytes())
        except ImspeError as exc:
            _update_error(digest, exc)


def _cross_correlations(digest, rng):
    for kind in FAMILY_KINDS:
        for d in [*range(1, 11)] * 3:
            n, m = rng.choice(np.arange(1, 33), size=2, replace=False)
            points = rng.uniform(-1.0, 1.0, size=(n, d))
            other = rng.uniform(-1.0, 1.0, size=(m, d))
            theta = rng.uniform(0.1, 10.0, size=d).tolist()
            for family_theta in (theta, theta[:1]):
                family = CovarianceFamily(kind, family_theta)
                digest.update(cross_correlation(family, points, other).tobytes())
        offsets = np.linspace(-2.0, 2.0, 401)
        for theta in rng.uniform(0.01, 100.0, size=3):
            digest.update(rho(kind, float(theta), offsets).tobytes())


def _anchor_batches(digest, rng):
    for kind in FAMILY_KINDS:
        theta = float(np.round(rng.uniform(0.05, 20.0), 3))
        a = np.concatenate(([-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, size=997)))
        b = np.concatenate(([1.0, 0.0, -1.0], rng.uniform(-1.0, 1.0, size=997)))
        digest.update(pair_integral(kind, theta, a, b).tobytes())
        digest.update(single_integral(kind, theta, a).tobytes())


def _oracles(digest, rng):
    for kind in FAMILY_KINDS:
        for _ in range(6):
            theta = float(rng.uniform(0.1, 10.0))
            a, b = rng.uniform(-1.0, 1.0, size=2)
            digest.update(integrate_pair(kind, theta, a, b).hex().encode())
            digest.update(integrate_single(kind, theta, a).hex().encode())
    for i in range(10):
        kind = FAMILY_KINDS[i % len(FAMILY_KINDS)]
        family = CovarianceFamily(kind, [float(rng.uniform(0.1, 10.0))])
        try:
            value = integrate_mspe(family, rng.uniform(-1.0, 1.0, size=i + 1))
        except ImspeError as exc:
            _update_error(digest, exc)
            continue
        digest.update(value.hex().encode())


def _oracle_value(digest, oracle, *args):
    try:
        digest.update(oracle(*args).hex().encode())
    except ImspeError as exc:
        _update_error(digest, exc)


def _oracle_edges(digest, rng):
    ulp = np.nextafter(0.3, 1.0)
    pairs = (
        ("exponential", 5.0, 0.3, ulp),
        ("matern52", 2.0, ulp, 0.3),
        ("matern32", 2.0, 0.0, -0.0),
        ("gaussian", 3.0, -0.0, 0.4),
        ("matern52", 0.5, -1.0, 1.0),
        ("exponential", 100.0, 0.31, 0.33),
        ("exponential", 58.65513694707694, 0.30230729473956175, 0.3075607452836615),
    )
    for args in pairs:
        _oracle_value(digest, integrate_pair, *args)

    def product(x):
        return rho("matern52", 4.0, x - 0.3) * rho("matern52", 4.0, x + 0.6)

    splits = (
        (0.0, -0.0),
        (-0.0, 0.3, 0.3, -0.6, -0.6),
        (1.5, -2.0, np.inf, -np.inf, 0.3, -0.6),
        (np.nan, 0.3, -0.6),
        (0.3, ulp, np.nextafter(ulp, 1.0), -0.6),
    )
    for split in splits:
        _oracle_value(digest, average_over_domain, product, split)
    _oracle_value(digest, average_over_domain, product, (0.3, -0.6), QuadratureSpec(rtol=1e-3))
    _oracle_value(digest, average_over_domain, lambda x: np.sign(x - 0.3))
    _oracle_value(digest, average_over_domain, lambda x: np.abs(x - 0.1) ** 0.5, (), QuadratureSpec(rtol=1e-16))
    for kind in FAMILY_KINDS:
        for a in (-1.0, 1.0, -0.0, 0.0):
            _oracle_value(digest, integrate_single, kind, 1.7, a)
    for n in range(1, 9):
        kind = FAMILY_KINDS[n % len(FAMILY_KINDS)]
        points = rng.uniform(-1.0, 1.0, size=n)
        points[0] = rng.choice([0.0, -0.0])
        if n > 2:
            points[2] = rng.choice([np.nextafter(points[1], 1.0), points[1] + 1e-3])
        family = CovarianceFamily(kind, [float(rng.uniform(0.5, 5.0))])
        _oracle_value(digest, integrate_mspe, family, points)


def _searches(digest):
    jobs = (
        ("exponential", [1.0], 3, 1, SearchConfig(starts=4, seed=1)),
        ("matern52", [2.0], 4, 1, SearchConfig(starts=3, seed=2, max_iterations=60)),
        ("gaussian", [1.0, 4.0], 3, 2, SearchConfig(starts=3, seed=3, max_iterations=40)),
        ("matern32", [3.0], 3, 2, SearchConfig(starts=4, seed=0)),
        ("exponential", [10.0], 2, 1, SearchConfig(starts=32, seed=0)),
    )
    for kind, theta, n, d, config in jobs:
        result = multistart_search(CovarianceFamily(kind, theta), n, d, config)
        digest.update(f"{result.starts_converged} {result.iterations_total}".encode())
        for design, value in result.local_minima:
            digest.update(value.hex().encode())
            digest.update(design.points.tobytes())
        for outcome in result.outcomes:
            digest.update(f"{outcome.stop_reason} {outcome.grad_norm.hex()} {outcome.iterations}".encode())


def _without_timing(record):
    if isinstance(record, dict):
        return {k: _without_timing(v) for k, v in record.items() if k != "timing_ms"}
    if isinstance(record, list):
        return [_without_timing(v) for v in record]
    return record


_RECORD_COMMANDS = (
    ["eval", "--family", "matern32", "--theta", "1.5", "--theta", "0.5",
     "--points", "-0.5,0.25", "--points", "0.0,-0.75", "--points", "0.6,0.6",
     "--diagnostics"],
    ["search", "--family", "exponential", "--theta", "1", "--n", "2",
     "--starts", "4", "--seed", "1"],
    ["reproduce-tables", "--table", "1"],
)


def _record(digest, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json", "--quiet"])
    record = _without_timing(json.loads(out.getvalue()))
    digest.update(f"{code} {json.dumps(record, sort_keys=True)}".encode())


class _Both:
    """Feeds every update to a section's digest and to the overall one."""

    def __init__(self, section, overall):
        self.section, self.overall = section, overall

    def update(self, data):
        self.section.update(data)
        self.overall.update(data)


def fingerprint():
    """(section name, hash) pairs in order, and the overall hash."""
    overall = hashlib.sha256()
    sections = []

    def section(name):
        digest = hashlib.sha256()
        sections.append((name, digest))
        return _Both(digest, overall)

    designs = list(_designs(np.random.default_rng(20171)))
    _evaluations(section("evaluations"), designs)
    _gradients(section("gradients"), designs)
    _stacked_rounds(section("stacked rounds"), np.random.default_rng(20175))
    _canonical_forms_of(section("canonical forms"), np.random.default_rng(20178))
    _large_designs(section("large designs"), np.random.default_rng(20176))
    _assemblies(section("assemblies"), designs)
    _cross_correlations(section("cross correlations"), np.random.default_rng(20174))
    _anchor_batches(section("anchor batches"), np.random.default_rng(20172))
    _oracles(section("oracles"), np.random.default_rng(20173))
    _oracle_edges(section("oracle edges"), np.random.default_rng(20177))
    _searches(section("searches"))
    for argv in _RECORD_COMMANDS:
        _record(section(f"{argv[0]} record"), argv)
    return [(name, digest.hexdigest()) for name, digest in sections], overall.hexdigest()


def environment():
    """One line naming the numpy, scipy and BLAS versions and the BLAS thread setting."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"numpy {np.__version__}, scipy {scipy.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    )


if __name__ == "__main__":
    print(environment(), file=sys.stderr)
    parts, whole = fingerprint()
    for name, hexdigest in parts:
        print(f"{hexdigest}  {name}")
    print(whole)
