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
- three ``multistart_search`` outcomes, two with d = 1 and one with d = 2:
  values in hex, design bytes, converged starts and iterations, then every
  start's stop reason, projected-gradient norm in hex and iteration count;
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
    SearchConfig,
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
from imspe.criterion import _value_and_gradient


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


def _searches(digest):
    jobs = (
        ("exponential", [1.0], 3, 1, SearchConfig(starts=4, seed=1)),
        ("matern52", [2.0], 4, 1, SearchConfig(starts=3, seed=2, max_iterations=60)),
        ("gaussian", [1.0, 4.0], 3, 2, SearchConfig(starts=3, seed=3, max_iterations=40)),
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
    _assemblies(section("assemblies"), designs)
    _cross_correlations(section("cross correlations"), np.random.default_rng(20174))
    _anchor_batches(section("anchor batches"), np.random.default_rng(20172))
    _oracles(section("oracles"), np.random.default_rng(20173))
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
