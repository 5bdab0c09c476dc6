"""Print one sha256 over seeded outputs of the imspe package, to the last bit.

Run it from the root of a checkout, once against each of two trees, and
compare the lines; equal hashes mean the two trees produce bit-identical
outputs on everything hashed here:

    PYTHONPATH=src python3 tools/fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/fingerprint.py

Hashed, in order:

- ``imspe()`` on two designs per family, n in 1..19 and d in 1..6 (one
  uniform, one with tied and zero coordinates), at random anisotropic theta:
  the value in hex and the bytes of R, W and v, or the error raised;
- three ``multistart_search`` outcomes, two with d = 1 and one with d = 2:
  values in hex, design bytes, converged starts and iterations;
- the ``imspe eval --diagnostics``, ``imspe search`` and
  ``imspe reproduce-tables --table 1`` JSON records without ``timing_ms``.
"""

import contextlib
import hashlib
import io
import json

import numpy as np

from imspe import (
    FAMILY_KINDS,
    CovarianceFamily,
    ImspeError,
    SearchConfig,
    imspe,
    multistart_search,
)
from imspe.cli import main


def _designs(rng):
    for kind in FAMILY_KINDS:
        for n in range(1, 20):
            for d in range(1, 7):
                theta = np.round(rng.uniform(0.5, 5.0, size=d), 3).tolist()
                yield kind, theta, rng.uniform(-1.0, 1.0, size=(n, d))
                grid = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, d))
                jitter = rng.uniform(-1.0, 1.0, size=(n, d))
                yield kind, theta, np.where(rng.random((n, d)) < 0.5, grid, jitter)


def _evaluations(digest, rng):
    for kind, theta, points in _designs(rng):
        try:
            ev = imspe(CovarianceFamily(kind, theta), points)
        except ImspeError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        digest.update(ev.value.hex().encode())
        for array in (ev.R, ev.W, ev.v):
            digest.update(array.tobytes())


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


def _without_timing(record):
    if isinstance(record, dict):
        return {k: _without_timing(v) for k, v in record.items() if k != "timing_ms"}
    if isinstance(record, list):
        return [_without_timing(v) for v in record]
    return record


def _records(digest):
    commands = (
        ["eval", "--family", "matern32", "--theta", "1.5", "--theta", "0.5",
         "--points", "-0.5,0.25", "--points", "0.0,-0.75", "--points", "0.6,0.6",
         "--diagnostics"],
        ["search", "--family", "exponential", "--theta", "1", "--n", "2",
         "--starts", "4", "--seed", "1"],
        ["reproduce-tables", "--table", "1"],
    )
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", "json", "--quiet"])
        record = _without_timing(json.loads(out.getvalue()))
        digest.update(f"{code} {json.dumps(record, sort_keys=True)}".encode())


def fingerprint():
    digest = hashlib.sha256()
    _evaluations(digest, np.random.default_rng(20171))
    _searches(digest)
    _records(digest)
    return digest.hexdigest()


if __name__ == "__main__":
    print(fingerprint())
