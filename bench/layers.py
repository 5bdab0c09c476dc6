"""Per-layer metrics computed from the spans of a traced run.

Times and call counts are per op of the traced phase, so runs that complete
different numbers of passes compare directly. Warm-up spans (op id -1) are
left out, except for ``criterion.solve.stalls_warmup``.
"""

from __future__ import annotations

import numpy as np

from spans import OP

# a cho_solve inside imspe() normally takes 0.03-0.06 ms at n = 32
STALL_S = 1e-3
# pair-average calls at least this large are the vectorised batches
BATCH_ANCHORS = 1000
KINDS = ("exponential", "gaussian", "matern32", "matern52")

SELF_MS = (
    "criterion.imspe",
    "criterion.build_pair_matrix",
    "criterion.build_correlation_matrix",
    "criterion.build_single_vector",
    "criterion.factor",
    "criterion.solve",
    "criterion.cond",
    "criterion.mspe_evaluator",
    "integrals.pair_integral",
    "integrals.single_integral",
    "kernels.cross_correlation",
    "kernels.rho",
    "quadrature.average_over_domain",
    "search.local_search",
    "search.fd_gradient",
    "cli.main",
)
CALLS = (
    "criterion.imspe",
    "criterion.solve",
    "integrals.pair_integral",
    "kernels.rho",
    "quadrature.average_over_domain",
    "search.local_search",
    "search.fd_gradient",
)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer):
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    timed = spans["op"] >= 0

    def mask(name):
        return spans["name"] == ids.get(name, -1)

    def parent_is(name):
        parent = spans["parent"]
        out = np.zeros(len(parent), dtype=bool)
        has = parent >= 0
        out[has] = spans["name"][parent[has]] == ids.get(name, -1)
        return out

    ops = int(np.count_nonzero(timed & mask(OP)))
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = _ratio(spans["self"][timed & mask(name)].sum() * 1e3, ops)
    for name in CALLS:
        metrics[f"{name}.calls"] = _ratio(np.count_nonzero(timed & mask(name)), ops)
    metrics["kernels.as_design.calls_per_op"] = _ratio(np.count_nonzero(timed & mask("kernels.as_design")), ops)

    # the stall lives in the solves of imspe() itself
    stalls = mask("criterion.solve") & parent_is("criterion.imspe") & (spans["duration"] > STALL_S)
    metrics["criterion.solve.stalls"] = int(np.count_nonzero(stalls & timed))
    metrics["criterion.solve.stalls_warmup"] = int(np.count_nonzero(stalls & ~timed))

    pair = timed & mask("integrals.pair_integral") & (spans["value"] >= BATCH_ANCHORS)
    for k, kind in enumerate(KINDS):
        sel = pair & (spans["tag"] == k)
        metrics[f"integrals.pair_integral.{kind}.anchors_per_s"] = _ratio(spans["value"][sel].sum(), spans["self"][sel].sum())

    averages = timed & mask("quadrature.average_over_domain")
    integrands = timed & mask("quadrature.average_over_domain.integrand")
    metrics["quadrature.refinements_per_average"] = _ratio(np.count_nonzero(integrands), np.count_nonzero(averages))
    metrics["quadrature.diverged"] = _ratio(np.count_nonzero(averages & (spans["error"] == 1)), ops)

    starts = timed & mask("search.local_search")
    finished = starts & (spans["error"] == 0)
    iterations = spans["value"][finished].sum()
    metrics["search.iterations_per_start"] = _ratio(iterations, np.count_nonzero(finished))
    metrics["search.singular_starts"] = _ratio(np.count_nonzero(starts & (spans["error"] == 1)), ops)
    evals = timed & mask("criterion.imspe")
    gradients = np.count_nonzero(timed & mask("search.fd_gradient"))
    metrics["search.evals_per_gradient"] = _ratio(np.count_nonzero(evals & parent_is("search.fd_gradient")), gradients)
    # objective evaluations made by the descent itself: the start value and the line searches
    metrics["search.linesearch_evals_per_iteration"] = _ratio(
        np.count_nonzero(evals & parent_is("search.local_search")), iterations
    )

    metrics["trace.unattributed_ms"] = _ratio(spans["self"][timed & mask(OP)].sum() * 1e3, ops)
    metrics["trace.spans_per_op"] = _ratio(np.count_nonzero(timed), ops)
    return metrics
