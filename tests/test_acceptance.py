"""Acceptance gate: the seven headline guarantees, one test per criterion.

Each test prints one "[criterion N] PASS/FAIL" summary line with the measured
margins (visible with -s, and in captured output on failure). Criteria:

1. single-point reference table reproduced through the CLI, <= 5 s
2. two-point reference table reproduced at 32 starts, six cells, <= 60 s
3. closed-form pair integrals certified against quadrature, 12,000 cases
4. closed-form IMSPE equals direct MSPE-profile quadrature end to end
5. symmetry suite: interchange (bitwise), reflection, permutation, J+ example
6. stationary-bracket coefficients equal the reversed Bessel rows
7. finite-difference gradients vs Richardson references; stationarity at the
   reproduced two-point optima

Beside criterion 7, three checks of the exact gradient the search uses: the
adjoint against Richardson references in d = 1-3, and the closed-form
pair-average slopes against sympy and against quadrature.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
import sympy as sp

from imspe import (
    CovarianceFamily,
    FAMILY_KINDS,
    imspe,
    imspe_value,
    pair_integral,
    symmetrize_plus,
)
from imspe.criterion import _value_and_gradient
from imspe.integrals import (
    _DPAIR,
    _PAIR,
    BESSEL_BRACKET_MATERN32,
    BESSEL_BRACKET_MATERN52,
    _dsingle,
    bessel_polynomial_coefficients,
)
from imspe.kernels import _DRHO, _RHO
from imspe.quadrature import QuadratureSpec, average_over_domain, integrate_mspe, integrate_pair
from imspe.search import SearchConfig, fd_gradient, multistart_search, projected_gradient

EPS = np.finfo(float).eps
THETAS = (0.1, 1.0, 10.0)

# single-point gaussian optima: design at the origin, value to 20 digits
TABLE1 = (
    (10.0, "1.4395052189867145188"),
    (1.0, "0.50635173437514594921"),
    (0.1, "0.064713374728816338000"),
)

# two-point optima: coordinates to 36 digits, value to 30
TABLE2 = (
    ("exponential", 10.0,
     ("-0.428843076502973738580913342642835688",
      "0.428843076502926651019953387262858211"),
     "1.25050610713192036875720412020"),
    ("exponential", 1.0,
     ("-0.562613484480819485983375653888487238",
      "0.562613484480748862527874378714526426"),
     "0.3583723185808889693411193781670"),
    ("exponential", 0.1,
     ("-0.595372085098266846217447737796589109",
      "0.595372085098266701740581888228899010"),
     "0.0397515674484840954706126153626"),
    ("gaussian", 10.0,
     ("-0.459817720508375267867929092871677346",
      "0.459817720508375267616227770131262939"),
     "0.748750283153859719982920874009"),
    ("gaussian", 1.0,
     ("-0.547984842186733040086552912592693869",
      "0.547984842186658243964134103262859617"),
     "0.104338053693786375286958781117"),
    ("gaussian", 0.1,
     ("-0.574334340466996128229036232524993649",
      "0.574334340466946061004516240790458587"),
     "0.00237335292807726460784770932667"),
)


def banner(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def draw_resolvable(rng, kind, theta, lo=-1.0, hi=1.0, cap=1e-13, max_n=4):
    """Random design whose conditioning lets double precision resolve the
    comparisons below: eps * cond(R) <= cap * value. Shrinks n when a flat
    kernel cannot satisfy that at the drawn size."""
    fam = CovarianceFamily(kind, [theta])
    n = int(rng.integers(1, max_n + 1))
    for _ in range(400):
        pts = np.sort(rng.uniform(lo, hi, size=n))
        if n > 1 and np.min(np.diff(pts)) < 0.1:
            continue
        ev = imspe(fam, pts)
        if EPS * ev.condition_estimate <= cap * ev.value:
            return fam, pts, ev
        n = max(1, n - 1)
    raise AssertionError(f"no resolvable design for {kind} theta={theta}")


def richardson_gradient(family, points, h=1e-4):
    pts = np.asarray(points, dtype=float)
    flat = pts.ravel().copy()
    shape = pts.shape

    def value(vec):
        return imspe_value(family, vec.reshape(shape))

    def central(j, step):
        up = flat.copy()
        dn = flat.copy()
        up[j] += step
        dn[j] -= step
        return (value(up) - value(dn)) / (2.0 * step)

    return np.array(
        [(4.0 * central(j, h / 2.0) - central(j, h)) / 3.0 for j in range(flat.size)]
    )


def test_criterion_1_single_point_table_via_cli():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "imspe", "reproduce-tables", "--table", "1", "--quiet"],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    record = json.loads(proc.stdout)
    rows = {row["theta"]: row for row in record["outputs"]["rows"]}
    worst_rel = 0.0
    worst_coord = 0.0
    for theta, digits in TABLE1:
        row = rows[theta]
        expected = float(digits)
        worst_rel = max(
            worst_rel, abs(float(row["computed_imspe"]) - expected) / expected
        )
        # the reference design is the origin, so the coordinate error is |x1|
        worst_coord = max(worst_coord, row["max_coord_error"])
    ok = (
        proc.returncode == 0
        and all(rows[t]["status"] == "PASS" for t, _ in TABLE1)
        and worst_rel <= 1e-13
        and worst_coord <= 1e-8
        and elapsed <= 5.0
    )
    banner(1, ok, f"3 cells in {elapsed:.2f}s (<=5s); worst value rel "
                  f"{worst_rel:.2e} (<=1e-13); worst |x1| {worst_coord:.2e} (<=1e-8)")
    assert proc.returncode == 0, proc.stderr
    assert worst_rel <= 1e-13
    assert worst_coord <= 1e-8
    assert elapsed <= 5.0


@pytest.fixture(scope="module")
def table2_runs():
    runs = []
    for family, theta, coords, digits in TABLE2:
        fam = CovarianceFamily(family, [theta])
        t0 = time.perf_counter()
        result = multistart_search(fam, 2, 1, SearchConfig())
        runs.append((family, theta, coords, digits, result, time.perf_counter() - t0))
    return runs


def test_criterion_2_two_point_table_reproduction(table2_runs):
    total = sum(run[-1] for run in table2_runs)
    worst_coord = 0.0
    worst_rel = 0.0
    for family, theta, coords, digits, result, _ in table2_runs:
        assert result.best_design is not None, (family, theta)
        computed = np.sort(result.best_design.points[:, 0])
        reference = np.sort([float(c) for c in coords])
        worst_coord = max(worst_coord, float(np.max(np.abs(computed - reference))))
        worst_rel = max(
            worst_rel, abs(result.best_imspe - float(digits)) / float(digits)
        )
    ok = worst_coord <= 5e-7 and worst_rel <= 1e-10 and total <= 60.0
    banner(2, ok, f"6 cells at 32 starts in {total:.2f}s (<=60s); worst coord "
                  f"{worst_coord:.2e} (<=5e-7); worst value rel {worst_rel:.2e} (<=1e-10)")
    assert worst_coord <= 5e-7
    assert worst_rel <= 1e-10
    assert total <= 60.0


def test_criterion_3_closed_forms_vs_quadrature_oracle():
    rng = np.random.default_rng(31)
    pairs = rng.uniform(-1.0, 1.0, size=(1000, 2))
    t0 = time.perf_counter()
    worst = 0.0
    failures = 0
    for kind in FAMILY_KINDS:
        for theta in THETAS:
            for a, b in pairs:
                closed = pair_integral(kind, theta, a, b)
                oracle = integrate_pair(kind, theta, a, b)
                rel = abs(closed - oracle) / abs(oracle)
                worst = max(worst, rel)
                failures += rel > 1e-12
    elapsed = time.perf_counter() - t0
    count = len(pairs) * len(FAMILY_KINDS) * len(THETAS)
    ok = failures == 0 and elapsed <= 30.0
    banner(3, ok, f"{count} pair integrals in {elapsed:.1f}s (<=30s); "
                  f"{count - failures}/{count} within 1e-12; worst rel {worst:.2e}")
    assert failures == 0
    assert elapsed <= 30.0


def test_criterion_4_imspe_vs_direct_mspe_quadrature():
    rng = np.random.default_rng(41)
    spec = QuadratureSpec(rtol=1e-13)
    t0 = time.perf_counter()
    worst = 0.0
    strata = {}
    for i in range(200):
        kind = FAMILY_KINDS[i % 4]
        theta = THETAS[(i // 4) % 3]
        fam, pts, ev = draw_resolvable(rng, kind, theta)
        oracle = integrate_mspe(fam, pts, spec)
        worst = max(worst, abs(ev.value - oracle) / abs(oracle))
        strata[(kind, theta)] = strata.get((kind, theta), 0) + 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed <= 60.0 and min(strata.values()) >= 10
    banner(4, ok, f"200 designs in {elapsed:.1f}s (<=60s); worst rel {worst:.2e} "
                  f"(<=1e-11); all 12 family/theta strata covered")
    assert len(strata) == 12 and min(strata.values()) >= 10
    assert worst <= 1e-11
    assert elapsed <= 60.0


def test_criterion_5_symmetry_suite():
    rng = np.random.default_rng(5)
    # interchange symmetry, bit-exact
    interchange_ok = True
    for kind in FAMILY_KINDS:
        for theta in THETAS:
            for a, b in rng.uniform(-1.0, 1.0, size=(25, 2)):
                interchange_ok &= pair_integral(kind, theta, a, b) == pair_integral(
                    kind, theta, b, a
                )
    # reflection and permutation invariance of the criterion
    worst_reflection = 0.0
    worst_permutation = 0.0
    for i in range(40):
        kind = FAMILY_KINDS[i % 4]
        fam = CovarianceFamily(kind, [THETAS[i % 3]])
        n = int(rng.integers(1, 6))
        pts = np.sort(rng.uniform(-1.0, 1.0, size=n))
        while n > 1 and np.min(np.diff(pts)) < 0.05:
            pts = np.sort(rng.uniform(-1.0, 1.0, size=n))
        base = imspe_value(fam, pts)
        worst_reflection = max(
            worst_reflection, abs(imspe_value(fam, -pts) - base) / base
        )
        worst_permutation = max(
            worst_permutation, abs(imspe_value(fam, rng.permutation(pts)) - base) / base
        )
    # worked identity: the plus-symmetrization of 1 + (a+b)/2 is exactly 2
    example_ok = all(
        symmetrize_plus(lambda x, y: 1.0 + 0.5 * (x + y), a, b) == 2.0
        for a, b in rng.uniform(-1.0, 1.0, size=(100, 2))
    )
    ok = (
        interchange_ok
        and worst_reflection <= 1e-14
        and worst_permutation <= 1e-15
        and example_ok
    )
    banner(5, ok, f"interchange bitwise {'ok' if interchange_ok else 'BROKEN'}; "
                  f"reflection rel {worst_reflection:.1e} (<=1e-14); permutation rel "
                  f"{worst_permutation:.1e} (<=1e-15); J+ example exact "
                  f"{'ok' if example_ok else 'BROKEN'}")
    assert interchange_ok
    assert worst_reflection <= 1e-14
    assert worst_permutation <= 1e-15
    assert example_ok


def test_criterion_6_stationary_bracket_coefficients():
    expected32 = (15.0, 15.0, 6.0, 1.0)
    expected52 = (945.0, 945.0, 420.0, 105.0, 15.0, 1.0)
    tables_ok = (
        tuple(BESSEL_BRACKET_MATERN32) == expected32
        and tuple(BESSEL_BRACKET_MATERN52) == expected52
    )
    # brackets are reversed Bessel-polynomial rows; verify the rows against
    # the recurrence y_n = y_{n-2} + (2n - 1) x y_{n-1} independently
    recurrence_ok = True
    for degree in range(2, 7):
        prev2 = bessel_polynomial_coefficients(degree - 2)
        prev1 = bessel_polynomial_coefficients(degree - 1)
        row = list(prev2) + [0] * (degree - len(prev2) + 1)
        for k, c in enumerate(prev1):
            row[k + 1] += (2 * degree - 1) * c
        recurrence_ok &= tuple(row) == bessel_polynomial_coefficients(degree)
    bracket32 = tuple(float(c) for c in reversed(bessel_polynomial_coefficients(3)))
    bracket52 = tuple(float(c) for c in reversed(bessel_polynomial_coefficients(5)))
    rows_ok = bracket32 == expected32 and bracket52 == expected52
    ok = tables_ok and recurrence_ok and rows_ok
    banner(6, ok, f"brackets {expected32} and {expected52}; recurrence degrees 2-6 "
                  f"{'ok' if recurrence_ok else 'BROKEN'}")
    assert tables_ok
    assert recurrence_ok
    assert rows_ok


def test_criterion_7_gradient_checks(table2_runs):
    rng = np.random.default_rng(70)
    worst_fd = 0.0
    for i in range(50):
        kind = FAMILY_KINDS[i % 4]
        theta = THETAS[(i // 4) % 3]
        fam, pts, _ = draw_resolvable(rng, kind, theta, lo=-0.95, hi=0.95)
        grad = fd_gradient(fam, pts)
        reference = richardson_gradient(fam, pts.reshape(-1, 1))
        worst_fd = max(worst_fd, float(np.max(np.abs(grad - reference))))
    worst_pg = 0.0
    for family, theta, _, _, result, _ in table2_runs:
        fam = CovarianceFamily(family, [theta])
        grad = fd_gradient(fam, result.best_design)
        pg = projected_gradient(result.best_design.points.ravel(), grad)
        worst_pg = max(worst_pg, float(np.max(np.abs(pg))))
    ok = worst_fd <= 1e-6 and worst_pg <= 1e-6
    banner(7, ok, f"50 FD-vs-Richardson points, worst abs {worst_fd:.2e} (<=1e-6); "
                  f"projected gradient at 6 reproduced optima, worst {worst_pg:.2e} (<=1e-6)")
    assert worst_fd <= 1e-6
    assert worst_pg <= 1e-6


def richardson_inward(family, points, h=1e-4):
    """Richardson references whose stencils stay in the box.

    Central differences where x +- h fit; otherwise the second-order
    one-sided stencil pointing inward. Either is extrapolated over h and h/2,
    to second order, except at a coordinate another point shares on its
    axis: there the exponential kernel has a kink, the central difference
    errs by O(h), and the extrapolation is first order.
    """
    pts = np.asarray(points, dtype=float)
    flat = pts.ravel()
    tied = np.array([[np.count_nonzero(column == x) > 1 for x in column] for column in pts.T]).T.ravel()

    def value(j, offset):
        moved = flat.copy()
        moved[j] += offset
        return imspe_value(family, moved.reshape(pts.shape))

    def slope(j, step):
        if -1.0 <= flat[j] - step and flat[j] + step <= 1.0:
            return (value(j, step) - value(j, -step)) / (2.0 * step)
        inward = -1.0 if flat[j] + step > 1.0 else 1.0
        one_sided = -3.0 * value(j, 0.0) + 4.0 * value(j, inward * step) - value(j, 2.0 * inward * step)
        return inward * one_sided / (2.0 * step)

    gain = np.where(tied, 2.0, 4.0)
    return np.array([(gain[j] * slope(j, h / 2.0) - slope(j, h)) / (gain[j] - 1.0) for j in range(flat.size)])


def test_exact_gradient_vs_richardson():
    # the adjoint gradient of the search against an independent reference:
    # four families, d = 1-3, coordinates within 1e-6 of the box, exponential
    # ties on one axis (the kink of R, where both take the mean slope)
    rng = np.random.default_rng(71)
    worst, cases = 0.0, 0
    for kind in FAMILY_KINDS:
        for d in (1, 2, 3):
            for variant in ("interior", "edge", "tie"):
                if variant == "tie" and (kind != "exponential" or d == 1):
                    continue
                fam = CovarianceFamily(kind, rng.uniform(0.5, 4.0, size=d))
                cond = np.inf
                while cond > 1e4:  # keeps the reference's rounding far below the bound
                    pts = rng.uniform(-0.9, 0.9, size=(3, d))
                    if variant == "edge":
                        pts[0, 0] = 1.0 - 1e-6 * rng.random()
                        pts[1, d - 1] = -1.0 + 1e-6 * rng.random()
                        pts[2, d - 1] = 1.0 if d > 1 else pts[2, 0]
                    if variant == "tie":
                        pts[1, d - 1] = pts[0, d - 1]
                    cond = imspe(fam, pts).condition_estimate
                value, grad, _ = _value_and_gradient(fam, pts)
                assert value == imspe_value(fam, pts)
                worst = max(worst, float(np.max(np.abs(grad.ravel() - richardson_inward(fam, pts)))))
                cases += 1
    print(f"[criterion 7, exact gradient] {cases} designs, worst abs {worst:.2e} (<=1e-7)")
    assert worst <= 1e-7


def _sympy_pair(kind, th, a, b):
    # the closed forms of integrals.py, transcribed from their docstrings
    delta, ssum = sp.Abs(b - a), a + b

    def mirrored(boundary):
        return boundary(a, b) + boundary(-a, -b)

    if kind == "exponential":
        edges = sp.exp(-th * (2 + ssum)) + sp.exp(-th * (2 - ssum))
        return ((1 + th * delta) * sp.exp(-th * delta) - edges / 2) / (2 * th)
    if kind == "gaussian":
        m, c = (a + b) / 2, sp.sqrt(2 * th)
        amp = sp.sqrt(sp.pi / (2 * th)) * sp.exp(-th * (a - b) ** 2 / 2) / 4
        return amp * (sp.erf(c * (1 - m)) + sp.erf(c * (1 + m)))
    if kind == "matern32":
        u = sp.sqrt(3 * th)
        t = delta * u

        def boundary(x, y):
            return (5 + 3 * (2 + x + y) * u + 2 * (1 + x + y + x * y) * u**2) * sp.exp(-u * (2 + x + y))

        return (2 * (15 + 15 * t + 6 * t**2 + t**3) * sp.exp(-t) - 3 * mirrored(boundary)) / (24 * u)
    s = sp.sqrt(5 * th)
    t = delta * s

    def boundary(x, y):
        S, G = x + y, x * y
        poly = (945 + 675 * (2 + S) * s + 30 * (27 + 27 * S + 5 * S**2 + 7 * G) * s**2
                + 120 * (1 + S + G) * (2 + S) * s**3 + 30 * (1 + S + G) ** 2 * s**4)
        return poly * sp.exp(-s * (2 + S))

    stationary = 2 * (945 + 945 * t + 420 * t**2 + 105 * t**3 + 15 * t**4 + t**5) * sp.exp(-t)
    return (stationary - mirrored(boundary)) / (1080 * s)


def _sympy_rho(kind, th, h):
    if kind == "exponential":
        return sp.exp(-th * h)
    if kind == "gaussian":
        return sp.exp(-th * h**2)
    if kind == "matern32":
        return (1 + sp.sqrt(3 * th) * h) * sp.exp(-sp.sqrt(3 * th) * h)
    s = sp.sqrt(5 * th) * h
    return (1 + s + s**2 / 3) * sp.exp(-s)


def test_pair_slopes_vs_sympy_diff():
    a, b, h = sp.symbols("a b h", real=True)
    th = sp.symbols("theta", positive=True)
    rng = np.random.default_rng(72)
    anchors = [(0.3, -0.2), (-0.55, -0.55), (0.9, 1.0)] + [tuple(rng.uniform(-1, 1, 2)) for _ in range(3)]
    worst = 0.0
    for kind in FAMILY_KINDS:
        pair = _sympy_pair(kind, th, a, b)
        slope = sp.diff(pair, a)
        rho_slope = sp.diff(_sympy_rho(kind, th, h), h)
        for theta in THETAS:
            for av, bv in anchors:
                at = {a: sp.Float(av), b: sp.Float(bv), th: sp.Float(theta)}
                # the transcription is the closed form the library evaluates
                assert float(pair.evalf(30, subs=at)) == pytest.approx(_PAIR[kind](theta, av, bv), rel=1e-13)
                exact = float(slope.evalf(30, subs=at))
                slope_value = _DPAIR[kind](theta, av, bv, _PAIR[kind](theta, av, bv))
                worst = max(worst, abs(slope_value - exact) / max(1.0, abs(exact)))
                hv = abs(av - bv)
                exact = float(rho_slope.evalf(30, subs={h: sp.Float(hv), th: sp.Float(theta)}))
                assert _DRHO[kind](theta, hv) == pytest.approx(exact, rel=1e-13, abs=1e-15)
    print(f"[criterion 7, pair slopes] sympy d/da at {len(anchors) * 12} points, worst {worst:.2e} (<=1e-13)")
    assert worst <= 1e-13


def _average_to_absolute_tolerance(func, splits):
    # the oracle stops when a refinement changes its value by 1e-13 relative;
    # slopes that nearly cancel to 0 never get there, so integrate func + 1,
    # which turns that test into an absolute one, and subtract the 1 again
    return average_over_domain(lambda x: func(x) + 1.0, splits) - 1.0


def test_pair_slopes_vs_quadrature():
    # d/da (1/2) int rho(|a - x|) rho(|b - x|) dx = (1/2) int rho'(|a - x|) sign(a - x) rho(|b - x|) dx
    rng = np.random.default_rng(73)
    worst = 0.0
    for kind in FAMILY_KINDS:
        rho, drho = _RHO[kind], _DRHO[kind]
        for theta in THETAS:
            for _ in range(4):
                av, bv = rng.uniform(-1.0, 1.0, size=2)
                pair = _average_to_absolute_tolerance(
                    lambda x: drho(theta, np.abs(av - x)) * np.sign(av - x) * rho(theta, np.abs(bv - x)),
                    (av, bv),
                )
                single = _average_to_absolute_tolerance(
                    lambda x: drho(theta, np.abs(av - x)) * np.sign(av - x), (av,)
                )
                worst = max(
                    worst,
                    abs(_DPAIR[kind](theta, av, bv, _PAIR[kind](theta, av, bv)) - pair) / max(1.0, abs(pair)),
                    abs(_dsingle(kind, theta, av) - single) / max(1.0, abs(single)),
                )
    print(f"[criterion 7, pair slopes] quadrature at 48 anchor pairs, worst {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12
