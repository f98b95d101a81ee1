import json
import math
from fractions import Fraction

import numpy as np
import pytest

import condorcet.cli as cli
import condorcet.verify as verify
from condorcet.cultures import mix64
from condorcet.special import (
    _derivative_coefficient,
    elementary_symmetric,
    majority_tail,
    majority_tail_derivative,
    majority_tail_exact,
    poisson_binomial_tail,
)
from condorcet.verify import (
    SUITES,
    TOL_ALGEBRA,
    VERIFY_STREAM_VERSION,
    _bernstein_coefficients,
    _sandwich_corner_cases,
    _substituted_tail,
    _Tracker,
    _uniform_minimum_certificate,
    check_scaled_tail_bound,
    check_tail_convexity,
    check_tail_derivative,
    check_tail_sandwich,
    check_tail_symmetry,
    check_taylor_bounds,
    check_truncated_integral_bounds,
    run_suites,
)
from descent import (
    TOL_OPTIMIZER,
    _MINIMIZER_STEPS,
    _TAG_MINIMIZER,
    MinimizeResult,
    _minimize_batch,
    _project_simplex,
    minimize_marginal_bound,
)


def test_all_suites_pass():
    reports = run_suites(["all"], seed=20240817)
    assert len(reports) >= len(SUITES)
    failing = [r.name for r in reports if not r.passed]
    assert failing == []
    for r in reports:
        assert r.trials > 0
        assert r.worst_witness is not None


def test_suite_trial_counts_are_pinned():
    """The fixed grids of the checks set these counts; a grid that moves
    shows up here."""
    trials = {report.name: report.trials for report in run_suites(["all"], seed=0)}
    assert trials == {
        "taylor_bounds": 2 * 10_000,
        # three margins for each of 10_000 draws and 25 corner cases, plus a
        # near-equality margin for each row and n whose tail is below the
        # threshold: that part depends on the seed's draws
        "tail_sandwich_k2": 3 * (10_000 + 25) + 530,
        "tail_sandwich_k3": 3 * (10_000 + 25) + 463,
        "tail_sandwich_k4": 3 * (10_000 + 25) + 428,
        # k = 1..6: one proof each, and the float check on x = i/256
        "tail_symmetry": 6 * (1 + 257),
        "tail_derivative": 6 * (1 + 257),
        "tail_convexity": 6,  # one proof for each k = 1..6
        "scaled_tail_bound": 10 * 1000,
        "truncated_integral_l1_m2": 1,
        "truncated_integral_l2_m3": 2,
        "truncated_integral_l2_m4": 2,
        "uniform_minimum_proved": 18,  # n = 3..8, k = 2..4
        "uniform_minimum_identity": 14,  # n <= 2 or k = 1, of n = 1..8, k = 1..4
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["frobnicate"])


def test_taylor_worst_witness_reproduces():
    report = check_taylor_bounds()
    witness = report.worst_witness
    t = float(witness["input"])
    if witness["inequality"].startswith("exp(-t-t^2)"):
        margin = (1.0 - t) - math.exp(-t - t * t)
    else:
        margin = math.exp(-t) - (1.0 - t)
    assert margin == pytest.approx(witness["margin"], abs=1e-15)


def test_taylor_array_matches_math_exp_loop():
    """np.exp may differ from math.exp in the last bit at some grid points;
    the report, trials and worst witness included, is the scalar loop's."""
    points = [float(t) for t in np.linspace(0.0, 1.0 / 3.0, 10_000)]
    loop = _Tracker("taylor_bounds", 1e-15)
    loop.record_array(
        [((1.0 - t) - math.exp(-t - t * t), math.exp(-t) - (1.0 - t)) for t in points],
        lambda row, _: points[row],
        ("exp(-t-t^2) <= 1-t", "1-t <= exp(-t)"),
    )
    assert repr(check_taylor_bounds()) == repr(loop.report())


@pytest.mark.parametrize("name", ["tail_symmetry", "tail_derivative"])
def test_tail_float_checks_match_fraction_loop(name):
    """Each report is a loop's over Fractions: a proof row with margin 0 at
    coefficient 0 for each k, then the float function against the exact
    rational, rounded once, on x = i/256."""
    q = verify._TAIL_Q
    eps = np.finfo(float).eps
    loop = _Tracker(name, 0.0)
    for k in range(1, verify._TAIL_K_MAX + 1):
        if name == "tail_symmetry":
            function, inequality = majority_tail, "proved: T(x) + T(1-x) - 1 == 0 identically"
            exact = [majority_tail_exact(k, Fraction(i, q)) for i in range(q + 1)]
        else:
            function = majority_tail_derivative
            inequality = "proved: T' == k C(2k-1, k) (x(1-x))^(k-1) identically"
            factor = k * math.comb(2 * k - 1, k)
            exact = [factor * (Fraction(i, q) * (1 - Fraction(i, q))) ** (k - 1)
                     for i in range(q + 1)]
        loop.record_array([0.0], lambda *_, k=k: {"k": k, "coefficient": 0}, inequality)
        margins = []
        for i, e in enumerate(exact):
            rounded = float(e)
            value = float(function(k, i / q))
            margins.append(64 * eps * abs(rounded) - abs(value - rounded))
        loop.record_array(
            margins,
            lambda row, _, k=k: {"k": k, "x": row / q},
            f"{function.__name__} within 64 eps of exact",
        )
    assert repr(SUITES[name](0)) == repr([loop.report()])


def test_tail_symmetry_proof_catches_a_perturbed_tail_coefficient(monkeypatch):
    """One more unit on the top coefficient of T breaks T(x) + T(1-x) = 1
    at every k, and the float rows, which read the tail numerator, stay
    clean."""
    substituted = verify._substituted_tail

    def perturbed(k, p0, p1, q):
        coefficients = substituted(k, p0, p1, q)
        if (p0, p1, q) == (0, 1, 1):
            coefficients[-1] += 1
        return coefficients

    monkeypatch.setattr(verify, "_substituted_tail", perturbed)
    report = check_tail_symmetry()
    assert (report.trials, report.violations) == (6 * 258, 6)
    # k = 1: T(x) reads 2x and T(1-x) still 1 - x, so the gap is x
    assert report.worst_witness["input"] == {"k": 1, "coefficient": 1}
    assert report.worst_witness["margin"] == -1.0


def test_tail_derivative_proof_catches_a_wrong_coefficient(monkeypatch):
    closed_form = verify._derivative_power

    def wrong(k):
        coefficients = closed_form(k)
        coefficients[k - 1] += 1  # k C(2k-1, k) + 1
        return coefficients

    monkeypatch.setattr(verify, "_derivative_power", wrong)
    report = check_tail_derivative()
    assert (report.trials, report.violations) == (6 * 258, 6)
    assert report.worst_witness["input"] == {"k": 1, "coefficient": 0}
    assert report.worst_witness["margin"] == -1.0


def test_tail_convexity_proof_catches_a_concave_perturbation(monkeypatch):
    """Taking u^2 off 2^(2k-1) T(u/2) takes 2 off T''(u/2) times 2^(2k-3),
    so the least Bernstein coefficient, 0 at u = 1, turns negative for
    every k >= 2."""
    substituted = verify._substituted_tail

    def concave(k, p0, p1, q):
        coefficients = substituted(k, p0, p1, q)
        if k >= 2:
            coefficients[2] -= 1
        return coefficients

    monkeypatch.setattr(verify, "_substituted_tail", concave)
    report = check_tail_convexity()
    assert (report.trials, report.violations) == (6, 5)
    # k = 2: 2 T''(u/2) = 12 - 12u, with Bernstein coefficients [12, 0],
    # reads 10 - 12u, [10, -2], over the scale 1! * 2
    assert report.worst_witness["input"] == {"k": 2, "coefficient": 1}
    assert report.worst_witness["margin"] == -1.0


@pytest.mark.parametrize("name, attribute", [
    ("tail_symmetry", "majority_tail"),
    ("tail_derivative", "majority_tail_derivative"),
])
def test_tail_float_checks_catch_a_value_off_by_1e_12(monkeypatch, name, attribute):
    """1e-12 is above 64 eps |exact| wherever |exact| < 70, so every grid
    point fails, worst where the exact value is 0; the proof rows stay
    clean."""
    function = getattr(verify, attribute)
    monkeypatch.setattr(verify, attribute, lambda k, x: function(k, x) + 1e-12)
    report, = SUITES[name](0)
    assert (report.trials, report.violations) == (6 * 258, 6 * 257)
    assert report.worst_witness["input"]["x"] == 0.0
    assert report.worst_witness["margin"] == -1e-12


@pytest.mark.parametrize("suite", ["tail_symmetry", "tail_derivative", "tail_convexity"])
def test_tail_suite_json_is_seed_free(capsys, suite):
    rows = []
    for seed in ("0", "20240817"):
        assert cli.run(["verify", "--suite", suite, "--seed", seed, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"]["violations_total"] == 0
        rows.append(record["results"])
    assert rows[0] == rows[1]


def test_sandwich_report_is_seed_reproducible():
    a = check_tail_sandwich(3, trials=500, seed=4)
    b = check_tail_sandwich(3, trials=500, seed=4)
    assert a == b
    assert a.violations == 0


def test_sandwich_counts_corner_cases():
    report = check_tail_sandwich(2, trials=100, seed=0)
    assert report.trials > 100  # corners ride along with the random draws


def scalar_sandwich(k, trials, seed, tail_fn=poisson_binomial_tail,
                    sigma_fn=elementary_symmetric, n_values=(3, 10, 100, 1000)):
    """Oracle: the sandwich check as one scalar call and one recorded margin
    at a time.  Returns (trials, violations, worst witness), one trial per
    margin recorded."""
    m = 2 * k - 1
    rng = np.random.default_rng(mix64(seed, verify._TAG_SANDWICH, k, VERIFY_STREAM_VERSION))
    lower_factor = 2.0 ** (1 - 2 * k)
    refine_coeff = 2.0 ** (4 * k - 2)
    active_n = [n for n in n_values if 2.0 * math.log(n) / (n - 1) <= 1.0 / 3.0]
    vectors = [tuple(float(v) for v in rng.random(m)) for _ in range(trials)]
    vectors.extend(_sandwich_corner_cases(k))
    trials, violations, worst = 0, 0, None

    def record(margin, xs, inequality):
        nonlocal trials, violations, worst
        margin = float(margin)
        trials += 1
        violations += margin < -TOL_ALGEBRA
        if worst is None or margin < worst["margin"]:
            worst = {"input": xs, "inequality": inequality, "margin": margin}

    for xs in vectors:
        tail = tail_fn(xs, k)
        s = float(sigma_fn(k, xs))
        record(s - tail, xs, "tail <= sigma")
        record(tail - lower_factor * s, xs, "2^(1-2k) sigma <= tail")
        record(tail - (s - refine_coeff * s ** ((k + 1) / k)), xs,
               "tail >= sigma - 2^(4k-2) sigma^((k+1)/k)")
        if k >= 2:
            for n in active_n:
                ratio = math.log(n) / (n - 1)
                if tail <= 2.0 * ratio:
                    factor = 1.0 - 2.0 ** (4 * k) * ratio ** (1.0 / k)
                    record(tail - factor * s, xs, f"near-equality below threshold, n={n}")
    return trials, violations, worst


def assert_same_report(report, oracle):
    trials, violations, worst = oracle
    assert (report.trials, report.violations) == (trials, violations)
    got = report.worst_witness
    assert got["input"] == worst["input"]
    assert got["inequality"] == worst["inequality"]
    # the batch takes sigma^((k+1)/k) as a numpy power, which may round
    # differently from Python's float power
    np.testing.assert_array_max_ulp(got["margin"], worst["margin"], maxulp=4)


def test_sandwich_matches_scalar_oracle():
    for seed in (0, 1, 2):
        for k in (2, 3, 4):
            report = check_tail_sandwich(k, trials=300, seed=seed)
            assert_same_report(report, scalar_sandwich(k, 300, seed))


def test_broken_sandwich_bound_reports_violations(monkeypatch):
    # sigma scaled down by 10% breaks "tail <= sigma" wherever the tail is
    # close to sigma; batch and scalar oracle must count the same rows
    def shrunk_sigma(ell, xs):
        return 0.9 * elementary_symmetric(ell, xs)

    monkeypatch.setattr(verify, "elementary_symmetric", shrunk_sigma)
    for k in (2, 3):
        report = check_tail_sandwich(k, trials=300, seed=5)
        oracle = scalar_sandwich(k, 300, 5, sigma_fn=shrunk_sigma)
        assert report.violations > 0
        assert report.worst_witness["margin"] < -TOL_ALGEBRA
        assert_same_report(report, oracle)


def test_record_array_counts_and_keeps_first_worst():
    tracker = _Tracker("t", 0.5)
    calls = []

    def inputs(row, column):
        calls.append((row, column))
        return {"row": row, "column": column}

    margins = np.array([[3.0, np.inf], [-1.0, 2.0], [0.0, -1.0], [-1.0, np.inf]])
    tracker.record_array(margins, inputs, ("first", "second"))
    # +inf rows are neither trials nor witnesses; -1.0 < -0.5 three times
    assert (tracker.trials, tracker.violations) == (6, 3)
    # three entries tie at -1.0; the first in row-major order wins
    assert tracker.worst == {
        "input": {"row": 1, "column": 0}, "inequality": "first", "margin": -1.0
    }
    assert calls == [(1, 0)]
    # a later tie does not displace the earlier witness, a lower margin does
    tracker.record_array([5.0, -1.0], inputs, "third")
    tracker.record_array([-1.0], inputs, "fourth")
    assert tracker.worst["inequality"] == "first"
    tracker.record_array([-0.25, -2.0], inputs, "third")
    assert tracker.worst == {
        "input": {"row": 1, "column": 0}, "inequality": "third", "margin": -2.0
    }
    assert (tracker.trials, tracker.violations) == (11, 6)


def scalar_record(tracker, margin, witness_input, inequality):
    """Reference recorder, one margin at a time, that record_array must
    match."""
    tracker.trials += 1
    margin = float(margin)
    if margin < -tracker.tolerance:
        tracker.violations += 1
    if tracker.worst is None or margin < tracker.worst["margin"]:
        tracker.worst = {"input": witness_input, "inequality": inequality, "margin": margin}


def test_record_array_matches_record_loop():
    rng = np.random.default_rng(8)
    margins = np.round(rng.normal(size=(50, 3)), 1)
    margins[rng.random((50, 3)) < 0.2] = np.inf
    names = ("a", "b", "c")
    batch, loop = _Tracker("t", 0.3), _Tracker("t", 0.3)
    batch.record_array(margins, lambda row, column: (row, column), names)
    for row in range(50):
        for column in range(3):
            if margins[row, column] != np.inf:
                scalar_record(loop, margins[row, column], (row, column), names[column])
    assert batch.report() == loop.report()


def test_record_array_all_inactive_keeps_no_witness():
    tracker = _Tracker("t", 0.0)
    tracker.record_array(np.full((3, 2), np.inf), lambda row, column: row, ("a", "b"))
    assert (tracker.trials, tracker.violations, tracker.worst) == (0, 0, None)


def test_scaled_tail_bound_small_range():
    report = check_scaled_tail_bound(n_max=50, k_max=6)
    assert report.passed
    # the bound is tight at n=1 where n * tail(1) = 1 exactly
    assert 1 * majority_tail_exact(3, Fraction(1, 1)) == 1


def test_scaled_tail_margins_match_exact_tail():
    """The integer margins are float(1 - n T(1/n)) of the rational tail, bit
    for bit, at a sample of (n, k) that includes both ends of the suite's
    range."""
    rng = np.random.default_rng(mix64(5, VERIFY_STREAM_VERSION))
    for k in (1, 2, 3, 7, 10):
        margins = verify._scaled_tail_margins(k, 1000)
        assert len(margins) == 1000
        for n in {1, 2, 999, 1000, *(int(x) for x in rng.integers(1, 1001, 40))}:
            exact = 1 - n * majority_tail_exact(k, Fraction(1, n))
            assert margins[n - 1] == float(exact), (n, k)


def test_truncated_integral_check_validates():
    with pytest.raises(ValueError):
        check_truncated_integral_bounds(3, 3, 10.0)
    with pytest.raises(ValueError):
        check_truncated_integral_bounds(2, 6, 10.0)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a, e):
    out = [1]
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_add(a, b):
    width = max(len(a), len(b))
    return [sum(p[j] for p in (a, b) if j < len(p)) for j in range(width)]


def upper_tail_coefficients(k):
    """T(x) = sum_{j>=k} C(2k-1, j) x^j (1-x)^(2k-1-j), expanded by plain
    polynomial products: the form the package does not use."""
    m = 2 * k - 1
    total = [0]
    for j in range(k, m + 1):
        term = poly_mul(poly_pow([0, 1], j), poly_pow([1, -1], m - j))
        total = poly_add(total, [math.comb(m, j) * c for c in term])
    return total


@pytest.mark.parametrize("k", range(1, 11))
def test_tail_identities_in_exact_coefficients(k):
    """The two facts the minimum's proof rests on, as integer polynomial
    identities: T'' = k(k-1) C(2k-1, k) (x(1-x))^(k-2) (1-2x), which makes T
    convex on [0, 1/2], and T(x) + T(1-x) = 1."""
    m = 2 * k - 1
    tail = upper_tail_coefficients(k)
    assert tail == _substituted_tail(k, 0, 1, 1)
    second = [j * (j - 1) * tail[j] for j in range(2, m + 1)] or [0]
    if k == 1:
        expected = [0]
    else:
        factor = k * (k - 1) * math.comb(m, k)
        shape = poly_mul(poly_pow([0, 1, -1], k - 2), [1, -2])
        expected = [factor * c for c in shape]
    assert second == expected
    reflected = [0]
    for j, t in enumerate(tail):
        reflected = poly_add(reflected, [t * c for c in poly_pow([1, -1], j)])
    assert poly_add(tail, reflected) == [1] + [0] * m


def test_uniform_minimum_certificate_nonnegative():
    """No cell with 3 <= n <= 32 and k <= 6 needs subdivision: every
    Bernstein coefficient is already >= 0."""
    for n in range(3, 33):
        for k in range(1, 7):
            coefficients, scale = _uniform_minimum_certificate(n, k)
            assert len(coefficients) == 2 * k and scale > 0
            assert min(coefficients) >= 0, (n, k)


def bernstein_value(coefficients, scale, u):
    m = len(coefficients) - 1
    return sum(
        Fraction(c, scale) * math.comb(m, i) * u ** i * (1 - u) ** (m - i)
        for i, c in enumerate(coefficients)
    )


def test_bernstein_negative_control():
    # p(u) = (4u - 2)^2 - 1 is -1 at u = 1/2 and 3 at both ends
    power = [3, -16, 16]
    coefficients = _bernstein_coefficients(power)
    assert min(coefficients) < 0
    for u in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        assert bernstein_value(coefficients, 2, u) == 3 - 16 * u + 16 * u ** 2


def test_uniform_minimum_certificate_is_the_reduced_inequality():
    """The certificate's polynomial is g(x) - n T(1/n) exactly at rational
    points, and each margin it reports is below the float minimum on a grid
    of [1/2, 1]."""
    grid = np.linspace(0.5, 1.0, 2001)
    for n in range(3, 9):
        for k in range(1, 5):
            coefficients, scale = _uniform_minimum_certificate(n, k)
            floor = n * majority_tail_exact(k, Fraction(1, n))
            for i in range(0, 11, 2):
                x = Fraction(10 + i, 20)
                exact = (majority_tail_exact(k, x)
                         + (n - 1) * majority_tail_exact(k, (1 - x) / (n - 1)) - floor)
                assert bernstein_value(coefficients, scale, 2 * x - 1) == exact, (n, k, x)
            g = majority_tail(k, grid) + (n - 1) * majority_tail(k, (1.0 - grid) / (n - 1))
            margin = min(coefficients) / scale
            assert margin <= float(np.min(g - float(floor))) + 1e-12, (n, k)


def test_minimizer_suite_counts_a_negative_coefficient(monkeypatch):
    def unproved(n, k):
        return ([1, -1] + [0] * (2 * k - 2), 7)

    monkeypatch.setattr(verify, "_uniform_minimum_certificate", unproved)
    report, identity = run_suites(["minimizer"])
    assert (report.trials, report.violations) == (18, 18)
    assert report.worst_witness["input"] == {"n": 3, "k": 2, "coefficient": 1}
    assert report.worst_witness["margin"] == -1 / 7
    # a nonzero coefficient breaks the identity of every cell it is read at,
    # all but n = 1
    assert (identity.trials, identity.violations) == (14, 10)
    assert identity.worst_witness["input"] == {"n": 2, "k": 1, "coefficient": 0}
    assert identity.worst_witness["margin"] == -1 / 7


def test_minimizer_suite_reports_the_identity_cells_apart():
    """The proved report's worst witness is a cell the certificate proves,
    not an identity cell with margin 0."""
    report, identity = run_suites(["minimizer"])
    assert report.name == "uniform_minimum_proved"
    assert report.worst_witness["input"] == {"n": 3, "k": 2, "coefficient": 0}
    assert report.worst_witness["margin"] == 5 / 144
    assert identity.name == "uniform_minimum_identity"
    assert (identity.trials, identity.violations) == (14, 0)
    assert identity.worst_witness["margin"] == 0.0


def test_minimizer_suite_json_is_seed_free(capsys):
    rows = []
    for seed in ("0", "20240817"):
        assert cli.run(["verify", "--suite", "minimizer", "--seed", seed,
                        "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"]["violations_total"] == 0
        proved, identity = record["results"]["reports"]
        assert (proved["trials"], proved["violations"]) == (18, 0)
        assert (identity["trials"], identity["violations"]) == (14, 0)
        rows.append((proved, identity))
    assert rows[0] == rows[1]


def test_minimizer_never_beats_uniform_floor():
    for n in (2, 3, 5, 8):
        for k in (1, 2, 3, 4):
            floor = float(n * majority_tail_exact(k, Fraction(1, n)))
            result = minimize_marginal_bound(n, k, starts=30, seed=1)
            assert result.value >= floor - TOL_OPTIMIZER


def test_minimizer_finds_uniform_point():
    result = minimize_marginal_bound(3, 2, starts=50, seed=2)
    assert result.converged
    for coord in result.point:
        assert abs(coord - 1.0 / 3.0) < 1e-3


def test_minimizer_validates_input():
    with pytest.raises(ValueError):
        minimize_marginal_bound(0, 2)
    with pytest.raises(ValueError):
        minimize_marginal_bound(2, 0)


def single_descent(n, k, starts, seed):
    """The minimizer as one problem at a time: the loop the batched descent
    replaced, kept as its oracle."""
    rng = np.random.default_rng(mix64(seed, _TAG_MINIMIZER, n, k, VERIFY_STREAM_VERSION))
    points = rng.dirichlet(np.ones(n), size=starts)
    points[0] = 1.0 / n
    if starts > 1:
        points[1] = 0.0
        points[1, 0] = 1.0
    if k == 1:
        step = 0.5
    else:
        step = 1.0 / (_derivative_coefficient(k) * (k - 1) * 0.25 ** (k - 2) + 1.0)
    converged = False
    for _ in range(_MINIMIZER_STEPS):
        moved = _project_simplex(points - step * majority_tail_derivative(k, points))
        shift = np.abs(moved - points).max()
        points = moved
        if shift <= 1e-13:
            converged = True
            break
    values = majority_tail(k, points).sum(axis=1)
    best = int(np.argmin(values))
    return MinimizeResult(float(values[best]), tuple(float(v) for v in points[best]), converged)


@pytest.mark.parametrize("seed", [0, 20240817])
def test_batched_minimizer_matches_single_descents(seed):
    """One descent per k over the suite's n = 1..8 gives, problem by
    problem, the result of running each problem alone, bit for bit."""
    sizes = range(1, 9)
    for k in range(1, 5):
        batch = _minimize_batch(sizes, k, starts=20, seed=seed)
        for n, result in zip(sizes, batch):
            single = single_descent(n, k, 20, seed)
            assert repr(result) == repr(single), (n, k)
            assert result == minimize_marginal_bound(n, k, starts=20, seed=seed)


def test_batched_minimizer_matches_single_descents_one_start():
    """With one start there is no vertex start, and the batch still holds
    problems of every width."""
    sizes = (3, 1, 8, 5)
    for k in (1, 2, 4):
        batch = _minimize_batch(sizes, k, starts=1, seed=9)
        assert [repr(r) for r in batch] == [repr(single_descent(n, k, 1, 9)) for n in sizes]



def test_interior_coordinates_share_gradient_at_optimum():
    # at a simplex-interior stationary point the gradient components agree,
    # i.e. x_i (1 - x_i) is constant across coordinates held strictly inside
    for n, k in ((3, 2), (4, 3), (6, 2)):
        result = minimize_marginal_bound(n, k, starts=40, seed=3)
        inside = [x for x in result.point if x > 1e-6]
        products = [x * (1.0 - x) for x in inside]
        assert max(products) - min(products) < 1e-6


def test_stationary_point_with_large_coordinate_pairs_products():
    """A stationary point with a coordinate above 1/2 must balance
    x(1-x) against the small coordinates.

    On two alternatives every point of the simplex is stationary for the
    tail sum (the objective is identically 1 by tail symmetry), so running
    the projected-gradient step from (x, 1-x) with x in (1/2, 1) stays put
    and exhibits the pairing directly.
    """
    for k in (2, 3):
        for x in (0.6, 0.75, 0.9):
            point = np.array([[x, 1.0 - x]])
            step = 0.05
            moved = _project_simplex(point - step * majority_tail_derivative(k, point))
            assert np.abs(moved - point).max() < 1e-12  # stationary
            x1, xn = float(moved[0, 0]), float(moved[0, 1])
            assert xn < 0.5 < x1 < 1.0
            assert abs(x1 * (1.0 - x1) - xn * (1.0 - xn)) < TOL_OPTIMIZER


def test_project_simplex_basics():
    points = np.array([[0.5, 0.5, 0.5], [2.0, -1.0, 0.0], [1.0 / 3] * 3])
    projected = _project_simplex(points)
    assert np.allclose(projected.sum(axis=1), 1.0, atol=1e-12)
    assert (projected >= -1e-12).all()
    # a point already on the simplex is a fixed point
    assert np.allclose(projected[2], 1.0 / 3, atol=1e-12)
    # projection of (2, -1, 0) clips to the vertex
    assert np.allclose(projected[1], [1.0, 0.0, 0.0], atol=1e-12)
