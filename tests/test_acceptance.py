"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time

import numpy as np
import pytest

from catci.citest import (
    batch_screen,
    chi2_statistic,
    ci_test,
    dof,
    g2_statistic,
    log_sf_chisq,
)
from catci.cli import main
from catci.core import TestSpec
from catci.io import GenConfig, generate, write_delimited
from catci.loglinear import ci_model, ipf_fit, saturated_model
from catci.tabulate import build_table, expected_ci, slice_marginals, table_from_counts

from conftest import make_dataset
from oracles import (
    chi2_bruteforce,
    expected_bruteforce,
    g2_bruteforce,
    log_sf_quadrature,
    marginals_bruteforce,
    tabulate_bruteforce,
)

# Largest grid statistic per dof with log p still above -690 (p >= ~1e-300),
# pinned by bisection against the quadrature oracle.
TAIL_STAT = {1: 1368.3, 2: 1376.0, 5: 1395.1, 12: 1432.2, 48: 1579.8, 192: 2007.8}


def _passed(number, text):
    print(f"ACCEPTANCE PASS [{number}] {text}")


@pytest.fixture(scope="module")
def random_tables():
    """200 random tables: dims 2-5 per variable, k in 0..3, totals 100-5000."""
    rng = np.random.default_rng(20260808)
    tables = []
    for _ in range(200):
        k = int(rng.integers(0, 4))
        dims = tuple(int(d) for d in rng.integers(2, 6, size=2 + k))
        total = int(rng.integers(100, 5001))
        probs = rng.random(math.prod(dims))
        counts = rng.multinomial(total, probs / probs.sum()).reshape(dims)
        tables.append((k, table_from_counts(counts)))
    return tables


def test_criterion_1_dof_values():
    dof(3, 4, (2,))  # warm the path before timing
    start = time.perf_counter()
    assert dof(3, 4, (2,)) == 12
    assert dof(3, 4, (2, 4)) == 48
    assert dof(3, 4, (2, 4, 4)) == 192
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    _passed(1, f"dof = 12/48/192 exactly ({elapsed * 1e6:.0f} us)")


def test_criterion_2_deviance_identity(random_tables):
    start = time.perf_counter()
    for k, table in random_tables:
        fit = ipf_fit(table, ci_model(k))
        expected = expected_ci(slice_marginals(table))
        g2 = g2_statistic(table, expected)
        chi2 = chi2_statistic(table, expected)
        assert fit.deviance == pytest.approx(g2, rel=1e-8, abs=1e-12)
        assert fit.pearson == pytest.approx(chi2, rel=1e-8, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(2, f"IPF deviance = G2, Pearson-from-fit = chi2 on 200 tables ({elapsed:.2f} s)")


def test_criterion_3_saturated_model(random_tables):
    worst = 0.0
    for _, table in random_tables:
        fit = ipf_fit(table, saturated_model(len(table.dims)))
        worst = max(worst, fit.deviance)
        assert fit.deviance < 1e-10
    _passed(3, f"saturated-model deviance < 1e-10 on all tables (max {worst:.2e})")


def test_criterion_4_bruteforce_oracle():
    rng = np.random.default_rng(4444)
    for _ in range(100):
        n_vars = int(rng.integers(2, 6))
        levels = tuple(int(d) for d in rng.integers(2, 5, size=n_vars))
        n = int(rng.integers(50, 2001))
        data = make_dataset(rng, n, levels)
        variables = tuple(range(n_vars))

        table = build_table(data, variables)
        recount = tabulate_bruteforce(data, variables)
        arr = table.as_array()
        for coords, count in recount.items():
            assert int(arr[coords]) == count
        assert int(arr.sum()) == n

        marginals = slice_marginals(table)
        ref_xz, ref_yz, ref_z = marginals_bruteforce(arr)
        for z in itertools.product(*(range(d) for d in levels[2:])):
            s = 0
            stride = 1
            for coord, d in zip(z, levels[2:]):  # slice index: first z fastest
                s += stride * coord
                stride *= d
            assert marginals.n_xz[s].tolist() == ref_xz[z]
            assert marginals.n_yz[s].tolist() == ref_yz[z]
            assert int(marginals.n_z[s]) == ref_z[z]

        expected = expected_ci(marginals).reshape(levels, order="F")
        np.testing.assert_allclose(expected, expected_bruteforce(arr), rtol=1e-10, atol=0)

        flat_expected = expected.ravel(order="F")
        assert g2_statistic(table, flat_expected) == pytest.approx(
            g2_bruteforce(arr, expected), rel=1e-10, abs=1e-12
        )
        assert chi2_statistic(table, flat_expected) == pytest.approx(
            chi2_bruteforce(arr, expected), rel=1e-10, abs=1e-12
        )
    _passed(4, "tabulation, marginals, expectations and statistics match nested loops")


def test_criterion_5_log_sf_against_quadrature():
    worst = 0.0
    for d, tail in TAIL_STAT.items():
        stats = [1e-8, 0.01, 0.5 * d, 1.0 * d, 2.0 * d, 4.0 * d, 8.0 * d, tail]
        for stat in stats:
            got = log_sf_chisq(stat, d)
            ref = log_sf_quadrature(stat, d)
            worst = max(worst, abs(got - ref))
            assert got == pytest.approx(ref, abs=1e-10)
        assert log_sf_chisq(tail, d) < -600  # the grid really spans down to ~1e-300
    for stat in (1e-8, 0.03, 0.7, 2.0, 9.5, 77.0, 400.0, 1376.0):
        assert log_sf_chisq(stat, 2) == pytest.approx(-stat / 2, abs=1e-12)
    _passed(5, f"log sf matches quadrature to 1e-10 (worst {worst:.2e}); dof=2 closed form to 1e-12")


def test_criterion_6_null_calibration():
    start = time.perf_counter()
    alpha = math.log(0.05)
    spec = TestSpec(0, 1, (2, 3))
    rejected = 0
    for seed in range(1000):
        data = generate(GenConfig(n=5000, levels=(3, 4, 2, 4), seed=seed))
        rejected += ci_test(data, spec).log_p_g2 < alpha
    elapsed = time.perf_counter() - start
    fraction = rejected / 1000
    assert 0.03 <= fraction <= 0.07
    assert elapsed < 60.0
    _passed(6, f"null rejection rate {fraction:.3f} in [0.03, 0.07] ({elapsed:.1f} s)")


def test_criterion_7_slice_additivity_and_relabeling(random_tables):
    rng = np.random.default_rng(777)
    for k, table in random_tables:
        arr = table.as_array()
        marginals = slice_marginals(table)
        expected = expected_ci(marginals)
        g2 = g2_statistic(table, expected)
        chi2 = chi2_statistic(table, expected)

        g2_parts = chi2_parts = 0.0
        for z in itertools.product(*(range(d) for d in table.dims[2:])):
            cell = arr[(slice(None), slice(None)) + z]
            if cell.sum() == 0:
                continue
            sub = table_from_counts(cell)
            sub_expected = expected_ci(slice_marginals(sub))
            g2_parts += g2_statistic(sub, sub_expected)
            chi2_parts += chi2_statistic(sub, sub_expected)
        assert g2 == pytest.approx(g2_parts, rel=1e-9, abs=1e-9)
        assert chi2 == pytest.approx(chi2_parts, rel=1e-9, abs=1e-9)

        # relabeling: permute the levels of every variable; statistics are
        # bit-identical
        permuted = arr
        for axis, d in enumerate(table.dims):
            perm = rng.permutation(d)
            permuted = np.take(permuted, perm, axis=axis)
        moved = table_from_counts(permuted)
        moved_expected = expected_ci(slice_marginals(moved))
        assert g2_statistic(moved, moved_expected) == g2
        assert chi2_statistic(moved, moved_expected) == chi2
    _passed(7, "slice additivity (1e-9) and exact relabeling invariance on all tables")


def test_criterion_8_ipf_normalized_time_exceeds_one(capsys):
    argv = [
        "bench",
        "--scenarios", "3,4,2,4,4",
        "--sample-sizes", "10000",
        "--test-counts", "50",
        "--repetitions", "3",
        "--methods", "closed,ipf",
    ]
    # wall-clock comparison: allow one re-measurement under scheduler noise
    for attempt in range(2):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        header, *rows = (line.split("\t") for line in out.splitlines())
        assert header[3:] == ["method", "mean_seconds", "normalized"]
        (normalized,) = [float(row[5]) for row in rows if row[3] == "ipf"]
        if normalized > 1.0:
            break
    with capsys.disabled():
        _passed(8, f"ipf normalized time {normalized:.3f} > 1 at cs=(2,4,4), n=10000")
    assert normalized > 1.0


def test_criterion_9_batch_determinism(tmp_path, capsys):
    data = generate(GenConfig(n=600, levels=(3, 4, 2, 3, 2, 4, 2, 3, 2, 2), seed=99))
    pairs = [TestSpec(i, j) for i, j in itertools.combinations(range(10), 2)]
    assert batch_screen(data, pairs, workers=1) == batch_screen(data, pairs, workers=4)

    path = tmp_path / "ten.csv"
    write_delimited(data, path)
    outputs = []
    for workers in ("1", "4"):
        code = main(["batch", "--data", str(path), "--pairs", "all", "--workers", workers])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 45
    with capsys.disabled():
        _passed(9, "batch reports byte-identical across worker counts (45 pairs)")
