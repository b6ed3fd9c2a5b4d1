"""Contamination benchmark — the Mahalanobis gate's recovery under outliers.

Runs the three-way comparison from
:func:`repro.bench.run_robustness_benchmark` (quick mode): a clean
``drop``-policy stream, the same stream with 10 % of the joint
``[x, y]`` rows replaced by correlated heavy-tailed outliers, and the
contaminated stream behind the ``mahalanobis`` guard with an
:class:`~repro.robust.AdaptiveConformal` calibrator.  Asserts the
acceptance criteria: the gate recovers at least 80 % of the
contamination-induced RMSE gap, and prequential conformal coverage at
nominal 90 % stays inside [86 %, 94 %].
"""

from __future__ import annotations

import pytest

from _common import save_result
from repro.bench import run_robustness_benchmark
from repro.evaluation import render_table


@pytest.fixture(scope="module")
def record():
    return run_robustness_benchmark(quick=True, seed=0)


def test_contamination_recovery(benchmark, record):
    benchmark.pedantic(
        lambda: run_robustness_benchmark(quick=True, seed=1),
        rounds=1,
        iterations=1,
    )

    runs = record["runs"]
    rows = [
        {
            "run": name,
            "guard": run["guard"],
            "rmse": run["rmse"],
            "rows_dropped": run["rows_dropped"],
            "rows_gated": run["rows_gated"],
        }
        for name, run in runs.items()
    ]
    table = render_table(rows, precision=3)
    summary = (
        f"recovery  : {record['recovery']:.1%} of the contamination RMSE gap\n"
        f"coverage  : {record['coverage']:.1%} prequential at alpha="
        f"{record['params']['alpha']}\n"
        f"outliers  : {record['params']['n_outlier_rows']} of "
        f"{record['params']['n_rows']} rows"
    )
    save_result("robustness_contamination", table + "\n\n" + summary)

    # Contamination must actually hurt the undefended baseline, or the
    # recovery ratio is meaningless.
    assert runs["contaminated"]["rmse"] > runs["clean"]["rmse"]
    assert runs["gated"]["rows_gated"] > 0


def test_recovery_meets_acceptance(record):
    """The gate wins back >= 80 % of the contamination RMSE gap."""
    assert record["recovery"] >= 0.8


def test_conformal_coverage_near_nominal(record):
    """Streaming conformal coverage at nominal 90 % within [86 %, 94 %]."""
    assert 0.86 <= record["coverage"] <= 0.94
