"""Table 3: verification by used AggChecker feature.

Paper row: Top-1 44.5% (1 click) | Top-5 38.1% (2 clicks) |
Top-10 4.6% (3 clicks) | Custom 12.8%.

The paper measured which UI feature its users picked. Here the feature is
a function of the true query's rank (``ResolutionFeature.for_rank``), so
the row is a view over the full run's top-k coverage: top-1, top-5 minus
top-1, top-10 minus top-5, and the rest as custom queries. The expected
clicks per claim price each share by ``ResolutionFeature.clicks``.
"""

from __future__ import annotations

from collections import Counter

from repro.core.interactive import ResolutionFeature
from repro.harness.metrics import aggregate_metrics
from repro.harness.reporting import format_table

FEATURES = (
    ResolutionFeature.TOP_1,
    ResolutionFeature.TOP_5,
    ResolutionFeature.TOP_10,
    ResolutionFeature.CUSTOM,
)
PAPER = (44.5, 38.1, 4.6, 12.8)


def expected_clicks(shares) -> float:
    return sum(
        share / 100 * feature.clicks for share, feature in zip(shares, FEATURES)
    )


def test_table3_feature_usage(benchmark, run_full, capsys):
    # Timed unit: pooling the full run's claim evaluations into metrics.
    metrics = benchmark(lambda: aggregate_metrics(run_full.results))
    covered = metrics.coverage_counts
    n = metrics.n_claims
    counts = (
        covered[1],
        covered[5] - covered[1],
        covered[10] - covered[5],
        n - covered[10],
    )
    ranks = [e.truth_rank for r in run_full.results for e in r.evaluations]
    by_rank = Counter(map(ResolutionFeature.for_rank, ranks))
    assert counts == tuple(by_rank[feature] for feature in FEATURES)
    shares = tuple(100.0 * count / n for count in counts)

    rows = [
        [f"{share:.1f}%" for share in shares] + [f"{expected_clicks(shares):.2f}"],
        [f"{share:.1f}%" for share in PAPER] + [f"{expected_clicks(PAPER):.2f}"],
    ]
    table = format_table(
        f"Table 3: verification by used AggChecker features "
        f"({n} claims, from top-k coverage / paper)",
        [
            "Top-1 (1 click)",
            "Top-5 (2 clicks)",
            "Top-10 (3 clicks)",
            "Custom (5 clicks)",
            "Clicks/claim",
        ],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)

    # The paper's qualitative finding: most claims resolve via top-5.
    assert shares[0] + shares[1] > 60
