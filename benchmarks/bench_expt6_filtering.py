"""Figure 5(j, k): online filtering with selection predicates."""

from __future__ import annotations


from repro.bench import expt6_filtering


def test_expt6_filtering(once):
    table = once(
        lambda: expt6_filtering(
            target_filter_rates=(0.2, 0.8),
            n_tuples=12,
            epsilon=0.12,
            eval_time=1e-3,
            n_truth_samples=4000,
            random_state=8,
        )
    )
    print()
    print(table.to_text())

    # Shape check 1 (Fig. 5j): at a high filtering rate, online filtering
    # reduces MC's runtime; at every rate GP's is already cheap and online
    # filtering (tune, then test the committed envelope) must not blow it up.
    for rate in sorted(set(table.column("target_filter_rate"))):
        rows = table.filtered(target_filter_rate=rate)
        gp_time = rows.filtered(approach="gp").column("mean_time_ms")[0]
        gp_of_time = rows.filtered(approach="gp+of").column("mean_time_ms")[0]
        assert gp_of_time <= gp_time * 1.5, rate
    high = table.filtered(target_filter_rate=0.8)
    mc_time = high.filtered(approach="mc").column("mean_time_ms")[0]
    mc_of_time = high.filtered(approach="mc+of").column("mean_time_ms")[0]
    assert mc_of_time <= mc_time

    # Shape check 2 (Fig. 5k): where enough tuples genuinely fall below the
    # threshold (the high-filter-rate setting), false positives stay low, and
    # false negatives are (near) zero everywhere.
    for approach in ("mc+of", "gp+of"):
        rows = table.filtered(approach=approach)
        for row in rows.rows:
            if row["actual_filter_rate"] >= 0.5:
                assert row["false_positive_rate"] <= 0.35
            assert row["false_negative_rate"] <= 0.2
