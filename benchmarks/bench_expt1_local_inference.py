"""Figure 5(c, d): local versus global inference — accuracy and runtime."""

from __future__ import annotations


from repro.bench import expt1_local_inference


def test_expt1_local_inference(once):
    table = once(
        lambda: expt1_local_inference(
            gamma_fractions=(0.005, 0.05, 0.2),
            n_training=300,
            n_tuples=4,
            n_samples=1500,
            n_truth_samples=6000,
            random_state=3,
        )
    )
    print()
    print(table.to_text())

    global_rows = table.filtered(method="global")
    local_rows = table.filtered(method="local")
    global_error = global_rows.column("actual_error")[0]
    global_time = global_rows.column("time_ms")[0]

    # Shape check 1 (Fig. 5c): for small-to-moderate gamma, local inference is
    # about as accurate as global inference.
    small_gamma_error = local_rows.rows[0]["actual_error"]
    assert small_gamma_error <= global_error + 0.05

    # Shape check 2 (Fig. 5d): local inference uses fewer training points than
    # global inference.  NOTE (see EXPERIMENTS.md): the paper's 2-4x wall-clock
    # speedup does not reproduce at this scale because global inference here is
    # a single cached, vectorised matrix product; we therefore only require
    # that local inference stays within a small factor of global.
    assert min(local_rows.column("mean_points_used")) < global_rows.column("mean_points_used")[0]
    assert min(local_rows.column("time_ms")) <= global_time * 6.0

    # The vectorised retrieval selects what the paper's R-tree retrieval does.
    assert local_rows.column("same_selection") == [1.0] * len(local_rows.rows)

    # Shape check 3: larger gamma selects fewer (or equal) points.
    points_used = local_rows.column("mean_points_used")
    assert points_used[-1] <= points_used[0] + 1e-9
