"""Figure 5: total running time of the dynamic link-prediction protocol.

The sum over all 9 steps of each method's (re)training time in the
Figure 4 protocol.  Expected shape (paper): SUPA is the fastest because
InsLearn trains incrementally in a single pass, while static baselines
pay for full retraining at every step.
"""

from __future__ import annotations

from bench_fig4_dynamic_link_prediction import METHODS, run_dynamic_protocol
from harness import emit
from repro.utils.tables import format_table


def test_fig5_running_time(benchmark):
    per_method = benchmark.pedantic(run_dynamic_protocol, rounds=1, iterations=1)
    runtimes = {
        name: sum(step.fit_seconds for step in steps)
        for name, steps in per_method.items()
    }
    rows = sorted(
        ([name, runtimes[name]] for name in METHODS), key=lambda r: r[1]
    )
    text = format_table(
        ["method", "total retrain seconds (9 steps)"],
        rows,
        title="Figure 5: cumulative (re)training time, dynamic protocol",
        precision=2,
    )
    emit("fig5_running_time", text)
    assert runtimes["SUPA"] > 0
    benchmark.extra_info["SUPA seconds"] = runtimes["SUPA"]
