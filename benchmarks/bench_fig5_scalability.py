"""E1 / paper Figure 5: deadline scalability vs processor count.

Regenerates the figure's series (deadline hit ratio for RT-SADS and D-COLS
at m = 2..10, R = 30%, SF = 1) and prints them, while benchmarking the cost
of the full sweep.  Expected shape (see EXPERIMENTS.md): RT-SADS's curve
rises toward the high end, D-COLS's stays far lower, and the gap grows with
the processor count.
"""

from bench_search_micro import timing_samples
from conftest import bench_config, record_metric

from repro.experiments import figure5
from repro.metrics import comparison_summary

PROCESSORS = (2, 4, 6, 8, 10)


def test_fig5_scalability_sweep(benchmark):
    config = bench_config()

    result = benchmark.pedantic(
        lambda: figure5(config, processors=PROCESSORS),
        rounds=1,
        iterations=1,
    )

    print()
    print(result.render())
    summary = comparison_summary(result.figure, "RT-SADS", "D-COLS")
    print(
        f"\nRT-SADS max advantage over D-COLS: "
        f"{summary['max_advantage']:.1f} points "
        f"({summary['final_advantage']:.1f} at m={PROCESSORS[-1]})"
    )

    for (name, m), cell in sorted(result.cells.items()):
        record_metric(
            "fig5",
            f"{name}_hit_percent_m{m}",
            samples=cell.hit_percents,
            unit="%",
        )

    # Guard the paper's qualitative claims.
    rtsads = result.figure.series_by_label("RT-SADS").values
    dcols = result.figure.series_by_label("D-COLS").values
    assert rtsads[-1] > rtsads[0], "RT-SADS must scale up"
    assert rtsads[-1] > dcols[-1], "RT-SADS must win at the high end"
    assert (rtsads[-1] - dcols[-1]) > (rtsads[0] - dcols[0]), (
        "the gap must grow with processors"
    )


def _record_cell_vertices(name: str, result) -> None:
    """Per-phase search effort: vertices the quantum actually bought."""
    record_metric(
        "fig5",
        f"{name}_vertices_per_quantum",
        samples=[phase.vertices_generated for phase in result.phases],
        unit="vertices",
    )


def test_fig5_single_cell_rtsads(benchmark):
    """Unit of work: one full simulation at m=10 (RT-SADS)."""
    from repro.experiments import run_once

    config = bench_config(runs=1)
    result = benchmark(lambda: run_once(config, "rtsads", config.base_seed))
    assert result.trace.scheduled_but_missed() == []
    record_metric(
        "fig5", "rtsads_cell_seconds", samples=timing_samples(benchmark), unit="s"
    )
    _record_cell_vertices("rtsads", result)


def test_fig5_single_cell_dcols(benchmark):
    """Unit of work: one full simulation at m=10 (D-COLS)."""
    from repro.experiments import run_once

    config = bench_config(runs=1)
    result = benchmark(lambda: run_once(config, "dcols", config.base_seed))
    assert result.trace.scheduled_but_missed() == []
    record_metric(
        "fig5", "dcols_cell_seconds", samples=timing_samples(benchmark), unit="s"
    )
    _record_cell_vertices("dcols", result)
