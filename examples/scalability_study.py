"""Mini scalability study: regenerate the shape of the paper's Figure 5.

Sweeps the processor count at fixed replication (30%) and tight deadlines
(SF=1), comparing RT-SADS against D-COLS plus the greedy and myopic
baselines, and prints the table with a bar chart.  This is the CLI's `fig5`
experiment in library form, at a size that runs in seconds.

Every cell dispatches through the execution-backend registry: this config
runs on the simulator (`backend="sim"`, the default), and the identical
sweep runs on the live TCP cluster by building the config with
``dataclasses.replace(config, backend="cluster")`` — or `--backend cluster`
on the CLI.

Run:  python examples/scalability_study.py
"""

from repro.experiments import ExperimentConfig, figure5, run_once
from repro.metrics import comparison_summary


def main() -> None:
    config = ExperimentConfig.quick(num_transactions=150, runs=2)
    result = figure5(
        config,
        processors=(2, 4, 6, 8, 10),
        schedulers=("rtsads", "dcols", "greedy_edf", "myopic"),
    )
    print(result.render())

    summary = comparison_summary(result.figure, "RT-SADS", "D-COLS")
    print(
        f"\nRT-SADS vs D-COLS: max advantage "
        f"{summary['max_advantage']:.1f} points, advantage at m=10 "
        f"{summary['final_advantage']:.1f} points"
    )
    print(
        f"end-to-end scalability gain: RT-SADS "
        f"{summary['RT-SADS_gain']:+.1f} points, D-COLS "
        f"{summary['D-COLS_gain']:+.1f} points"
    )

    # The mechanism behind the gap: dead-end rates per representation.
    print("\nsearch behaviour at m=10:")
    for name in ("rtsads", "dcols"):
        cell = result.cells[(name, 10)]
        print(
            f"  {cell.scheduler_name:>10s}: dead-end rate "
            f"{100 * cell.mean_dead_end_rate:5.1f}%, mean schedule depth "
            f"{cell.mean_depth:5.1f}, processors touched/phase "
            f"{cell.mean_processors_touched:4.1f}"
        )

    # One repetition of the m=10 cell through the unified runner: the
    # RunReport printed here has the exact same shape a live-cluster run
    # of this cell would produce.
    report = run_once(
        config.with_processors(10), "rtsads", config.base_seed
    )
    print(f"\none {report.backend}-backend repetition of the m=10 cell:")
    print(report.render())


if __name__ == "__main__":
    main()
