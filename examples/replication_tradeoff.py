"""Replication-rate trade-off: the shape of the paper's Figure 6.

Sweeps the database replication rate at a fixed 10-processor machine and
tight deadlines, showing how D-COLS's compliance depends on data being
replicated everywhere while RT-SADS stays high by routing around affinity
constraints — and what each run's statistics look like at the paper's 99%
confidence level.

Run:  python examples/replication_tradeoff.py
"""

from repro.experiments import ExperimentConfig, figure6
from repro.metrics import difference_of_means


def main() -> None:
    config = ExperimentConfig.quick(num_transactions=150, runs=3)
    rates = (0.1, 0.3, 0.5, 0.7, 1.0)
    result = figure6(config, replication_rates=rates)
    print(result.render())

    print("\nstatistical check (Welch two-tailed difference of means):")
    for rate in rates:
        test = difference_of_means(
            result.cells[("rtsads", rate)].hit_percents,
            result.cells[("dcols", rate)].hit_percents,
        )
        verdict = "significant" if test.significant else "not significant"
        print(
            f"  R={rate:.1f}: RT-SADS - D-COLS = "
            f"{test.mean_difference:+6.2f} points "
            f"(t={test.t_statistic:6.2f}, p={test.p_value:.4f}, {verdict})"
        )


if __name__ == "__main__":
    main()
