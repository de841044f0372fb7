"""E3: the laxity (SF) sweep described in Section 5.1.

"SF values range from 1 to 3.  A low value of SF signifies tight deadlines
whereas a high value of SF signifies loose deadlines. ... In all parameters
configuration, RT-SADS outperforms the sequence-oriented based algorithm
D-COLS."  This bench regenerates the processor sweep at SF in {1, 2, 3} and
asserts both that compliance rises with laxity and that RT-SADS wins at
scale under every SF.
"""

from conftest import bench_config

from repro.experiments import laxity_sweep

PROCESSORS = (2, 6, 10)


def test_laxity_sweep(benchmark):
    config = bench_config()

    result = benchmark.pedantic(
        lambda: laxity_sweep(config, processors=PROCESSORS),
        rounds=1,
        iterations=1,
    )

    print()
    print(result.render())

    final_rtsads = {}
    for sf, sweep in result.sweeps.items():
        rtsads = sweep.figure.series_by_label("RT-SADS").values
        dcols = sweep.figure.series_by_label("D-COLS").values
        final_rtsads[sf] = rtsads[-1]
        assert rtsads[-1] >= dcols[-1], (
            f"RT-SADS must win at m={PROCESSORS[-1]} for SF={sf}"
        )
    # Looser deadlines mean higher compliance for the paper's algorithm.
    assert final_rtsads[3.0] >= final_rtsads[1.0]


def test_laxity_single_cell_sf3(benchmark):
    from repro.experiments import run_once

    config = bench_config(runs=1, slack_factor=3.0)
    result = benchmark(lambda: run_once(config, "rtsads", config.base_seed))
    assert result.trace.scheduled_but_missed() == []
