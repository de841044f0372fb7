"""Generate the quick-scale experiment outputs recorded in EXPERIMENTS.md."""
import time
from pathlib import Path

from repro.experiments import (
    ExperimentConfig, figure5, figure6, laxity_sweep, overhead_table,
    ablation_quantum, ablation_cost, ablation_representation,
    ablation_interconnect, ablation_memory, extension_reclaiming,
    extension_load_sweep, extension_write_mix, extension_failures,
)

OUT = Path(__file__).resolve().parent

config = ExperimentConfig.quick()
jobs = [
    ("fig5", lambda: figure5(config)),
    ("fig6", lambda: figure6(config)),
    ("laxity", lambda: laxity_sweep(config, processors=(2, 4, 6, 8, 10))),
    ("overhead", lambda: overhead_table(config)),
    ("ablate_quantum", lambda: ablation_quantum(config)),
    ("ablate_cost", lambda: ablation_cost(config)),
    ("ablate_representation", lambda: ablation_representation(config)),
    ("ablate_interconnect", lambda: ablation_interconnect(config)),
    ("reclaiming", lambda: extension_reclaiming(config)),
    ("load_sweep", lambda: extension_load_sweep(config)),
    ("write_mix", lambda: extension_write_mix(config)),
    ("failures", lambda: extension_failures(config)),
    ("ablate_memory", lambda: ablation_memory(config)),
]
for name, job in jobs:
    t0 = time.time()
    (OUT / f"quick_{name}.txt").write_text(job().render() + "\n")
    print(f"DONE {name} in {time.time()-t0:.0f}s", flush=True)
print("ALL DONE", flush=True)
