"""The backend registry and the runner's dispatch through it."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig, run_once
from repro.runtime import (
    BACKEND_NAMES,
    ExecutionBackend,
    RunReport,
    get_backend,
    register_backend,
)


class TestRegistry:
    def test_builtins_resolve_lazily_by_name(self):
        assert set(BACKEND_NAMES) == {"sim", "cluster", "service", "sharded"}
        backend = get_backend("sim")
        assert isinstance(backend, ExecutionBackend)
        assert backend.name == "sim"

    def test_none_means_sim(self):
        assert get_backend(None).name == "sim"

    def test_instances_pass_through_unwrapped(self):
        backend = get_backend("sim")
        assert get_backend(backend) is backend

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown backend 'quantum'"):
            get_backend("quantum")

    def test_registering_a_custom_backend(self):
        class NullBackend(ExecutionBackend):
            name = "null-test"

            def run_once(self, config, scheduler_name, seed, **kwargs):
                raise AssertionError("never run")

        register_backend(NullBackend.name, NullBackend)
        assert isinstance(get_backend("null-test"), NullBackend)

    def test_empty_name_is_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_backend("", lambda: None)


class RecordingBackend(ExecutionBackend):
    """Captures dispatch arguments instead of running anything."""

    name = "recording-test"

    def __init__(self):
        self.calls = []

    def run_once(self, config, scheduler_name, seed, **kwargs):
        self.calls.append((config, scheduler_name, seed))
        return RunReport(
            backend=self.name,
            scheduler_name=scheduler_name,
            num_workers=config.num_processors,
            seed=seed,
            total_tasks=0,
            guaranteed=0,
            completed=0,
            deadline_hits=0,
            completed_late=0,
            expired=0,
            failed=0,
            guaranteed_violations=0,
            reschedules=0,
            workers_lost=0,
            makespan=0.0,
            wall_seconds=0.0,
        )


class TestRunnerDispatch:
    def test_run_once_follows_config_backend(self):
        backend = RecordingBackend()
        register_backend(backend.name, lambda: backend)
        config = ExperimentConfig.quick(runs=1, backend=backend.name)
        report = run_once(config, "rtsads", 7)
        assert backend.calls == [(config, "rtsads", 7)]
        assert report.backend == backend.name

    def test_explicit_backend_overrides_config(self):
        backend = RecordingBackend()
        config = ExperimentConfig.quick(runs=1)  # backend stays "sim"
        report = run_once(config, "dcols", 3, backend=backend)
        assert backend.calls == [(config, "dcols", 3)]
        assert report.scheduler_name == "dcols"

    def test_default_path_still_runs_the_simulator(self):
        config = ExperimentConfig.quick(
            num_transactions=20, runs=1, num_processors=2
        )
        report = run_once(config, "rtsads", config.base_seed)
        assert report.backend == "sim"
        assert report.total_tasks == 20
        assert report.total_tasks == 20  # sim extra present


class TestBackendFacts:
    """What the engine and the oracle need to know is on the backend."""

    def test_builtin_facts(self):
        facts = {
            name: (get_backend(name).live, get_backend(name).seeded_workload)
            for name in BACKEND_NAMES
        }
        assert facts == {
            "sim": (False, True),
            "sharded": (False, True),
            "cluster": (True, True),
            "service": (True, False),
        }

    def test_a_plain_backend_is_neither_live_nor_seeded(self):
        backend = RecordingBackend()
        assert not backend.live and not backend.seeded_workload

    def test_a_registered_live_backend_stays_in_the_parent(self, monkeypatch):
        """A third-party socket backend is never pooled and runs its seeds
        in order, because it says ``live`` — no name set knows it."""
        from repro.experiments import run_grid, sweep

        class SocketBackend(RecordingBackend):
            name = "socket-test"
            live = True

        def no_pool(method):
            raise AssertionError("a live backend's cell must not be pooled")

        monkeypatch.setattr(sweep.multiprocessing, "get_context", no_pool)
        backend = SocketBackend()
        register_backend(backend.name, lambda: backend)
        config = ExperimentConfig.quick(runs=2, backend=backend.name)
        outcome = run_grid([(config, "rtsads")], jobs=4)
        assert outcome.stats.executed == 2
        assert [seed for _, _, seed in backend.calls] == config.seeds()

    def test_a_seeded_workload_backend_gets_an_oracle_verdict(self):
        class MirrorBackend(RecordingBackend):
            name = "mirror-test"
            seeded_workload = True

        config = ExperimentConfig.quick(num_transactions=20, runs=1)
        plain = run_once(config, "rtsads", 7, backend=RecordingBackend())
        mirrored = run_once(config, "rtsads", 7, backend=MirrorBackend())
        assert plain.regret["verdict"] == "unknown"
        assert mirrored.regret["verdict"] != "unknown"


class TestExperimentConfigBackend:
    def test_default_and_override(self):
        config = ExperimentConfig.quick()
        assert config.backend == "sim"
        assert replace(config, backend="cluster").backend == "cluster"

    def test_empty_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig.quick(backend="")


class TestOneRunOnceSignature:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_no_override_parameters(self, name):
        """How a repetition departs from its config is a fact of the
        backend instance, so no backend can be asked for a substitution it
        would have to refuse."""
        import inspect

        parameters = inspect.signature(get_backend(name).run_once).parameters
        assert list(parameters) == [
            "config", "scheduler_name", "seed",
            "validate_phases", "instrumentation",
        ]
        assert list(inspect.signature(run_once).parameters) == [
            "config", "scheduler_name", "seed", "validate_phases", "backend",
        ]


class TestSimBackendVariants:
    TINY = ExperimentConfig.quick(
        num_transactions=30, runs=1, num_processors=3
    )

    def test_an_unknown_substitution_is_a_type_error(self):
        from repro.runtime.sim import SimBackend

        with pytest.raises(TypeError, match="tweak"):
            SimBackend(tweak=print)

    def test_the_variant_reaches_every_domains_scheduler(self):
        from repro.core.quantum import FixedQuantum
        from repro.runtime.sim import SimBackend

        variant = SimBackend(quantum_policy=FixedQuantum(5.0))
        for config in (self.TINY, self.TINY.with_domains(2)):
            plain = run_once(config, "rtsads", 7)
            varied = run_once(config, "rtsads", 7, backend=variant)
            assert varied.seed == 7
            # No host of the varied run allocated a self-adjusted quantum.
            assert not {p.quantum for p in varied.phases} & {
                p.quantum for p in plain.phases
            }

    def test_an_unseen_task_set_gets_no_oracle_verdict(self):
        from repro.runtime.sim import SimBackend

        facts = {
            name: SimBackend(**{name: value}).seeded_workload
            for name, value in {
                "quantum_policy": None, "evaluator": None, "comm": None,
                "max_candidates": None, "failures": [],
                "workload": {}, "execution_model": print,
            }.items()
        }
        assert [name for name, seeded in facts.items() if not seeded] == [
            "workload", "execution_model"
        ]
        report = run_once(
            self.TINY, "rtsads", 7,
            backend=SimBackend(workload={"write_fraction": 0.5}),
        )
        assert report.regret["verdict"] == "unknown"
        crashed = run_once(
            self.TINY, "rtsads", 7, backend=SimBackend(failures=[(1.0, 0)])
        )
        assert crashed.workers_lost == 1
        assert crashed.regret["verdict"] != "unknown"

    @pytest.mark.parametrize("backend", ["cluster", "service"])
    def test_a_live_config_is_refused_not_simulated(self, backend):
        from repro.runtime.sim import SimBackend

        config = replace(self.TINY, backend=backend)
        with pytest.raises(ValueError, match="varies the simulator"):
            run_once(config, "rtsads", 7, backend=SimBackend(failures=[]))

    def test_a_global_comm_model_is_refused_over_domains(self):
        from repro.core.affinity import UniformCommunicationModel
        from repro.runtime.sim import SimBackend

        variant = SimBackend(comm=UniformCommunicationModel(3.0))
        variant.require(self.TINY)
        variant.require(replace(self.TINY, backend="sharded"))
        with pytest.raises(ValueError, match="2 scheduling domains"):
            run_once(self.TINY.with_domains(2), "rtsads", 7, backend=variant)


class TestServiceBackendContract:
    def test_resolves_by_name(self):
        backend = get_backend("service")
        assert isinstance(backend, ExecutionBackend)
        assert backend.name == "service"

    def test_unknown_override_rejected(self):
        """``ClusterConfig`` refuses it before any process is spawned."""
        from repro.runtime.service import ServiceBackend

        with pytest.raises(TypeError, match="bogus_knob"):
            ServiceBackend(bogus_knob=1).run_once(
                ExperimentConfig.quick(runs=1), "rtsads", 1
            )
