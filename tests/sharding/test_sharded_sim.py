"""The ``sharded`` execution backend through the public runner path.

These tests drive ``run_once`` exactly like an experiment cell would —
``config.with_domains(k)`` and nothing else — and pin the properties the
shard-curve leans on: schema parity with the single-master simulator,
clean accounting across domains, and per-(config, seed) determinism.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig, run_once


def _quick(**overrides) -> ExperimentConfig:
    defaults = dict(num_transactions=60, runs=1, num_processors=4)
    defaults.update(overrides)
    return ExperimentConfig.quick(**defaults)


def _comparable(report) -> dict:
    """The schema dict minus the one wall-clock-dependent field."""
    data = report.as_dict()
    data.pop("wall_seconds")
    return data


class TestDispatch:
    def test_domains_above_one_select_the_sharded_backend(self):
        report = run_once(_quick().with_domains(2), "rtsads", 3)
        assert report.backend == "sharded"
        assert report.migration  # section present, even if all zeros

    def test_single_domain_reports_as_the_paper_machine(self):
        """One domain is the k=1 case of the same runtime, not another one:
        it is told apart only by its label and its absent migration
        ledger."""
        report = run_once(_quick(), "rtsads", 3)
        assert report.backend == "sim"
        assert report.migration == {}


class TestSchemaParity:
    def test_sharded_report_schema_matches_sim(self):
        config = _quick()
        sim = run_once(config, "rtsads", 5).as_dict()
        sharded = run_once(config.with_domains(2), "rtsads", 5).as_dict()
        assert sorted(sim) == sorted(sharded)

    def test_assignment_rides_in_extras(self):
        report = run_once(_quick().with_domains(2), "rtsads", 5)
        assignment = report.extras["assignment"]
        assert assignment["num_workers"] == 4
        assert len(assignment["domains"]) == 2


class TestAccounting:
    @pytest.mark.parametrize("domains", [1, 2, 4])
    def test_terminal_states_partition_the_workload(self, domains):
        config = _quick().with_domains(domains)
        report = run_once(config, "rtsads", 11)
        assert report.total_tasks == 60
        assert (
            report.completed + report.expired + report.failed
            == report.total_tasks
        )
        assert report.deadline_hits + report.completed_late == report.completed
        assert report.guaranteed_violations == 0

    def test_migration_section_is_internally_consistent(self):
        # Tight slack at 2 domains produces real offers for this seed.
        config = _quick(
            num_transactions=120, slack_factor=1.5, base_seed=2
        ).with_domains(2)
        report = run_once(config, "rtsads", 2)
        section = report.migration
        assert (
            section["offers"]
            == section["accepted"] + section["declined"] + section["timeouts"]
        )
        assert sum(section["out_by_domain"].values()) == section["offers"]
        assert sum(section["in_by_domain"].values()) == section["accepted"]


class TestDeterminism:
    def test_identical_inputs_reproduce_the_report(self):
        config = _quick(num_transactions=120, slack_factor=1.5).with_domains(2)
        first = run_once(config, "rtsads", 9)
        second = run_once(config, "rtsads", 9)
        assert _comparable(first) == _comparable(second)
        assert first.extras["assignment"] == second.extras["assignment"]

    def test_partition_policy_is_part_of_run_identity(self):
        base = _quick(num_transactions=120, slack_factor=1.5).with_domains(2)
        hashed = run_once(base, "rtsads", 9)
        packed = run_once(
            replace(base, partition_policy="worst-fit"), "rtsads", 9
        )
        # Policies may coincidentally produce the same partition on tiny
        # configs; assert the knob reaches the run rather than equality.
        assert hashed.extras["assignment"]["policy"] == "hash"
        assert packed.extras["assignment"]["policy"] == "worst-fit"
