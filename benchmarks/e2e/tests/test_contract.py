"""BENCHMARK.json stays inside the limits its consumers enforce."""

import re

from common import SERVE_WORKLOAD, SIM_WORKLOADS, load_contract

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_contract_shape():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 1 <= contract["run_seconds"] <= 60
    workloads = [w["name"] for w in contract["workloads"]]
    assert workloads == [*SIM_WORKLOADS, SERVE_WORKLOAD]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    names = workloads + [
        m["name"] for m in contract["end_to_end"] + contract["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
