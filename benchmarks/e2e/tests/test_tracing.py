"""Span arithmetic and the wrappers' robustness to renamed callables."""

import sys
import types

import pytest

from tracing import Tracer, install, locate, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def tick(seconds):
        clock.now += seconds

    def leaf():
        tick(2.0)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        tick(1.0)
        leaf()
        tick(0.5)

    middle = tracer.wrap("middle", middle)

    def root():
        tick(0.25)
        middle()      # 3.5 s, of which 2 s in leaf
        leaf()        # sibling of middle: 2 s
        tick(0.25)

    tracer.wrap("root", root, new_rep=True)()
    times = self_times(tracer.spans)
    assert times["root"] == {"calls": 1, "total": 6.0, "self": 0.5}
    assert times["middle"] == {"calls": 1, "total": 3.5, "self": 1.5}
    assert times["leaf"] == {"calls": 2, "total": 4.0, "self": 4.0}
    # Self times partition the root's duration exactly.
    assert sum(entry["self"] for entry in times.values()) == 6.0
    # Every span caused by the root shares its repetition id.
    assert {span[4] for span in tracer.spans} == {1}


def test_span_is_closed_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    with tracer.span("after"):
        pass
    assert [span[3] for span in tracer.spans] == [-1, -1]
    assert all(span[2] is not None for span in tracer.spans)


def test_take_starts_recording_over():
    tracer = Tracer(FakeClock())
    with tracer.span("first"):
        pass
    assert [span[0] for span in tracer.take()] == ["first"]
    with tracer.span("second"):
        pass
    assert [span[0] for span in tracer.spans] == ["second"]


@pytest.fixture
def fake_package():
    """A package whose function is also bound, by reference, elsewhere."""
    package = types.ModuleType("e2efake")
    defining = types.ModuleType("e2efake.defining")
    user = types.ModuleType("e2efake.user")

    def work(x):
        return x + 1

    class Thing:
        @classmethod
        def build(cls, x):
            return cls, x

        def method(self, x):
            return x * 2

    defining.work = work
    defining.Thing = Thing
    user.renamed_import = work          # from .defining import work as ...
    user.call = lambda x: user.renamed_import(x)
    modules = {
        "e2efake": package,
        "e2efake.defining": defining,
        "e2efake.user": user,
    }
    sys.modules.update(modules)
    yield defining, user
    for name in modules:
        del sys.modules[name]


def test_install_replaces_every_binding_and_reports_missing_names(fake_package):
    defining, user = fake_package
    tracer = Tracer(FakeClock())
    missing = install(
        tracer,
        [
            ("e2efake.defining.work", "work", {}),
            ("e2efake.defining.Thing.build", "build", {}),
            ("e2efake.defining.Thing.method", "method", {}),
            ("e2efake.defining.renamed_away", "gone", {}),
            ("e2efake.defining.Thing.no_such_method", "gone", {}),
            ("e2efake.no_such_module.f", "gone", {}),
        ],
        package="e2efake",
    )
    assert missing == [
        "e2efake.defining.renamed_away",
        "e2efake.defining.Thing.no_such_method",
        "e2efake.no_such_module.f",
    ]
    assert user.call(1) == 2                      # through the copied binding
    assert defining.work(1) == 2
    assert defining.Thing.build(3) == (defining.Thing, 3)   # still a classmethod
    assert defining.Thing().method(4) == 8
    assert [span[0] for span in tracer.spans] == [
        "work", "work", "build", "method",
    ]


def test_locate_walks_from_module_to_method():
    owner, attr = locate("repro.runtime.driver.PhaseDriver.open_phase")
    assert owner.__name__ == "PhaseDriver" and attr == "open_phase"
    with pytest.raises((ImportError, AttributeError)):
        locate("repro.runtime.driver.PhaseDriver.renamed")


def test_every_layer_target_resolves_on_this_tree():
    # A refactor that renames one of these makes its layer read 0 and lists
    # the name under trace_missing; this test says so at review time.
    from layers import RunCounts, targets

    tracer = Tracer()
    for dotted, _name, _options in targets(tracer, RunCounts()):
        locate(dotted)
