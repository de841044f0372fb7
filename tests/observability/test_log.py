"""Tests for the structured logger: levels, binding, formatting."""

import io

import pytest

from repro.observability import (
    DEBUG,
    INFO,
    OFF,
    WARNING,
    StructuredLogger,
    parse_level,
)


def make_logger(level="info", **kwargs):
    stream = io.StringIO()
    return StructuredLogger(level=level, stream=stream, **kwargs), stream


class TestLevels:
    def test_parse_level_accepts_names_and_ints(self):
        assert parse_level("debug") == DEBUG
        assert parse_level("INFO") == INFO
        assert parse_level("off") == OFF
        assert parse_level(WARNING) == WARNING

    def test_parse_level_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_level("chatty")

    def test_records_below_level_are_dropped(self):
        logger, stream = make_logger(level="warning")
        logger.info("hidden")
        logger.warning("shown")
        output = stream.getvalue()
        assert "hidden" not in output
        assert "shown" in output

    def test_off_silences_everything(self):
        logger, stream = make_logger(level=OFF)
        logger.error("still hidden")
        assert stream.getvalue() == ""


class TestFormatting:
    def test_line_carries_level_name_and_fields(self):
        logger, stream = make_logger(name="repro.test")
        logger.info("phase done", scheduler="rtsads", hit=91.25)
        line = stream.getvalue().strip()
        assert " INFO repro.test phase done " in line
        assert "scheduler=rtsads" in line
        assert "hit=91.25" in line

    def test_values_with_spaces_are_quoted(self):
        logger, stream = make_logger()
        logger.info("msg", note="two words")
        assert "note='two words'" in stream.getvalue()


class TestBinding:
    def test_bound_context_appears_on_every_record(self):
        logger, stream = make_logger()
        child = logger.bind(scheduler="dcols", seed=7)
        child.info("repetition done")
        line = stream.getvalue()
        assert "scheduler=dcols" in line
        assert "seed=7" in line

    def test_call_fields_override_bound_context(self):
        logger, stream = make_logger()
        child = logger.bind(phase=1)
        child.info("msg", phase=2)
        assert "phase=2" in stream.getvalue()
        assert "phase=1" not in stream.getvalue()

    def test_set_level_propagates_across_bind_tree(self):
        logger, stream = make_logger(level="warning")
        child = logger.bind(scheduler="rtsads")
        child.debug("hidden")
        logger.set_level("debug")
        # The child was created before the level change and still sees it.
        child.debug("now visible")
        output = stream.getvalue()
        assert "hidden" not in output
        assert "now visible" in output
