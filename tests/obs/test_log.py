"""Structured-logging bridge tests (repro.obs.log)."""

import io
import json
import logging

import pytest

from repro.obs.log import (
    ROOT_LOGGER,
    HumanFormatter,
    JsonFormatter,
    configure_logging,
    get_logger,
)


@pytest.fixture(autouse=True)
def _clean_handlers():
    """Leave the repro logger hierarchy the way the session had it."""
    root = logging.getLogger(ROOT_LOGGER)
    saved = (list(root.handlers), root.level, root.propagate)
    yield
    root.handlers[:] = saved[0]
    root.setLevel(saved[1])
    root.propagate = saved[2]


class TestGetLogger:
    def test_prefixes_short_names(self):
        assert get_logger("runner").name == "repro.runner"

    def test_keeps_full_names(self):
        assert get_logger("repro.parallel").name == "repro.parallel"

    def test_root(self):
        assert get_logger().name == "repro"


class TestJsonFormatter:
    def test_one_object_per_line_with_extras(self):
        stream = io.StringIO()
        configure_logging("info", json_output=True, stream=stream)
        log = get_logger("test")
        log.info("first", extra={"experiment": "table1", "attempt": 2})
        log.warning("second")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["message"] == "first"
        assert first["level"] == "info"
        assert first["logger"] == "repro.test"
        assert first["experiment"] == "table1"
        assert first["attempt"] == 2
        assert second["level"] == "warning"

    def test_nonserializable_extra_degrades_to_str(self):
        record = logging.LogRecord(
            "repro.t", logging.INFO, __file__, 1, "msg", (), None
        )
        record.graph = object()
        payload = json.loads(JsonFormatter().format(record))
        assert isinstance(payload["graph"], str)

    def test_exception_info_included(self):
        stream = io.StringIO()
        configure_logging("error", json_output=True, stream=stream)
        try:
            raise ValueError("boom")
        except ValueError:
            get_logger("test").error("failed", exc_info=True)
        payload = json.loads(stream.getvalue())
        assert "ValueError: boom" in payload["exc_info"]


class TestHumanFormatter:
    def test_appends_sorted_key_value_fields(self):
        record = logging.LogRecord(
            "repro.t", logging.WARNING, __file__, 1, "retrying", (), None
        )
        record.experiment = "table1"
        record.attempt = 2
        line = HumanFormatter().format(record)
        assert "retrying" in line
        assert line.endswith("[attempt=2 experiment=table1]")

    def test_plain_message_without_extras(self):
        record = logging.LogRecord(
            "repro.t", logging.INFO, __file__, 1, "hello", (), None
        )
        assert "[" not in HumanFormatter().format(record)


class TestConfigureLogging:
    def test_idempotent_single_handler(self):
        configure_logging("info", stream=io.StringIO())
        configure_logging("info", stream=io.StringIO())
        root = logging.getLogger(ROOT_LOGGER)
        bridges = [
            h for h in root.handlers if getattr(h, "_repro_bridge", False)
        ]
        assert len(bridges) == 1

    def test_level_filtering(self):
        stream = io.StringIO()
        configure_logging("warning", stream=stream)
        log = get_logger("test")
        log.info("hidden")
        log.warning("shown")
        assert "hidden" not in stream.getvalue()
        assert "shown" in stream.getvalue()

    def test_numeric_level_accepted(self):
        handler = configure_logging(logging.DEBUG, stream=io.StringIO())
        assert logging.getLogger(ROOT_LOGGER).level == logging.DEBUG
        assert handler.formatter.__class__ is HumanFormatter

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    def test_runner_retry_event_is_structured(self):
        """The runner's retry path emits parseable structured fields."""
        from repro.experiments.runner import _attempt_experiment

        stream = io.StringIO()
        configure_logging("warning", json_output=True, stream=stream)
        outcome, failure, elapsed, counters = _attempt_experiment(
            "definitely-not-an-experiment",
            None,
            retries=1,
            timeout=None,
            backoff_base=0.0,
            backoff_cap=0.0,
            seed=0,
            sleep=lambda _s: None,
        )
        assert outcome is None and failure is not None
        assert counters == {}  # a failure is never recorded, so counts none
        lines = [json.loads(l) for l in stream.getvalue().strip().splitlines()]
        retry = next(l for l in lines if "retrying" in l["message"])
        assert retry["experiment"] == "definitely-not-an-experiment"
        assert retry["attempt"] == 1
        exhausted = next(l for l in lines if "exhausted" in l["message"])
        assert exhausted["attempts"] == 2
