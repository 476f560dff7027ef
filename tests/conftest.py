import json

import pytest

import oscconv._shares


class ProcessLog:
    """A log that a test process and every share it forks append to: one JSON line an item."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def append(self, item) -> None:
        # one short O_APPEND write per item: lines from several processes do not interleave
        with open(self.path, "a") as fh:
            fh.write(json.dumps(item) + "\n")

    def pop(self) -> list:
        """The items appended since the last pop, in the order they were written."""
        items = [json.loads(line) for line in self.path.read_text().splitlines()]
        self.path.write_text("")
        return items


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "process_log.jsonl")


@pytest.fixture
def use_cpus(monkeypatch):
    """Set the CPU count that work is split by, for the rest of the test."""

    def use(count: int) -> None:
        monkeypatch.setattr(oscconv._shares, "cpus", lambda: count)

    return use
