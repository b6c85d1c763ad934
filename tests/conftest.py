"""Checks shared by every test module."""

import json

import pytest

from quivercalc import cli


@pytest.fixture(autouse=True)
def json_writer_matches_json_dumps(monkeypatch):
    """Every payload that cli.main encodes during a test is encoded by
    json.dumps too, and the two texts must be equal."""
    writer = cli._json_text

    def checked(value):
        text = writer(value)
        assert text == json.dumps(value, sort_keys=True, indent=2)
        return text
    monkeypatch.setattr(cli, "_json_text", checked)
