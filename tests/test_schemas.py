"""Every CLI payload must validate against its versioned schema."""

import argparse
import json
from pathlib import Path

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from bch3 import cli

SCHEMA_DIR = Path(__file__).parent.parent / "docs" / "schemas" / "v1"

COMMANDS = {
    "field": ["field", "--m", "5"],
    "nab": ["nab", "--m", "5", "--tr-a", "1", "--b", "0x02"],
    "table": ["table", "--m", "5"],
    "bounds": ["bounds", "--m", "9"],
    "gamma": ["gamma", "--m", "13"],
    "traces": ["traces", "--m", "5", "--b", "0x00"],
    "split": ["split", "--m", "5", "--b", "0x00", "--subset", "f1f2"],
    "verify": ["verify", "--m", "5", "--exhaustive"],
    "covering-radius": ["covering-radius", "--m", "4"],
}


def test_every_command_has_a_payload_case():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(COMMANDS) == set(sub.choices)


def _registry() -> Registry:
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.schema.json"):
        resource = Resource.from_contents(json.loads(path.read_text()))
        registry = resource @ registry  # registered under its $id
    return registry


def _validator(name: str) -> Draft7Validator:
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    return Draft7Validator(schema, registry=_registry())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_payload_validates(command, capsys):
    assert cli.main(COMMANDS[command]) == 0
    report = json.loads(capsys.readouterr().out)
    _validator("envelope").validate(report)
    _validator(command).validate(report["payload"])


def test_single_class_traces_also_validates(capsys):
    assert cli.main(["traces", "--m", "5", "--b", "0x00", "--tr-a", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    _validator("traces").validate(report["payload"])


def test_closed_form_covering_radius_also_validates(capsys):
    assert cli.main(["covering-radius", "--m", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["method"] == "closed_form"
    _validator("covering-radius").validate(report["payload"])
