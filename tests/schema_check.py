"""Validate CLI JSON payloads against the schemas shipped as package data
(`spinhalg/schemas/*.json`), with `jsonschema` under draft 2020-12.

The draft's `integer` also accepts a float with no fractional part, such
as 8.0; here `integer` means a JSON integer only, and never a boolean."""

import json
from importlib import resources

from jsonschema import Draft202012Validator, ValidationError, validators

SchemaError = ValidationError

_Validator = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer",
        lambda _, instance: isinstance(instance, int) and not isinstance(instance, bool)))


def load_schema(name: str) -> dict:
    """Load a shipped schema by bare name, e.g. 'hp_table', and check that
    it is itself a valid schema."""
    schema = json.loads((resources.files("spinhalg") / "schemas" / f"{name}.json").read_text())
    _Validator.check_schema(schema)
    return schema


def validate(instance, schema: dict) -> None:
    """Raise SchemaError when the instance does not match the schema."""
    _Validator(schema).validate(instance)
