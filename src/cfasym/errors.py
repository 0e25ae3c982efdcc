from __future__ import annotations

from typing import NamedTuple, Optional


class DomainError(ValueError):
    """An input violates an operation's domain contract."""


class FoldedFormError(DomainError):
    """A quotient sequence failed to match any of the folded quotient patterns."""


class ViolationRecord(NamedTuple):
    """One failed check of a sweep; a check with no modulus leaves alpha and beta None."""

    alpha: Optional[int]
    beta: Optional[int]
    expansion: Optional[tuple[int, ...]]
    kind: str


# `ok` and `to_json` of both report classes, the verifier's and the enumeration check's
@property
def report_ok(report) -> bool:
    return not report.violations


def report_to_json(report) -> str:
    import json  # kept out of CLI start-up, like random

    return json.dumps(report.to_dict(), sort_keys=True)


def is_int(value) -> bool:
    """An int but not a bool: a count or bound refuses True, though bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_plain(value):
    """Records as dicts of their fields, recursively; tuples and lists keep their type."""
    if hasattr(value, "_fields"):
        return {k: as_plain(v) for k, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return type(value)(as_plain(v) for v in value)
    return value


def render_csv(columns, rows) -> str:
    """The one CSV writer: a header line, then one line per row; a comma in a cell becomes '.'."""
    return "".join(",".join(str(cell).replace(",", ".") for cell in row) + "\n"
                   for row in (columns, *rows))
