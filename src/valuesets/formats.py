"""File formats: function tables, polynomial specs, Cayley tables, subsets,
and code-assignment files."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .energy import GroupSpec
from .functable import FunctionTable
from .gf import FieldPoly, field_build


# Largest q of a field built from outside input: a polynomial spec, or the
# field and verify-lemma --q arguments of the CLI.  Condition scans and the
# average lemma take O(q^2) steps per polynomial (tens of seconds near the
# limit), and the carry-free addition list of GF(p^k) has (2p - 1)^k entries.
FIELD_LIMIT = 10_000


class InputFormatError(ValueError):
    """Malformed input file."""


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text()


def read_input(path) -> tuple[io.TextIOWrapper, str]:
    """The file at path read once: a text stream over its bytes, decoded as
    Path.read_text decodes them, and their SHA-256 hex digest.  The stream
    carries the path as its name, so a loader given it picks the format the
    path would pick.  A pipe or FIFO is read like a regular file."""
    data = Path(path).read_bytes()
    raw = io.BytesIO(data)
    raw.name = str(path)
    return io.TextIOWrapper(raw), hashlib.sha256(data).hexdigest()


def _csv_rows(text: str) -> list[list[str]]:
    """The CSV rows of text that hold a non-blank cell.  A CSV syntax error,
    such as a cell over the csv module's field size limit, is an
    InputFormatError."""
    try:
        return [row for row in csv.reader(io.StringIO(text)) if any(map(str.strip, row))]
    except csv.Error as exc:
        raise InputFormatError(f"invalid CSV: {exc}") from exc


# The first character of an inline JSON argument, per kind of input.
_JSON_OPENERS = {"polynomial spec": "{", "subset": "["}


def is_inline(source: str, what: str) -> bool:
    """Whether a JSON argument of kind what (a key of _JSON_OPENERS) is the
    JSON itself: it starts, after blanks, with that kind's opener.  Any
    other argument is a file path."""
    return source.lstrip().startswith(_JSON_OPENERS[what])


def _json(text: str, what: str):
    """The JSON value of text, an input of kind what.  Malformed text, or
    nesting deeper than the decoder's recursion admits, is an
    InputFormatError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFormatError(f"invalid {what} JSON: {exc}") from exc


def _inline_or_file(source, what: str):
    """The JSON value of source: source itself when it is inline, else the
    file at that path, or the text of a stream."""
    text = source if isinstance(source, str) and is_inline(source, what) else _read_text(source)
    return _json(text, what)


def load_function_table(source) -> FunctionTable:
    """Load a FunctionTable from JSON ({"domain_size": n, "values": [...]})
    or two-column CSV rows x,f(x) with x = 0..n-1 each appearing once.  The
    format follows the file extension, else the content."""
    text = _read_text(source)
    name = str(getattr(source, "name", "")) if hasattr(source, "read") else str(source)
    if name.endswith(".json") or (
        not name.endswith(".csv") and text.lstrip().startswith("{")
    ):
        obj = _json(text, "function table")
        if not isinstance(obj, dict) or "domain_size" not in obj or "values" not in obj:
            raise InputFormatError('JSON table needs keys "domain_size" and "values"')
        try:
            return FunctionTable(obj["domain_size"], tuple(obj["values"]))
        except (TypeError, ValueError) as exc:
            raise InputFormatError(str(exc)) from exc
    return _function_table_from_csv(text)


def _function_table_from_csv(text: str) -> FunctionTable:
    rows = _csv_rows(text)
    if rows and all(_int_cells((cell,)) is None for cell in rows[0]):
        del rows[0]  # a header line: none of its cells is an integer
    if not rows:
        raise InputFormatError("CSV table has no data rows")
    seen: dict[int, int] = {}
    for row in rows:
        ints = _int_cells(row)
        if ints is None or len(ints) != 2:
            raise InputFormatError(f"expected two integer columns, got {row!r}")
        x, fx = ints
        if x in seen:
            raise InputFormatError(f"domain point {x} appears twice")
        seen[x] = fx
    n = len(seen)
    if sorted(seen) != list(range(n)):
        raise InputFormatError("domain points must be exactly 0..n-1")
    return FunctionTable(n, tuple(seen[x] for x in range(n)))


def _int_cells(row) -> tuple[int, ...] | None:
    """The row's cells as integers, or None if any cell is not one."""
    try:
        return tuple(map(int, row))
    except ValueError:
        return None


def save_function_table(table: FunctionTable, path) -> None:
    """Write table as its dict (function_table_to_dict) in indented JSON
    (dumps_indented) plus a newline."""
    Path(path).write_text(dumps_indented(function_table_to_dict(table)) + "\n")


def function_table_to_dict(table: FunctionTable) -> dict:
    return {"domain_size": table.domain_size, "values": list(table.values)}


def dumps_indented(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, with the
    common shapes written at C level: dicts with str keys and non-empty
    lists recurse, a list of plain ints is one join, strings go through the
    C string encoder, and ints, bools and None are written directly.  Any
    other value (floats, tuples, non-str keys, int subclasses) is left to
    json.dumps and re-indented; JSON text holds no raw newline, so adding
    the indent after each one is exact."""
    return _dumps_indented(value, "\n")


def _dumps_indented(value, nl: str) -> str:
    """dumps_indented of a value whose first line starts after nl, a
    newline plus that line's indent."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = nl + "  "
    if kind is dict and value and {str}.issuperset(map(type, value)):
        items = [encode_basestring_ascii(k) + ": " + _dumps_indented(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if kind is list and value:
        if {int}.issuperset(map(type, value)):
            items = map(int.__repr__, value)
        else:
            items = [_dumps_indented(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _json_ints(value, what: str) -> list[int]:
    """value itself if it is a JSON array of integers (no bools, floats or
    strings)."""
    if not isinstance(value, list):
        raise InputFormatError(f"{what} must be a JSON array of integers")
    for v in value:
        if type(v) is not int:
            raise InputFormatError(f"{what} must hold integers only, got {v!r}")
    return value


def check_field_size(p: int, k: int) -> None:
    """Refuse GF(p^k) when p^k > FIELD_LIMIT, before anything is built or p
    is tested for primality.  A large k is refused without computing p^k:
    for p >= 2, p^k >= 2^k > FIELD_LIMIT once k reaches its bit length."""
    if p >= 2 and k >= 1 and (k >= FIELD_LIMIT.bit_length() or p**k > FIELD_LIMIT):
        name = f"GF({p})" if k == 1 else f"GF({p}^{k})"
        raise InputFormatError(f"{name} is above the field-size limit q <= {FIELD_LIMIT}")


def parse_poly_spec(obj: dict) -> FieldPoly:
    """Polynomial spec: {"p": 3, "k": 2, "modulus": [...], "coeffs": [...]}
    with the modulus optional (canonical used when absent) and little-endian
    including its leading 1.  A field above FIELD_LIMIT is refused before it
    is built."""
    if not isinstance(obj, dict):
        raise InputFormatError("polynomial spec must be a JSON object")
    p, k = obj.get("p"), obj.get("k", 1)
    if type(p) is not int or type(k) is not int:
        raise InputFormatError(f'polynomial spec needs integer "p" and "k", got {p!r}, {k!r}')
    check_field_size(p, k)
    coeffs = _json_ints(obj.get("coeffs"), '"coeffs"')
    modulus = obj.get("modulus")
    if modulus is not None:
        modulus = _json_ints(modulus, '"modulus"')
    try:
        spec = field_build(p, k, modulus)
        return FieldPoly(spec, coeffs)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def load_poly(source: str) -> FieldPoly:
    """Polynomial spec from a file path or an inline JSON object string."""
    return parse_poly_spec(_inline_or_file(source, "polynomial spec"))


def load_cayley_csv(source) -> GroupSpec:
    """Group from an n x n CSV of element indices (row i, column j holds i*j)."""
    rows = _csv_rows(_read_text(source))
    try:
        table = [[int(c) for c in row] for row in rows]
    except ValueError as exc:
        raise InputFormatError(f"Cayley table entries must be integers: {exc}") from exc
    return GroupSpec.from_cayley(table)


def load_subset(source: str) -> list[int]:
    """Subset as a JSON index array, from a file path or inline string."""
    return _json_ints(_inline_or_file(source, "subset"), "subset")


def load_code_assignment(source) -> tuple[FunctionTable, list[str], list[str]]:
    """Code-assignment CSV of (codeword, message) rows.

    Returns the assignment as a FunctionTable (messages relabelled to dense
    integers in first-seen order) plus the codeword and message label lists.
    """
    rows = _csv_rows(_read_text(source))
    if not rows:
        raise InputFormatError("code assignment has no rows")
    labels: dict[str, int] = {}  # codeword -> message label, in row order
    message_ids: dict[str, int] = {}  # message -> label, first-seen order
    for row in rows:
        if len(row) != 2:
            raise InputFormatError(f"expected codeword,message rows, got {row!r}")
        codeword, message = row[0].strip(), row[1].strip()
        if codeword in labels:
            raise InputFormatError(f"duplicate codeword {codeword!r}")
        labels[codeword] = message_ids.setdefault(message, len(message_ids))
    return FunctionTable(len(labels), tuple(labels.values())), list(labels), list(message_ids)
