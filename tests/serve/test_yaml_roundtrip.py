"""Round-trip property test for the scenario files' mini-YAML parser.

Scenario and policy files reach the program through
``parse_simple_yaml``, so it is the serving layer's input boundary.
Generated nested mappings (ints, floats, bools, null, plain and quoted
strings, inline, nested-inline and block lists) are emitted as YAML by
a test-local emitter and must parse back to the same value, types
included.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.scenario import parse_simple_yaml


class Block(list):
    """A list the emitter writes as ``- item`` lines, not ``[a, b]``."""


_PLAIN = re.compile(r"[A-Za-z_][A-Za-z0-9_.+-]*( [A-Za-z0-9_.+-]+)*")
_RESERVED = {"null", "None", "true", "True", "false", "False"}

keys = st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True)
plain_strings = st.from_regex(_PLAIN, fullmatch=True).filter(
    lambda s: s not in _RESERVED)
# Any one-line text: no control characters or line separators (the
# parser splits lines with str.splitlines) and not both quote kinds,
# so one of them can delimit it.
quoted_strings = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
    max_size=12).filter(lambda s: not ('"' in s and "'" in s))
scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False)
           | plain_strings | quoted_strings)
inline_lists = st.lists(
    st.recursive(scalars, lambda inner: st.lists(inner, max_size=3),
                 max_leaves=8), max_size=4)
block_lists = st.lists(scalars | inline_lists, min_size=1,
                       max_size=4).map(Block)
values = st.recursive(
    scalars | inline_lists | block_lists,
    lambda children: st.dictionaries(keys, children, max_size=4),
    max_leaves=12)
documents = st.dictionaries(keys, values, min_size=1, max_size=5)


def _inline(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    if _PLAIN.fullmatch(value) and value not in _RESERVED:
        return value
    quote = "'" if '"' in value else '"'
    return f"{quote}{value}{quote}"


def _emit(mapping: dict, indent: int = 0) -> list:
    pad, lines = " " * indent, []
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines += _emit(value, indent + 2)
        elif isinstance(value, Block):
            lines.append(f"{pad}{key}:")
            lines += [f"{pad}  - {_inline(item)}" for item in value]
        else:
            lines.append(f"{pad}{key}: {_inline(value)}")
    return lines


def _same(a, b) -> bool:
    """Equality that also tells 1 from 1.0 and True, and lists from
    mappings."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            _same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@settings(max_examples=300, deadline=None)
@given(documents)
# Shrunk counterexamples of the comma-splitting inline-list parser.
@example({"_": [[None, None]]})
@example({"a": ["a, b", "c"]})
def test_emitted_documents_parse_back_to_the_same_value(doc):
    text = "\n".join(_emit(doc)) + "\n"
    assert _same(doc, parse_simple_yaml(text)), text
