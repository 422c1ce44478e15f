"""RFC 2254-style search filters.

Supported grammar::

    filter     = "(" ( and / or / not / item ) ")"
    and        = "&" filter+
    or         = "|" filter+
    not        = "!" filter
    item       = attr "=" value        ; equality (case-insensitive)
               | attr "=*"             ; presence
               | attr "=" substring    ; value containing "*" wildcards
               | attr ">=" value       ; ordering (numeric if both parse)
               | attr "<=" value

:func:`parse_filter` compiles the text into a predicate over attribute
dictionaries (attr → list of string values), which the directory server
applies per entry.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

Attrs = Dict[str, List[str]]
Predicate = Callable[[Attrs], bool]


class FilterError(ValueError):
    """Malformed search filter."""


def parse_filter(text: str) -> Predicate:
    """Compile a filter string into a predicate over entry attributes."""
    if not text or not text.strip():
        raise FilterError("empty filter")
    text = text.strip()
    pred, rest = _parse(text)
    if rest.strip():
        raise FilterError(f"trailing garbage after filter: {rest!r}")
    return pred


def _parse(text: str):
    if not text.startswith("("):
        raise FilterError(f"expected '(' at {text[:20]!r}")
    body = text[1:]
    if not body:
        raise FilterError("unterminated filter")
    op = body[0]
    if op == "&" or op == "|":
        preds, rest = _parse_list(body[1:])
        if not preds:
            raise FilterError(f"{op!r} needs at least one subfilter")
        combined = _make_and(preds) if op == "&" else _make_or(preds)
        return combined, _expect_close(rest)
    if op == "!":
        inner, rest = _parse(body[1:])
        return (lambda attrs, p=inner: not p(attrs)), _expect_close(rest)
    return _parse_item(body)


def _parse_list(text: str):
    preds = []
    while text.startswith("("):
        pred, text = _parse(text)
        preds.append(pred)
    return preds, text


def _expect_close(text: str) -> str:
    if not text.startswith(")"):
        raise FilterError(f"expected ')' at {text[:20]!r}")
    return text[1:]


_ITEM = re.compile(r"^([A-Za-z][\w.\-]*)\s*(>=|<=|=)\s*([^()]*)\)")


def _parse_item(body: str):
    m = _ITEM.match(body)
    if m is None:
        raise FilterError(f"malformed item at {body[:30]!r}")
    attr, op, value = m.group(1).lower(), m.group(2), m.group(3).strip()
    rest = body[m.end():]
    if op == "=":
        if value == "*":
            return _make_presence(attr), rest
        if "*" in value:
            return _make_substring(attr, value), rest
        if not value:
            raise FilterError(f"empty value for {attr!r}")
        return _make_equality(attr, value), rest
    if not value:
        raise FilterError(f"empty value for {attr!r}")
    return _make_ordering(attr, op, value), rest


# -- predicate builders ---------------------------------------------------------

def _values(attrs: Attrs, attr: str) -> List[str]:
    return attrs.get(attr, [])


def _make_and(preds):
    def pred(attrs: Attrs) -> bool:
        for p in preds:
            if not p(attrs):
                return False
        return True
    return pred


def _make_or(preds):
    def pred(attrs: Attrs) -> bool:
        for p in preds:
            if p(attrs):
                return True
        return False
    return pred


def _make_presence(attr: str) -> Predicate:
    def pred(attrs: Attrs) -> bool:
        return bool(_values(attrs, attr))
    return pred


def _make_equality(attr: str, value: str) -> Predicate:
    target = value.lower()

    def pred(attrs: Attrs) -> bool:
        for v in attrs.get(attr, ()):
            if v.lower() == target:
                return True
        return False
    return pred


def _make_substring(attr: str, pattern: str) -> Predicate:
    regex = re.compile(
        "^" + ".*".join(re.escape(p) for p in pattern.split("*")) + "$",
        re.IGNORECASE)

    def pred(attrs: Attrs) -> bool:
        return any(regex.match(v) for v in _values(attrs, attr))
    return pred


def _make_ordering(attr: str, op: str, value: str) -> Predicate:
    def compare(v: str) -> bool:
        try:
            left, right = float(v), float(value)
        except ValueError:
            left, right = v.lower(), value.lower()  # lexicographic fallback
        return left >= right if op == ">=" else left <= right

    def pred(attrs: Attrs) -> bool:
        return any(compare(v) for v in _values(attrs, attr))
    return pred
