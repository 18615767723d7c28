"""One grammar for every spec string, and the value parsers the specs share.

Topology (``torus:dims=4x4``), fabric (``hpc:down=0~1,scale=2-3:0.5``),
cluster (``cluster:jobs=4:seed=0``) and fault (``faults:down=0~1@1ms:up@2ms``)
specs are all ``head:field<sep>field...``: ``,``-separated for topology and
fabric, ``:``-separated for cluster and fault specs.  :func:`split_spec` is
the only place fields are split and keys checked; the value parsers below
(links, link scales, times, ``payload@time``, ``target*factor``, bounded
numbers, choices) never accept NaN.  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import math
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

__all__ = ["Field", "split_spec", "number", "choice", "seconds", "at_time",
           "times_factor", "parse_link_set", "parse_link_scales"]

Link = Tuple[int, int]


class Field(NamedTuple):
    """``key=value``, or a bare ``key@time`` whose ``value`` is ``"@time"``."""

    key: str
    value: str
    bare: bool


def split_spec(spec: str, kind: str, sep: str, keys: Mapping[str, Sequence[str]],
               repeatable: Sequence[str] = (), bare: Sequence[str] = ()
               ) -> Tuple[str, List[Field]]:
    """Split ``head:field<sep>field...`` into its lower-cased head and fields.

    ``keys`` maps every accepted head to its accepted keys; ``repeatable``
    keys may appear more than once, and ``bare`` keys may be written
    ``key@time``.  Heads and keys are case-insensitive, and empty fields are
    skipped.  An unknown head, a malformed field, an unknown key or a
    repeated key raises ``ValueError``; key errors name the key, its 1-based
    column, the spec kind and the accepted keys.
    """
    text = str(spec)
    raw_head, colon, rest = text.partition(":")
    head = raw_head.strip().lower()
    if head not in keys:
        raise ValueError(f"unknown {kind} {head!r} in spec {text!r}; expected one of: "
                         + ", ".join(f"{name}:" for name in keys))
    accepted = keys[head]
    where = f"{kind} {head!r}" if len(keys) > 1 else kind
    fields: List[Field] = []
    seen = set()
    column = len(raw_head) + len(colon) + 1
    for item in rest.split(sep):
        item_column = column + len(item) - len(item.lstrip())
        column += len(item) + len(sep)
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq:
            key, at, when = item.partition("@")
            if key.strip().lower() not in bare:
                raise ValueError(f"malformed field {item!r} at column {item_column} of "
                                 f"{where} spec {text!r} (expected key=value)")
            value = at + when
        key = key.strip().lower()
        if key not in accepted or (key in seen and key not in repeatable):
            problem = "unknown" if key not in accepted else "duplicate"
            raise ValueError(f"{problem} parameter {key!r} at column {item_column} of "
                             f"{where} spec {text!r}; accepted keys: {', '.join(accepted)}")
        seen.add(key)
        fields.append(Field(key, value.strip(), not eq))
    return head, fields


def number(text: str, what: str, low: Optional[float] = None, *, strict: bool = False,
           cast=float):
    """Parse ``text`` with ``cast`` (``float`` or ``int``), bounded below by ``low``.

    ``strict`` makes the bound exclusive.  NaN and infinity are rejected.
    """
    try:
        value = cast(text)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"malformed {what} {text!r} (expected {kind})") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {text!r}")
    if low is not None and (value <= low if strict else value < low):
        raise ValueError(f"{what} must be {'>' if strict else '>='} {low:g}, got {value:g}")
    return value


def choice(text: str, what: str, options: Sequence[str]) -> str:
    """``text`` lower-cased, which must be one of ``options``."""
    value = text.strip().lower()
    if value not in options:
        raise ValueError(f"unknown {what} {text!r}; expected one of: {', '.join(options)}")
    return value


_UNITS = (("us", 1e-6), ("ms", 1e-3), ("s", 1.0))    # "s" last: "ms" ends in "s"


def seconds(text: str) -> float:
    """A finite time >= 0 in seconds; ``s``, ``ms`` and ``us`` suffixes scale it."""
    digits, scale = text.strip().lower(), 1.0
    for suffix, mult in _UNITS:
        if digits.endswith(suffix):
            digits, scale = digits[: -len(suffix)], mult
            break
    return number(digits, "time", 0.0) * scale


def at_time(text: str, what: str) -> Tuple[str, float]:
    """Split ``payload@time`` (exactly one ``@``) into the payload and its seconds."""
    payload, at, when = text.partition("@")
    if not at or "@" in when:
        raise ValueError(f"{what} {text!r} needs exactly one @<time>")
    return payload.strip(), seconds(when)


def times_factor(text: str, what: str) -> Tuple[str, float]:
    """Split ``target*factor`` (exactly one ``*``) into the target and a factor > 0."""
    target, star, factor = text.partition("*")
    if not star or "*" in factor:
        raise ValueError(f"{what} {text!r} needs exactly one *<factor>")
    return target.strip(), number(factor, f"{what} factor", 0.0, strict=True)


def parse_link_set(value: str) -> Tuple[Link, ...]:
    """Parse a ``u-v|u-v|...`` link list (``u~v`` adds both directions)."""
    links = []
    for token in value.split("|"):
        token = token.strip()
        if not token:
            continue
        symmetric = "~" in token
        parts = token.split("~" if symmetric else "-")
        if len(parts) != 2:
            raise ValueError(f"malformed link token {token!r} (expected u-v or u~v)")
        u, v = (number(part, "link endpoint", cast=int) for part in parts)
        links.append((u, v))
        if symmetric:
            links.append((v, u))
    return tuple(links)


def parse_link_scales(value: str) -> Tuple[Tuple[Link, float], ...]:
    """Parse a ``u-v:factor|...`` scaled-link list (``u~v:factor`` = both directions)."""
    scales = []
    for token in value.split("|"):
        token = token.strip()
        if not token:
            continue
        if ":" not in token:
            raise ValueError(f"malformed scale token {token!r} (expected u-v:factor)")
        link_part, factor_part = token.rsplit(":", 1)
        factor = number(factor_part, "link scale factor", 0.0, strict=True)
        scales.extend((edge, factor) for edge in parse_link_set(link_part))
    return tuple(scales)
