"""Flat-file serialization of game states.

Format (version 1), one state per file:

    pcg-state v1
    n 5
    alpha 3/2
    beta inf
    buys 0 : 1 2
    buys 1 :
    ...

Exactly one ``buys`` line per player, ascending.  Rationals are written in
lowest terms with positive denominator (integers print bare); the infinite
penalty prints as ``inf``.  ``parse_state(serialize_state(s, p))`` returns
``(s, p)`` exactly.  A report of many states of one game uses one
:func:`state_writer`, which formats the header and each distinct ``buys``
line once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import getitem
from typing import BinaryIO, Callable, TextIO, Tuple, Union

from .game import RATIONAL_DIGITS, Cost, GameParams, StrategyVector, as_alpha, as_beta, check_players, is_infinite

HEADER = "pcg-state v1"


class StateParseError(ValueError):
    """Malformed or invalid state file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_value(value: Cost) -> str:
    """Canonical text for a rational or the infinite penalty."""
    if is_infinite(value):
        return "inf"
    return str(Fraction(value))


class _BuysLines(dict):
    """One player's ``buys`` lines by target set, each formatted on first use."""

    def __init__(self, player: int):
        super().__init__()
        self.player = player

    def __missing__(self, targets: frozenset) -> str:
        line = self[targets] = targets_line(f"buys {self.player}", targets) + "\n"
        return line


def targets_line(prefix: str, targets) -> str:
    """``prefix :`` and then `` t`` for each target, ascending: a ``buys`` line or a witness's strategy."""
    # int(): a target equal to 1 must print as 1 whatever its type
    return f"{prefix} :" + "".join(f" {int(t)}" for t in sorted(targets))


def state_writer(params: GameParams) -> Callable[[StrategyVector], str]:
    """A serializer for many states of one game.

    The header is formatted once, and each ``buys`` line once per (player,
    target set), so a report of thousands of states on a few hundred graphs
    formats each distinct line once.  Every state is still checked against
    the game's player count.
    """
    header = f"{HEADER}\nn {params.n}\nalpha {format_value(params.alpha)}\nbeta {format_value(params.beta)}\n"
    lines = [_BuysLines(i) for i in range(params.n)]

    def write(state: StrategyVector) -> str:
        check_players(state, params)
        return header + "".join(map(getitem, lines, state.strategies))

    return write


def serialize_state(state: StrategyVector, params: GameParams) -> str:
    """The file text of one state; see :func:`state_writer` for many."""
    return state_writer(params)(state)


def parse_state(text: Union[str, bytes, TextIO, BinaryIO]) -> Tuple[StrategyVector, GameParams]:
    """Parse a v1 state file; raises :class:`StateParseError` with a line number.

    Bytes are decoded as UTF-8; a byte that does not decode is reported on
    its line.
    """
    if not isinstance(text, (str, bytes)):
        text = text.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = text[: exc.start].decode("utf-8")
            line = before.count("\n") + 1
            raise StateParseError(line, f"not UTF-8: byte {text[exc.start]:#04x}") from None
    # lines end at "\n" only (str.splitlines also breaks at \x1c, \x85, \u2028, ...)
    raw_lines = [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]
    # trailing blank lines are tolerated, interior ones are not
    while raw_lines and not raw_lines[-1].strip():
        raw_lines.pop()
    if not raw_lines:
        raise StateParseError(1, "empty input")
    if raw_lines[0].strip() != HEADER:
        raise StateParseError(1, f"expected header {HEADER!r}, got {raw_lines[0]!r}")

    n = _digits(_header_field(raw_lines, 2, "n").strip(), 2, "value of n")
    if n < 2:
        raise StateParseError(2, f"n must be >= 2, got {n}")
    alpha = _parse_header_value(raw_lines, 3, "alpha", as_alpha)
    beta = _parse_header_value(raw_lines, 4, "beta", as_beta)

    expected = 4 + n
    if len(raw_lines) != expected:
        raise StateParseError(
            min(len(raw_lines), expected) + 1,
            f"expected {n} buys lines (file of {expected} lines), got {len(raw_lines) - 4}",
        )
    strategies = []
    for i in range(n):
        lineno = 5 + i
        line = raw_lines[4 + i].strip()
        head, sep, tail = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "buys" or not sep:
            raise StateParseError(lineno, f"expected 'buys {i} : ...', got {line!r}")
        player = _digits(parts[1], lineno, "player id")
        if player != i:
            raise StateParseError(lineno, f"buys lines must be ascending: expected player {i}, got {player}")
        targets = []
        for token in tail.split():
            t = _digits(token, lineno, "target")
            if not 0 <= t < n:
                raise StateParseError(lineno, f"target {t} out of range 0..{n - 1}")
            if t == i:
                raise StateParseError(lineno, f"player {i} cannot buy a link to itself")
            if t in targets:
                raise StateParseError(lineno, f"duplicate target {t}")
            targets.append(t)
        strategies.append(frozenset(targets))
    return StrategyVector(tuple(strategies)), GameParams(n=n, alpha=alpha, beta=beta)


def _digits(token: str, lineno: int, what: str) -> int:
    """``token`` as a number of ASCII digits (int() also takes signs, '_' and other scripts' digits)."""
    if not (token.isascii() and token.isdigit()) or len(token) > RATIONAL_DIGITS:
        raise StateParseError(lineno, f"bad {what} {token!r:.80}")
    return int(token)


def _parse_header_value(lines: list, lineno: int, key: str, convert) -> Cost:
    value = _header_field(lines, lineno, key)
    try:
        return convert(value.strip())
    except ValueError as exc:
        # a range error names the price itself; a parse error gets the key
        raise StateParseError(lineno, str(exc) if str(exc).startswith(key) else f"{key}: {exc}") from None


def _header_field(lines: list, lineno: int, key: str) -> str:
    if len(lines) < lineno:
        raise StateParseError(lineno, f"missing {key!r} line")
    parts = lines[lineno - 1].split(None, 1)
    if len(parts) != 2 or parts[0] != key:
        raise StateParseError(lineno, f"expected '{key} <value>', got {lines[lineno - 1]!r}")
    return parts[1]
