"""State file grammar: canonical serialization, exact round trips, line-numbered errors."""

import io
import random
from fractions import Fraction as F

import pytest

from pcg.game import INFINITE, GameParams, StrategyVector, random_state
from pcg.stateio import StateParseError, format_value, parse_state, serialize_state


def test_minimal_empty_file():
    text = "pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 :\nbuys 1 :\n"
    state, params = parse_state(text)
    assert state.strategies == (frozenset(), frozenset())
    assert params == GameParams(2, F(1), F(2))


def test_serialize_empty_n3():
    params = GameParams(3, F(1), F(2))
    state = StrategyVector((frozenset(),) * 3)
    assert serialize_state(state, params) == (
        "pcg-state v1\nn 3\nalpha 1\nbeta 2\nbuys 0 :\nbuys 1 :\nbuys 2 :\n"
    )


def test_rationals_emitted_in_lowest_terms():
    params = GameParams(2, F(6, 4), F(10, 4))
    out = serialize_state(StrategyVector((frozenset(),) * 2), params)
    assert "alpha 3/2" in out
    assert "beta 5/2" in out


def test_beta_inf_round_trip():
    params = GameParams(2, F(1), INFINITE)
    out = serialize_state(StrategyVector((frozenset({1}), frozenset())), params)
    assert "beta inf" in out
    state, back = parse_state(out)
    assert back.is_ncg
    assert state.strategies[0] == frozenset({1})


def test_round_trip_random_states():
    rng = random.Random(1234)
    for _ in range(500):
        n = rng.randrange(2, 8)
        params = GameParams(
            n, F(rng.randrange(1, 40), rng.randrange(1, 12)),
            INFINITE if rng.random() < 0.2 else 1 + F(rng.randrange(1, 30), rng.randrange(1, 9)),
        )
        state = random_state(n, rng)
        text = serialize_state(state, params)
        state2, params2 = parse_state(text)
        assert state2 == state
        assert params2 == params
        assert serialize_state(state2, params2) == text


def test_parse_accepts_file_object():
    text = "pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 : 1\nbuys 1 :\n"
    state, _ = parse_state(io.StringIO(text))
    assert state.strategies[0] == {1}
    assert parse_state(io.BytesIO(text.encode())) == parse_state(text)


def test_targets_sorted_on_output():
    params = GameParams(4, F(1), F(2))
    state = StrategyVector((frozenset({3, 1, 2}), frozenset(), frozenset(), frozenset()))
    assert "buys 0 : 1 2 3" in serialize_state(state, params)


# errors carry the offending line number


def err(text):
    with pytest.raises(StateParseError) as info:
        parse_state(text)
    return info.value


def test_bad_header():
    e = err("pcg-state v2\nn 2\nalpha 1\nbeta 2\nbuys 0 :\nbuys 1 :\n")
    assert e.line == 1


def test_self_target_rejected():
    e = err("pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 : 0\nbuys 1 :\n")
    assert e.line == 5


def test_duplicate_buys_line_rejected():
    e = err("pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 : 1\nbuys 0 :\n")
    assert e.line == 6


def test_missing_player_line_rejected():
    err("pcg-state v1\nn 3\nalpha 1\nbeta 2\nbuys 0 :\nbuys 2 :\n")


def test_beta_at_most_one_rejected():
    with pytest.raises((StateParseError, ValueError), match="beta"):
        parse_state("pcg-state v1\nn 2\nalpha 1\nbeta 1\nbuys 0 :\nbuys 1 :\n")


def test_alpha_zero_rejected():
    with pytest.raises((StateParseError, ValueError), match="alpha"):
        parse_state("pcg-state v1\nn 2\nalpha 0\nbeta 2\nbuys 0 :\nbuys 1 :\n")


def test_alpha_inf_rejected():
    e = err("pcg-state v1\nn 2\nalpha inf\nbeta 2\nbuys 0 :\nbuys 1 :\n")
    assert e.line == 3


def test_zero_denominator_rejected():
    e = err("pcg-state v1\nn 2\nalpha 1/0\nbeta 2\nbuys 0 :\nbuys 1 :\n")
    assert e.line == 3 and "expected a rational p/q, got '1/0'" in str(e)
    assert err("pcg-state v1\nn 2\nalpha 1\nbeta 3/0\nbuys 0 :\nbuys 1 :\n").line == 4


def test_undecodable_byte_reports_its_line():
    e = err(b"pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 : \xff\nbuys 1 :\n")
    assert e.line == 5 and "not UTF-8: byte 0xff" in str(e)
    assert err(b"pcg-state v1\r\nn 2\r\n\xfe").line == 3  # at the start of a line


def test_garbage_target_rejected():
    e = err("pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 : x\nbuys 1 :\n")
    assert e.line == 5


def test_format_value():
    assert format_value(F(6, 4)) == "3/2"
    assert format_value(F(5)) == "5"
    assert format_value(INFINITE) == "inf"
