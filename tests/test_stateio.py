"""State file grammar: canonical serialization, exact round trips, line-numbered errors."""

import io
import random
from fractions import Fraction as F

import pytest

from pcg.game import INFINITE, GameParams, StrategyVector, random_state
from pcg.dynamics import CycleDetected, serialize_outcome
from pcg.stateio import StateParseError, format_value, parse_state, serialize_state, state_writer


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


def reference_serialize(state, params):
    """The one-state formatter that state_writer replaced, kept as an oracle."""
    def value(v):
        return "inf" if v == INFINITE else str(F(v))

    lines = ["pcg-state v1", f"n {params.n}", f"alpha {value(params.alpha)}", f"beta {value(params.beta)}"]
    for i, targets in enumerate(state.strategies):
        body = " ".join(str(t) for t in sorted(targets))
        lines.append(f"buys {i} :" + (f" {body}" if body else ""))
    return "\n".join(lines) + "\n"


def random_game(rng):
    n = rng.randint(2, 8)
    alpha = F(rng.randint(1, 40), rng.randint(1, 12))
    beta = INFINITE if rng.random() < 0.2 else 1 + F(rng.randint(1, 30), rng.randint(1, 9))
    return GameParams(n, alpha, beta)


def test_reused_writer_matches_one_state_serialization():
    rng = random.Random(20261018)
    games = [random_game(rng) for _ in range(12)]
    writers = {params: state_writer(params) for params in games}
    for _ in range(300):
        params = rng.choice(games)
        state = random_state(params.n, rng)
        text = writers[params](state)  # each writer serves about 25 states here
        assert text == serialize_state(state, params) == reference_serialize(state, params)
        assert parse_state(text) == (state, params)
    with pytest.raises(ValueError, match="params expect"):
        state_writer(GameParams(3, F(1), F(2)))(StrategyVector.empty(4))


def test_writer_prints_targets_as_ints():
    # an int subclass equal to 1 shares the memo entry of 1, so both must print "1"
    class Player(int):
        def __str__(self):
            return f"Player({int(self)})"

    params = GameParams(2, F(1), F(2))
    write = state_writer(params)
    subclass_state = StrategyVector((frozenset({Player(1)}), frozenset()))
    expected = "pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 : 1\nbuys 1 :\n"
    assert write(subclass_state) == expected
    assert write(StrategyVector((frozenset({1}), frozenset()))) == expected
    assert parse_state(expected)[0] == subclass_state
    with pytest.raises(ValueError, match="not an integer"):
        StrategyVector((frozenset({True}), frozenset()))  # would have printed "buys 0 : True"


def test_cycle_outcome_is_header_plus_state_blocks():
    rng = random.Random(7)
    params = GameParams(5, F(3, 2), INFINITE)
    states = [random_state(5, rng) for _ in range(3)]
    states.append(states[0].replace(1, states[2][1]))  # repeats target sets across states
    text = serialize_outcome(CycleDetected(entry_index=2, period=4, states=tuple(states)), params)
    blocks = [serialize_state(s, params) for s in states]
    assert text == "cycle entry 2 period 4\n" + "\n".join(blocks)


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
