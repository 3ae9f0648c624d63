import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_billiards.core import (
    MAX_Q,
    ParameterError,
    RotationParameter,
    coprime_rotations,
    make_rotation,
)


def test_worked_example_3_13():
    rp = make_rotation(3, 13)
    assert (rp.p, rp.q, rp.m, rp.r) == (3, 13, 4, 1)


def test_non_reduced_input_is_reduced():
    rp = make_rotation(2, 6)
    assert (rp.p, rp.q, rp.m, rp.r) == (1, 3, 3, 0)


def test_worked_example_3_14():
    rp = make_rotation(3, 14)
    assert (rp.p, rp.q, rp.m, rp.r) == (3, 14, 4, 2)


def test_half_and_above_rejected():
    with pytest.raises(ParameterError, match="out of supported range"):
        make_rotation(1, 2)
    with pytest.raises(ParameterError, match="out of supported range"):
        make_rotation(3, 6)
    with pytest.raises(ParameterError, match="out of supported range"):
        make_rotation(5, 7)


def test_one_over_one_is_out_of_range():
    # p = q = 1 passes both positivity checks and fails only the range check.
    message = r"^1/1 reduces to 1/1: out of supported range \(p/q < 1/2 required\)$"
    with pytest.raises(ParameterError, match=message):
        make_rotation(1, 1)


def test_input_validation():
    with pytest.raises(ParameterError):
        make_rotation(0, 5)
    with pytest.raises(ParameterError):
        make_rotation(1, 0)
    with pytest.raises(ParameterError):
        make_rotation(1, MAX_Q + 1)



def test_max_q_itself_is_accepted():
    assert make_rotation(1, MAX_Q) == RotationParameter(1, MAX_Q)

@pytest.mark.parametrize(
    "p_in, q_in", [(1.0, 3), (2, 5.0), ("2", 5), (2, None), (True, 3), (1, True)]
)
def test_non_int_input_rejected(p_in, q_in):
    with pytest.raises(ParameterError, match="must be an int"):
        make_rotation(p_in, q_in)


@pytest.mark.parametrize("q_max", [5.5, "10", None, True])
def test_coprime_rotations_non_int_rejected(q_max):
    with pytest.raises(ParameterError, match="must be an int"):
        coprime_rotations(q_max)


def test_coprime_rotations_q_max_checked_at_call():
    # Raised by the call itself, before the generator yields any pair.
    for q_max, message in ((MAX_Q + 1, "at most"), (2, "at least 3")):
        with pytest.raises(ParameterError, match=f"q_max must be {message}"):
            coprime_rotations(q_max)



def test_coprime_rotations_accepts_max_q():
    # Only the first pair is taken: the whole scan would be about 3·10¹¹ pairs.
    assert next(coprime_rotations(MAX_Q)) == RotationParameter(1, 3)

def test_rotation_parameter_is_the_pair():
    rp = RotationParameter(3, 14)
    assert (rp.m, rp.r) == (4, 2)
    assert [f.name for f in dataclasses.fields(RotationParameter)] == ["p", "q"]


def test_exhaustive_decomposition_up_to_200():
    count = 0
    for rp in coprime_rotations(200):
        count += 1
        assert math.gcd(rp.p, rp.q) == 1
        assert 2 * rp.p < rp.q
        assert rp.m * rp.p + rp.r == rp.q
        if rp.p == 1:
            assert rp.r == 0 and rp.m == rp.q
        else:
            assert 1 <= rp.r <= rp.p - 1
    assert count > 5000  # the scan actually enumerated something


def test_make_rotation_idempotent():
    for rp in coprime_rotations(40):
        assert make_rotation(rp.p, rp.q) == rp


@given(st.integers(1, MAX_Q), st.integers(1, MAX_Q))
@settings(max_examples=300)
def test_make_rotation_random_inputs(p_in, q_in):
    g = math.gcd(p_in, q_in)
    if 2 * (p_in // g) >= q_in // g:
        with pytest.raises(ParameterError):
            make_rotation(p_in, q_in)
    else:
        rp = make_rotation(p_in, q_in)
        assert rp.p * q_in == rp.q * p_in  # same fraction
        assert math.gcd(rp.p, rp.q) == 1
        assert rp.m * rp.p + rp.r == rp.q
        assert 0 <= rp.r < rp.p or (rp.p == 1 and rp.r == 0)
