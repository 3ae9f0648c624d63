import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_billiards.core import ParameterError, coprime_rotations, make_rotation
from circle_billiards.formula import (
    DivisionSequence,
    SequenceSource,
    euler_counts,
    general_sequence,
    r1_sequence,
    special_sequence,
    total_regions,
)
from circle_billiards.oracle import oracle_sequence


def test_total_regions_examples():
    assert total_regions(make_rotation(3, 7)) == 22
    assert total_regions(make_rotation(3, 13)) == 40
    assert total_regions(make_rotation(1, 3)) == 4


def test_euler_counts_examples():
    assert euler_counts(make_rotation(3, 7)) == (21, 42, 22)
    assert euler_counts(make_rotation(1, 3)) == (3, 6, 4)
    assert euler_counts(make_rotation(3, 13)) == (39, 78, 40)


def test_euler_identity_scan():
    for rp in coprime_rotations(60):
        v, e, f = euler_counts(rp)
        assert f == 1 + e - v
        assert (v, e) == (rp.p * rp.q, 2 * rp.p * rp.q)


def test_general_sequence_3_13():
    seq = general_sequence(make_rotation(3, 13))
    assert list(seq.values) == [1, 2, 3, 4, 5, 7, 10, 13, 16, 20, 25, 30, 35, 40]
    assert seq.source is SequenceSource.GENERAL_FORMULA


def test_general_sequence_3_7():
    seq = general_sequence(make_rotation(3, 7))
    assert list(seq.values) == [1, 2, 3, 5, 8, 12, 17, 22]


def test_general_sequence_square():
    assert list(general_sequence(make_rotation(1, 4)).values) == [1, 2, 3, 4, 5]


def test_general_sequence_3_14():
    seq = general_sequence(make_rotation(3, 14))
    assert len(seq.values) == 15
    assert seq.values[-1] == 43
    assert list(seq.increments) == [1] * 4 + [2] + [3] * 4 + [4] + [5] * 4
    # brute-force confirmation of the r = 2 branch
    assert seq.values == oracle_sequence(make_rotation(3, 14)).values


def test_general_matches_oracle_small_scan():
    for rp in coprime_rotations(25):
        assert general_sequence(rp).values == oracle_sequence(rp).values, (rp.p, rp.q)


def test_special_sequence_p3():
    seq = special_sequence(3)
    assert list(seq.values) == [1, 2, 3, 5, 8, 12, 17, 22]
    assert seq.values[0] == 1  # endpoint correction active
    assert seq.source is SequenceSource.SPECIAL_CLOSED_FORM


def test_special_sequence_p2():
    seq = special_sequence(2)
    assert list(seq.values) == [1, 2, 3, 5, 8, 11]
    assert seq.values == oracle_sequence(make_rotation(2, 5)).values


def test_special_matches_general_up_to_100():
    for p in range(1, 101):
        assert special_sequence(p).values == general_sequence(make_rotation(p, 2 * p + 1)).values


def test_special_rejects_bad_p():
    with pytest.raises(ParameterError):
        special_sequence(0)


@pytest.mark.parametrize("p", ["3", None, 2.0, True])
def test_special_rejects_non_int_p(p):
    with pytest.raises(ParameterError, match="must be an int"):
        special_sequence(p)


@given(st.integers(1, 200))
@settings(max_examples=60)
def test_special_increment_law(p):
    seq = special_sequence(p)
    assert seq.increments[0] == 1
    assert seq.increments[-1] == 2 * p - 1
    for n in range(2, 2 * p + 1):
        assert seq.values[n] - seq.values[n - 1] == n - 1


def test_r1_sequence_3_13():
    rp = make_rotation(3, 13)
    assert r1_sequence(rp).values == general_sequence(rp).values


def test_r1_sequence_2_5():
    assert r1_sequence(make_rotation(2, 5)).values == special_sequence(2).values


def test_r1_sequence_2_7():
    seq = r1_sequence(make_rotation(2, 7))
    assert list(seq.values) == [1, 2, 3, 4, 6, 9, 12, 15]
    assert seq.values == oracle_sequence(make_rotation(2, 7)).values


def test_r1_rejects_other_remainders():
    with pytest.raises(ParameterError):
        r1_sequence(make_rotation(3, 14))  # r = 2


def test_r1_matches_general_family():
    # all q = m*p + 1 <= 300 (gcd(p, mp+1) = 1 always)
    for p in range(2, 51):
        m = 2
        while m * p + 1 <= 300:
            rp = make_rotation(p, m * p + 1)
            assert rp.r == 1
            assert r1_sequence(rp).values == general_sequence(rp).values, (p, m)
            m += 1


def test_endpoint_totals_scan():
    for rp in coprime_rotations(40):
        seq = general_sequence(rp)
        assert seq.values[-1] == rp.p * rp.q + 1 == total_regions(rp)
        assert all(d >= 1 for d in seq.increments)  # strictly increasing


def test_sequence_invariants_enforced():
    rp = make_rotation(3, 7)
    with pytest.raises(ValueError):
        DivisionSequence(rp, (1, 2), SequenceSource.GENERAL_FORMULA)
    with pytest.raises(ValueError):
        DivisionSequence(rp, tuple(range(8)), SequenceSource.GENERAL_FORMULA)  # f_0 = 0
    with pytest.raises(ValueError, match=r"f_q must be 22, got 23"):
        DivisionSequence(rp, (1, 2, 3, 5, 8, 12, 17, 23), SequenceSource.GENERAL_FORMULA)
    with pytest.raises(ValueError, match=r"increment 6 at step 4 outside 1\.\.5"):
        DivisionSequence(rp, (1, 2, 3, 4, 10, 12, 17, 22), SequenceSource.GENERAL_FORMULA)
    # Step 2 is the first bad step, though step 4 holds the largest increment.
    with pytest.raises(ValueError, match=r"increment 0 at step 2 outside 1\.\.5"):
        DivisionSequence(rp, (1, 2, 2, 3, 9, 12, 17, 22), SequenceSource.GENERAL_FORMULA)
