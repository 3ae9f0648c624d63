from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_billiards.core import ParameterError, coprime_rotations, make_rotation
from circle_billiards import formula
from circle_billiards.formula import (
    DivisionSequence,
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
        assert general_sequence(rp) == oracle_sequence(rp), (rp.p, rp.q)


def test_oracle_increments_follow_the_counts():
    # The premise of formula._general_counts, read from the crossing
    # counter: the increments never decrease, so their histogram fixes them.
    for rp in coprime_rotations(60):
        steps = oracle_sequence(rp).increments
        assert all(a <= b for a, b in zip(steps, steps[1:])), (rp.p, rp.q)
        histogram = Counter(steps)
        assert [histogram[d] for d in range(1, 2 * rp.p)] == formula._general_counts(rp)


@pytest.mark.parametrize(
    "counts, message",
    [
        ([4, 1, 3, 1], r"need 5 increment counts, got 4"),
        ([4, 1, 3, 1, 4, 0], r"need 5 increment counts, got 6"),
        ([5, -1, 4, 1, 4], r"count -1 of increment 2 is negative"),
        ([5, 0, -1, 5, 4], r"count -1 of increment 3 is negative"),
        ([4, 1, 3, 1, 5], r"need q\+1 values, got 15"),
        ([3, 2, 3, 1, 4], r"f_q must be 40, got 41"),
    ],
    ids=["short", "long", "negative", "negative_after_zero", "length", "f_q"],
)
def test_counts_invariants_enforced(counts, message):
    rp = make_rotation(3, 13)
    assert formula._general_counts(rp) == [4, 1, 3, 1, 4]
    formula._check_counts(rp, [4, 1, 3, 1, 4])
    # A zero count is a valid schedule: no chord adds 2 regions.
    formula._check_counts(rp, [5, 0, 2, 2, 4])
    with pytest.raises(ValueError, match=f"^{message}$"):
        formula._check_counts(rp, counts)


def test_special_sequence_p3():
    seq = special_sequence(3)
    assert list(seq.values) == [1, 2, 3, 5, 8, 12, 17, 22]
    assert seq.values[0] == 1  # endpoint correction active


def test_special_sequence_p2():
    seq = special_sequence(2)
    assert list(seq.values) == [1, 2, 3, 5, 8, 11]
    assert seq.values == oracle_sequence(make_rotation(2, 5)).values


def test_special_matches_general_up_to_100():
    for p in range(1, 101):
        assert special_sequence(p) == general_sequence(make_rotation(p, 2 * p + 1))


def test_special_rejects_bad_p():
    for p in (0, -3):
        with pytest.raises(ParameterError, match="p must be a positive integer"):
            special_sequence(p)


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
            assert r1_sequence(rp) == general_sequence(rp), (p, m)
            m += 1


def test_endpoint_totals_scan():
    for rp in coprime_rotations(40):
        seq = general_sequence(rp)
        assert seq.values[-1] == rp.p * rp.q + 1 == total_regions(rp)
        assert all(d >= 1 for d in seq.increments)  # strictly increasing


def test_sequence_invariants_enforced():
    rp = make_rotation(3, 7)
    cases = [
        ((1, 2), r"need q\+1 values, got 2"),
        (tuple(range(8)), r"f_0 must be 1, got 0"),
        ((1, 2, 3, 5, 8, 12, 17, 23), r"f_q must be 22, got 23"),
        ((1, 2, 3, 4, 10, 12, 17, 22), r"increment 6 at step 4 outside 1\.\.5"),
        # Step 2 is the first bad step, though step 4 holds the largest increment.
        ((1, 2, 2, 3, 9, 12, 17, 22), r"increment 0 at step 2 outside 1\.\.5"),
        # Step 1 equals 2p - 1 = 5, which is in range: step 2 is named.
        ((1, 6, 6, 8, 12, 15, 20, 22), r"increment 0 at step 2 outside 1\.\.5"),
    ]
    for values, message in cases:
        with pytest.raises(ValueError, match=message):
            DivisionSequence(rp, values)
        if values[0] != 1:
            continue  # from_increments always starts at f_0 = 1
        steps = tuple(b - a for a, b in zip(values, values[1:]))
        with pytest.raises(ValueError, match=message):
            DivisionSequence.from_increments(rp, steps)


def test_from_increments_keeps_the_given_increments():
    rp = make_rotation(3, 7)
    steps = (1, 1, 2, 3, 4, 5, 5)
    assert DivisionSequence.from_increments(rp, steps).increments is steps
    given = list(steps)
    seq = DivisionSequence.from_increments(rp, given)
    given[0] = 99
    assert seq.increments == steps
    assert seq == DivisionSequence(rp, (1, 2, 3, 5, 8, 12, 17, 22))
