"""Tests for kernel flow hashing primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.check.oracles import ref_jhash_4tuple, ref_jhash_words
from repro.kernel import FourTuple, jhash_4tuple, jhash_words, reciprocal_scale

words32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports16 = st.integers(min_value=0, max_value=0xFFFF)


def _tuple(i=0):
    return FourTuple(0x0A000001 + i, 40000 + i, 0xC0A80001, 443)


class TestJhash:
    def test_deterministic(self):
        ft = _tuple()
        assert jhash_4tuple(ft) == jhash_4tuple(ft)

    def test_seed_changes_hash(self):
        ft = _tuple()
        assert jhash_4tuple(ft, 1) != jhash_4tuple(ft, 2)

    def test_different_tuples_differ(self):
        # Not guaranteed in general, but these specific tuples must differ
        # for the hash to be useful at all.
        hashes = {jhash_4tuple(_tuple(i)) for i in range(100)}
        assert len(hashes) > 95

    def test_32bit_range(self):
        for i in range(50):
            value = jhash_4tuple(_tuple(i))
            assert 0 <= value <= 0xFFFFFFFF

    def test_word_order_matters(self):
        assert jhash_words([1, 2, 3]) != jhash_words([3, 2, 1])

    def test_empty_words(self):
        # jhash2 of an empty array returns the mixed initval constant.
        assert 0 <= jhash_words([]) <= 0xFFFFFFFF

    def test_long_word_list(self):
        # Exercises the 3-word mixing loop.
        value = jhash_words(list(range(10)))
        assert 0 <= value <= 0xFFFFFFFF

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                    max_size=12))
    def test_always_32bit(self, words):
        assert 0 <= jhash_words(words) <= 0xFFFFFFFF


def _words(n):
    """``n`` distinct golden-ratio-spaced 32-bit words."""
    return [(0x9E3779B9 * (i + 1) + n) & 0xFFFFFFFF for i in range(n)]


#: Known ``jhash2`` answers for ``_words(n)`` at initval 0 and 0x5eed, one
#: row per length 0..7: every tail length (0-3) with and without a mix round.
WORDS_KAT = [
    (0, 0xDEADBEEF, 0xDEAE1DDC),
    (1, 0x6FB3E302, 0xF01305FF),
    (2, 0x3F6E90C9, 0x38CA4218),
    (3, 0x97D07C72, 0x0E0046CE),
    (4, 0x5BA35B34, 0x585A4ADE),
    (5, 0x36013DF7, 0xB62FEC85),
    (6, 0xE851957A, 0x2097957E),
    (7, 0x83380A5F, 0x82ABF9E4),
]

_ONES = FourTuple(0xFFFFFFFF, 0xFFFF, 0xFFFFFFFF, 0xFFFF)
_FLOW = FourTuple(0x0A000001, 40000, 0xC0A80001, 443)

#: (four-tuple, initval, hash): all-ones words at the extreme initvals.
TUPLE_KAT = [
    (_ONES, 0, 0x6E0964A9),
    (_ONES, 0x5EED, 0x898B1496),
    (_ONES, 0xFFFFFFFF, 0xC343AF0B),
    (_FLOW, 0, 0x535E3000),
    (_FLOW, 0x5EED, 0xF4F3E669),
    (_FLOW, 0xFFFFFFFF, 0x2AE21FD8),
]


class TestJhashKnownAnswers:
    @pytest.mark.parametrize("n, want0, want_seeded", WORDS_KAT)
    def test_jhash_words(self, n, want0, want_seeded):
        assert jhash_words(_words(n)) == want0
        assert jhash_words(_words(n), 0x5EED) == want_seeded

    @pytest.mark.parametrize("four_tuple, initval, want", TUPLE_KAT)
    def test_jhash_4tuple(self, four_tuple, initval, want):
        assert jhash_4tuple(four_tuple, initval) == want

    def test_4tuple_is_jhash2_of_packed_words(self):
        for four_tuple, initval, want in TUPLE_KAT:
            ports = (four_tuple.src_port << 16) | four_tuple.dst_port
            words = [four_tuple.src_ip, four_tuple.dst_ip, ports]
            assert jhash_words(words, initval) == want


class TestJhashDifferential:
    """The fast hashes against the independent transcription in
    :mod:`repro.check.oracles`."""

    @given(st.lists(words32, max_size=13), words32)
    def test_words_match_reference(self, words, initval):
        assert jhash_words(words, initval) == ref_jhash_words(words, initval)

    @given(words32, ports16, words32, ports16, words32)
    def test_4tuple_matches_reference(self, src_ip, src_port, dst_ip,
                                      dst_port, initval):
        four_tuple = FourTuple(src_ip, src_port, dst_ip, dst_port)
        assert jhash_4tuple(four_tuple, initval) \
            == ref_jhash_4tuple(four_tuple, initval)


class TestReciprocalScale:
    def test_range(self):
        for value in [0, 1, 12345, 0xFFFFFFFF]:
            for n in [1, 2, 7, 32, 64]:
                assert 0 <= reciprocal_scale(value, n) < n

    def test_zero_maps_to_zero(self):
        assert reciprocal_scale(0, 10) == 0

    def test_max_maps_to_last(self):
        assert reciprocal_scale(0xFFFFFFFF, 10) == 9

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_scale(1, 0)
        with pytest.raises(ValueError):
            reciprocal_scale(1, -3)

    def test_roughly_uniform(self):
        n = 8
        counts = [0] * n
        for i in range(4000):
            counts[reciprocal_scale(jhash_4tuple(_tuple(i)), n)] += 1
        expected = 4000 / n
        for c in counts:
            assert abs(c - expected) < expected * 0.35

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=1, max_value=1000))
    def test_property_in_range(self, value, n):
        assert 0 <= reciprocal_scale(value, n) < n

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_monotone_in_value(self, value):
        # reciprocal_scale is monotone non-decreasing in value for fixed n.
        n = 16
        if value < 0xFFFFFFFF:
            assert reciprocal_scale(value, n) <= reciprocal_scale(value + 1, n)


class TestFourTuple:
    def test_reversed(self):
        ft = FourTuple(1, 2, 3, 4)
        assert ft.reversed() == FourTuple(3, 4, 1, 2)
        assert ft.reversed().reversed() == ft
