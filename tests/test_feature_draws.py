"""The forest's candidate-feature draws, replayed in bulk from PCG64's raw words
(``classifiers._draw_features``), against numpy's ``Generator.choice``.

The trees depend on numpy's ``choice(d, m, replace=False)`` only through this
replay. If a numpy release changes that algorithm, these tests fail, instead of
the pinned forest digests moving without a word.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbarriers.classifiers import FLOYD_MAX_POPULATION, _draw_features

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1


def bootstrapped(seeds, n):
    """A ``default_rng`` per seed, after a bootstrap draw of n rows, as ``RandomForest.fit`` makes."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    for rng in rngs:
        rng.integers(0, n, size=n)
    return rngs


def choices(rngs, d, m, count):
    """The (rng, k, m) table of ``count`` sorted ``choice`` calls per rng."""
    draws = [np.sort(rng.choice(d, m, replace=False)) for rng in rngs for _ in range(count)]
    return np.array(draws).reshape(len(rngs), count, m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_draws_equal_sorted_choice_calls(data):
    d = data.draw(st.one_of(st.integers(2, 400), st.integers(2, FLOYD_MAX_POPULATION)), label="d")
    m = data.draw(st.one_of(st.integers(1, min(d - 1, 120)), st.integers(1, d - 1)), label="m")
    # the bootstrap reads one word per row, so an odd n leaves a high half-word pending;
    # for these n a rejected word, which would flip that, is below 1 in 10^7
    n = data.draw(st.sampled_from([2, 3, 7, 8, 31, 32, 33]), label="n")
    seeds = data.draw(st.lists(st.integers(0, 2**63), min_size=1, max_size=6), label="seeds")
    rngs, refs = bootstrapped(seeds, n), bootstrapped(seeds, n)
    assert {rng.bit_generator.state["has_uint32"] for rng in rngs} == {n % 2}
    # successive calls continue each stream where the last one left it
    for count in data.draw(st.lists(st.integers(1, 6 if m < 1000 else 2), min_size=1, max_size=3), label="counts"):
        table = _draw_features(rngs, d, m, count)
        assert table.shape == (len(seeds), count, m)
        assert (table == choices(refs, d, m, count)).all()
        assert [rng.bit_generator.state for rng in rngs] == [ref.bit_generator.state for ref in refs]


def test_draws_above_the_floyd_population_are_choice_calls():
    # numpy shuffles a tail of arange(d) where m > d // 50, and runs Floyd's algorithm below
    d = FLOYD_MAX_POPULATION + 1
    for m in (101, 300):
        rngs, refs = bootstrapped(range(3), 7), bootstrapped(range(3), 7)
        assert (_draw_features(rngs, d, m, 2) == choices(refs, d, m, 2)).all()
        assert [rng.bit_generator.state for rng in rngs] == [ref.bit_generator.state for ref in refs]


def transcribed_choice(next_uint32, d, m, rejections):
    """``Generator.choice(d, m, replace=False)`` for d <= 10000, unsorted, transcribed from
    numpy: Floyd's algorithm with its hash set, then ``_shuffle_int(m, 1)``; each bound
    drawn by ``random_bounded_uint64(0, rng)``, which for rng < 2**32 - 1 is
    ``buffered_bounded_lemire_uint32``. Each rejected word is logged in ``rejections``."""

    def bounded(rng, kind):
        if rng == 0:
            return 0
        rng_excl = rng + 1
        product = next_uint32() * rng_excl
        leftover = product & 0xFFFFFFFF
        if leftover < rng_excl:
            threshold = (0xFFFFFFFF - rng) % rng_excl
            while leftover < threshold:
                rejections.append(kind)
                product = next_uint32() * rng_excl
                leftover = product & 0xFFFFFFFF
        return product >> 32

    idx, hash_set = [], set()
    for j in range(d - m, d):
        val = bounded(j, "floyd")
        idx.append(j if val in hash_set else val)
        hash_set.add(idx[-1])
    for i in reversed(range(1, m)):
        j = bounded(i, "shuffle")
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def next_uint32_reader(bit_generator):
    """numpy's ``pcg64_next32`` on ``bit_generator``: the pending high half if there is
    one, else the low half of a fresh 64-bit output, whose high half is left pending."""

    def next_uint32():
        state = bit_generator.state
        if state["has_uint32"]:
            state["has_uint32"] = 0
            bit_generator.state = state
            return state["uinteger"]
        raw = int(bit_generator.random_raw())
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, raw >> 32
        bit_generator.state = state
        return raw & 0xFFFFFFFF

    return next_uint32


def forcing_state(k, value, pending=None):
    """A PCG64 state whose (k + 1)-th ``random_raw`` output is ``value``, and whose pending
    half-word, if ``pending`` is set, is ``pending``. An output is the XSL-RR of the state
    after its step, rotr64(high ^ low, high >> 58): so choose that state, then step back."""
    state = np.random.PCG64(k).state
    inc = state["state"]["inc"]
    high = (0x9E3779B97F4A7C15 * (k + 1)) & MASK64
    rot = high >> 58
    low = high ^ (((value << rot) | (value >> (64 - rot))) & MASK64)
    s = (high << 64) | low
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(k + 1):
        s = (s - inc) * inverse % (1 << 128)
    state["state"]["state"] = s
    state["has_uint32"], state["uinteger"] = (0, 0) if pending is None else (1, pending)
    return state


def generator(state):
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def forced_stream(d, m, calls, pending):
    """A PCG64 state whose stream has an output of two zero words where a shuffle draw
    of one of ``calls`` choice calls reads it (the first output index from 40 on where the
    transcription rejects a shuffle word), with ``pending`` as in ``forcing_state``; and
    the calls and rejections the transcription reads from it."""
    for k in range(40, 200):
        state = forcing_state(k, 0, pending)
        assert generator(forcing_state(k, 0)).bit_generator.random_raw(k + 1)[-1] == 0
        check, rejections = generator(state), []
        reader = next_uint32_reader(check.bit_generator)
        transcribed = [transcribed_choice(reader, d, m, rejections) for _ in range(calls)]
        if "shuffle" in rejections and (pending is not None or rejections[0] == "shuffle"):
            # the transcription is numpy's choice, order and all
            ref = generator(state)
            assert transcribed == [ref.choice(d, m, replace=False).tolist() for _ in range(calls)]
            assert check.bit_generator.state == ref.bit_generator.state
            return state, transcribed, rejections
    raise AssertionError("no forced output reaches a shuffle draw")


def test_rejected_words_are_redrawn_in_floyd_and_in_the_shuffle():
    d, m = 313, 18
    # a pending word 0 is rejected by the first Floyd draw: its bound is 296, and 2^32 mod 296
    # is not 0; the first stream's first rejection is that one, the second's a shuffle draw's
    floyd_first, transcribed_a, rejections_a = forced_stream(d, m, 4, pending=0)
    shuffle_first, transcribed_b, rejections_b = forced_stream(d, m, 4, pending=None)
    assert rejections_a[0] == "floyd" and "shuffle" in rejections_a, rejections_a
    assert rejections_b[0] == "shuffle", rejections_b
    # the forced streams sit between plain ones; all match choice, now and later
    rngs = [bootstrapped([1], 9)[0], generator(floyd_first), generator(shuffle_first), bootstrapped([2], 9)[0]]
    refs = [bootstrapped([1], 9)[0], generator(floyd_first), generator(shuffle_first), bootstrapped([2], 9)[0]]
    table = _draw_features(rngs, d, m, 4)
    assert table[1].tolist() == [sorted(draw) for draw in transcribed_a]
    assert table[2].tolist() == [sorted(draw) for draw in transcribed_b]
    assert (table == choices(refs, d, m, 4)).all()
    for count in (1, 5):
        assert (_draw_features(rngs, d, m, count) == choices(refs, d, m, count)).all()
        assert [rng.bit_generator.state for rng in rngs] == [ref.bit_generator.state for ref in refs]
