"""The forest's random streams, computed in bulk, and its candidate-feature draws,
replayed from PCG64's raw words, against numpy's ``SeedSequence``, ``Generator.integers``
and ``Generator.choice``.

The trees depend on numpy's seeding, bounded integers and ``choice(d, m, replace=False)``
only through these replays (``classifiers._spawn_states``, ``_bootstrap`` and
``_draw_features``). If a numpy release changes one of them, these tests fail, instead of
the pinned forest digests moving without a word.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbarriers.classifiers import (
    FLOYD_MAX_POPULATION,
    _bootstrap,
    _draw_features,
    _pcg64,
    _spawn_states,
    _stream_words,
)

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1


def bootstrapped(seed, n):
    """A ``default_rng(seed)`` after a bootstrap draw of n rows, as a forest tree makes it."""
    rng = np.random.default_rng(seed)
    rng.integers(0, n, size=n)
    return rng


def words_and_restart(starts, d, m, count):
    """``_draw_features``' arguments for the generators that the functions ``starts`` make:
    the words of ``count`` draws from each (none above ``FLOYD_MAX_POPULATION``), and a
    ``restart`` that makes a new one."""
    size = count * (2 * m - 1) if d <= FLOYD_MAX_POPULATION else 0
    words = np.array([start().integers(0, 2**32, size=size, dtype=np.uint32) for start in starts])
    return words.reshape(len(starts), size), lambda t: starts[t]()


def choices(starts, d, m, count):
    """The (generator, k, m) table of ``count`` sorted ``choice`` calls per generator."""
    rngs = [start() for start in starts]
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
    count = data.draw(st.integers(1, 6 if m < 1000 else 2), label="count")
    starts = [lambda seed=seed: bootstrapped(seed, n) for seed in seeds]
    assert {start().bit_generator.state["has_uint32"] for start in starts} == {n % 2}
    words, restart = words_and_restart(starts, d, m, count)
    table = _draw_features(words, d, m, count, restart)
    assert table.shape == (len(seeds), count, m)
    assert (table == choices(starts, d, m, count)).all()


def test_draws_above_the_floyd_population_are_choice_calls():
    # numpy shuffles a tail of arange(d) where m > d // 50, and runs Floyd's algorithm below
    d = FLOYD_MAX_POPULATION + 1
    starts = [lambda seed=seed: bootstrapped(seed, 7) for seed in range(3)]
    for m in (101, 300):
        words, restart = words_and_restart(starts, d, m, 2)
        assert words.shape == (3, 0)
        assert (_draw_features(words, d, m, 2, restart) == choices(starts, d, m, 2)).all()


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
    # the forced streams sit between plain ones; all match choice, in every call
    starts = [lambda: bootstrapped(1, 9), lambda: generator(floyd_first), lambda: generator(shuffle_first),
              lambda: bootstrapped(2, 9)]
    for count in (1, 4, 5):
        words, restart = words_and_restart(starts, d, m, count)
        restarted = []
        table = _draw_features(words, d, m, count, lambda t: restarted.append(t) or restart(t))
        assert (table == choices(starts, d, m, count)).all()
        # only a tree whose words hold a rejection gets a generator; the second's is past the first call
        assert restarted == ([1] if count == 1 else [1, 2])
    assert table[1, :4].tolist() == [sorted(draw) for draw in transcribed_a]
    assert table[2, :4].tolist() == [sorted(draw) for draw in transcribed_b]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128 + 5, 2**200 + 9])
def test_bulk_seeding_equals_each_spawned_generator(seed):
    # an entropy of 1, 2, 3, 4, 5 and 7 words; SeedSequence pads it to 4 before a spawn key
    n = 37
    children = np.random.SeedSequence(seed).spawn(n)
    states = _spawn_states(seed, n)
    assert states == [(s["state"]["state"], s["state"]["inc"]) for s in (np.random.PCG64(c).state for c in children)]
    words = _stream_words(states, 301)  # an odd count ends on a low half-word
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        assert np.random.Generator(_pcg64(states[t])).bit_generator.state == rng.bit_generator.state
        assert words[t].tolist() == rng.integers(0, 2**32, size=301, dtype=np.uint32).tolist()


def test_bulk_seeding_of_late_children():
    states = _spawn_states(2**64 + 3, 70000)
    for i in (0, 65535, 65536, 69999):
        state = np.random.PCG64(np.random.SeedSequence(2**64 + 3, spawn_key=(i,))).state["state"]
        assert states[i] == (state["state"], state["inc"])


@pytest.mark.parametrize("n", [1, 2, 7, 10, 33, 64])
def test_bootstrap_equals_integers_and_the_words_after_it(n):
    forced = forcing_state(0, 0)["state"]
    # a stream whose first output is 0, so its first two words are 0: below 2^32 mod n, and
    # rejected, unless n is a power of 2
    assert np.random.Generator(_pcg64((forced["state"], forced["inc"]))).bit_generator.random_raw() == 0
    states = _spawn_states(5, 6)
    states.insert(3, (forced["state"], forced["inc"]))
    samples, words = _bootstrap(states, n, 45)
    assert samples.shape == (7, n) and words.shape == (7, 45)
    for t, state in enumerate(states):
        rng = np.random.Generator(_pcg64(state))
        assert samples[t].tolist() == rng.integers(0, n, size=n).tolist()
        assert words[t].tolist() == rng.integers(0, 2**32, size=45, dtype=np.uint32).tolist()
