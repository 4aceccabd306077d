"""The forest's random streams, computed in bulk, and its bootstrap and candidate-feature
draws, replayed from PCG64's raw words, against numpy's ``SeedSequence``,
``Generator.integers`` and ``Generator.choice``.

The trees depend on numpy's seeding, bounded integers and ``choice(d, m, replace=False)``
only through these replays (``classifiers._spawn_states`` and ``_tree_draws``). If a numpy
release changes one of them, these tests fail, instead of the pinned forest digests moving
without a word.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbarriers import classifiers
from newsbarriers.classifiers import FLOYD_MAX_POPULATION, _pcg64, _spawn_states, _stream_words, _tree_draws

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1


def state_of(bit_generator):
    """The PCG64 ``(state, inc)`` of ``bit_generator``."""
    state = bit_generator.state["state"]
    return state["state"], state["inc"]


def reference_draws(states, n, d, m):
    """Each stream's ``Generator``: its bootstrap ``integers(0, n, size=n)``, then sorted
    ``choice(d, m, replace=False)`` calls, one fewer than the most distinct rows of a
    bootstrap (at least one), as (stream, n) and (stream, count, m) arrays."""
    rngs = [np.random.Generator(_pcg64(state)) for state in states]
    samples = np.array([rng.integers(0, n, size=n) for rng in rngs])
    count = max(max(len(np.unique(s)) for s in samples) - 1, 1)
    table = [[np.sort(rng.choice(d, m, replace=False)) for _ in range(count)] for rng in rngs]
    return samples, np.array(table).reshape(len(states), count, m)


def redrawn_trees(states, n, d, m):
    """``_tree_draws(states, n, d, m)``, and the trees given a ``Generator`` of their own:
    those whose ``_pcg64`` calls reuse no bit generator."""
    with mock.patch.object(classifiers, "_pcg64", wraps=classifiers._pcg64) as pcg64:
        samples, table = _tree_draws(states, n, d, m)
    redrawn = sorted({states.index(call.args[0]) for call in pcg64.call_args_list if len(call.args) == 1})
    return samples, table, redrawn


def assert_reference_draws(states, n, d, m):
    """``_tree_draws`` equals the ``Generator`` reference; returns its table and the trees it redrew."""
    samples, table, redrawn = redrawn_trees(states, n, d, m)
    ref_samples, ref_table = reference_draws(states, n, d, m)
    assert samples.tolist() == ref_samples.tolist()
    assert table.shape == ref_table.shape
    assert (table == ref_table).all()
    return table, redrawn


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_draws_equal_sorted_choice_calls(data):
    d = data.draw(st.one_of(st.integers(2, 400), st.integers(2, FLOYD_MAX_POPULATION)), label="d")
    # m = d draws nothing: every row of the table is every feature
    m = data.draw(st.one_of(st.integers(1, min(d - 1, 120)), st.integers(1, d - 1), st.just(d)), label="m")
    # an odd n leaves a high half-word pending after the bootstrap; a tree of n rows
    # draws up to n - 1 times, so the widest draws get the smallest n
    n = data.draw(st.sampled_from([1, 2, 3, 7, 8, 31, 32, 33] if m < 1000 else [1, 2, 3]), label="n")
    seeds = data.draw(st.lists(st.integers(0, 2**63), min_size=1, max_size=6), label="seeds")
    assert_reference_draws([state_of(np.random.PCG64(seed)) for seed in seeds], n, d, m)


def test_draws_above_the_floyd_population_are_choice_calls():
    # numpy shuffles a tail of arange(d) where m > d // 50, and runs Floyd's algorithm below;
    # every tree is redrawn by its generator
    states = _spawn_states(0, 3)
    for m in (101, 300):
        assert assert_reference_draws(states, 7, FLOYD_MAX_POPULATION + 1, m)[1] == [0, 1, 2]


def bounded(next_uint32, rng, kind, rejections):
    """numpy's ``random_bounded_uint64(0, rng)``, which for rng < 2**32 - 1 is
    ``buffered_bounded_lemire_uint32``, transcribed; each rejected word is logged in
    ``rejections`` as ``kind``."""
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


def transcribed_choice(next_uint32, d, m, rejections):
    """``Generator.choice(d, m, replace=False)`` for d <= 10000, unsorted, transcribed from
    numpy: Floyd's algorithm with its hash set, then ``_shuffle_int(m, 1)``; each bound
    drawn by ``bounded``. Each rejected word is logged in ``rejections``."""
    idx, hash_set = [], set()
    for j in range(d - m, d):
        val = bounded(next_uint32, j, "floyd", rejections)
        idx.append(j if val in hash_set else val)
        hash_set.add(idx[-1])
    for i in reversed(range(1, m)):
        j = bounded(next_uint32, i, "shuffle", rejections)
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


def transcribed_tree(state, n, d, m, calls):
    """A tree's bootstrap of n rows and its first ``calls`` choice calls, unsorted,
    transcribed from the PCG64 ``(state, inc)`` ``state``, and the rejections they read;
    checked against ``Generator.integers`` and ``Generator.choice``, bit generator and all."""
    check, rejections = np.random.Generator(_pcg64(state)), []
    reader = next_uint32_reader(check.bit_generator)
    samples = [bounded(reader, n - 1, "bootstrap", rejections) for _ in range(n)]
    draws = [transcribed_choice(reader, d, m, rejections) for _ in range(calls)]
    ref = np.random.Generator(_pcg64(state))
    assert samples == ref.integers(0, n, size=n).tolist()
    assert draws == [ref.choice(d, m, replace=False).tolist() for _ in range(calls)]
    assert check.bit_generator.state == ref.bit_generator.state
    return samples, draws, rejections


def forcing_state(k, value):
    """A PCG64 ``(state, inc)`` whose (k + 1)-th ``random_raw`` output is ``value``. An output
    is the XSL-RR of the state after its step, rotr64(high ^ low, high >> 58): so choose
    that state, then step back."""
    inc = np.random.PCG64(k).state["state"]["inc"]
    high = (0x9E3779B97F4A7C15 * (k + 1)) & MASK64
    rot = high >> 58
    low = high ^ (((value << rot) | (value >> (64 - rot))) & MASK64)
    s = (high << 64) | low
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(k + 1):
        s = (s - inc) * inverse % (1 << 128)
    return s, inc


def forced_stream(d, m, n, first):
    """A PCG64 ``(state, inc)`` whose stream has an output of two zero words where, after a
    bootstrap of n rows, a choice call reads them: the first output index from 40 on where
    the transcription's first rejection is a ``first`` ("floyd" or "shuffle") draw."""
    for k in range(40, 200):
        state = forcing_state(k, 0)
        assert _pcg64(state).random_raw(k + 1)[-1] == 0
        calls = (2 * k + 1 - n) // (2 * m - 1) + 1  # through the call that reads word 2k + 1
        if transcribed_tree(state, n, d, m, calls)[2][:1] == [first]:
            return state
    raise AssertionError(f"no forced output reaches a {first} draw")


def test_rejected_words_are_redrawn_in_floyd_and_in_the_shuffle():
    d, m = 313, 18
    # the forced streams sit between plain ones
    states = [_spawn_states(1, 1)[0], forced_stream(d, m, 9, "floyd"), forced_stream(d, m, 9, "shuffle"),
              _spawn_states(2, 1)[0]]
    for n in (9, 2):
        table, redrawn = assert_reference_draws(states, n, d, m)
        # a tree is redrawn when the words it reads hold a rejection: with n = 2 a tree draws
        # once and reads 2 + 35 words, all before the forced output
        expected = [t for t, state in enumerate(states) if transcribed_tree(state, n, d, m, table.shape[1])[2]]
        assert redrawn == expected == ([1, 2] if n == 9 else [])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 2**128 - 1, 2**128, 2**128 + 5,
                                  2**200 + 9])
def test_bulk_seeding_equals_each_spawned_generator(seed):
    # an entropy of 1, 2, 3, 4, 5 and 7 words; SeedSequence pads it to 4 before a spawn key, and
    # 2^128 - 1 and 2^128 are the last 4-word seed and the first 5-word one
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
    forced = forcing_state(0, 0)
    # a stream whose first output is 0, so its first two words are 0: below 2^32 mod n, and
    # rejected, unless n is a power of 2; for n = 1 the bootstrap reads no word, and the first
    # Floyd draw, in [0, 295], rejects it
    assert _pcg64(forced).random_raw() == 0
    states = _spawn_states(5, 6)
    states.insert(3, forced)
    _, redrawn = assert_reference_draws(states, n, 313, 18)
    assert (3 in redrawn) == (n not in (2, 64))
