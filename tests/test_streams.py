import math

import numpy as np
import pytest

from dpbox.noise import make_rng
from dpbox.streams import (UpdateStream, exact_distinct, exact_f2,
                           exact_frequencies, exact_l2, format_stream,
                           load_stream, parse_stream, stream_neighbor)
from helpers import random_stream


def test_stream_validation():
    UpdateStream(universe_size=3, updates=[(0, 1), (2, 1)], mode="insert")
    with pytest.raises(ValueError):
        UpdateStream(universe_size=0, updates=[])
    with pytest.raises(ValueError):
        UpdateStream(universe_size=3, updates=[(3, 1)])
    with pytest.raises(ValueError):
        UpdateStream(universe_size=3, updates=[(0, -1)], mode="insert")
    with pytest.raises(ValueError):
        UpdateStream(universe_size=3, updates=[(0, 2)], mode="turnstile")
    with pytest.raises(ValueError):
        UpdateStream(universe_size=3, updates=[], mode="sliding")


@pytest.mark.parametrize("bad", [[(2.5, 1)], [(3, 1.9)], [(1, -0.5)], [("3", 1)]])
def test_stream_rejects_non_integer_updates(bad):
    # int() would truncate these to legal updates; they are rejected, as
    # parse_stream rejects "2.5".
    with pytest.raises(ValueError):
        UpdateStream(universe_size=5, updates=bad, mode="turnstile")


def test_stream_accepts_integral_values_of_other_types():
    s = UpdateStream(universe_size=5, updates=[(np.int64(2), 1), (3.0, np.int8(-1))],
                     mode="turnstile")
    assert s.updates == ((2, 1), (3, -1))
    assert all(type(v) is int for pair in s.updates for v in pair)


def test_parse_format_round_trip():
    text = "4 3 turnstile\n0 1\n3 -1\n0 1\n"
    s = parse_stream(text)
    assert s.universe_size == 4 and s.length == 3 and s.mode == "turnstile"
    assert format_stream(s) == text


@pytest.mark.parametrize("bad", ["", "3 1\n0 1\n", "3 2 insert\n0 1\n",
                                 "3 1 insert\n0\n"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_stream(bad)


def test_exact_counters():
    s = UpdateStream(universe_size=5,
                     updates=[(0, 1), (1, 1), (0, 1), (3, 1), (3, -1)],
                     mode="turnstile")
    freq = exact_frequencies(s)
    assert freq.tolist() == [2, 1, 0, 0, 0]
    assert exact_distinct(s) == 2
    assert exact_f2(s) == 5.0
    assert exact_l2(s) == pytest.approx(math.sqrt(5.0))


def test_exact_counters_random_cross_check():
    rng = make_rng(60)
    for mode in ("insert", "turnstile"):
        s = random_stream(30, 400, mode, rng)
        freq = np.zeros(30, dtype=np.int64)
        for item, delta in s.updates:
            freq[item] += delta
        assert np.array_equal(exact_frequencies(s), freq)
        assert exact_distinct(s) == int(np.count_nonzero(freq))
        assert exact_f2(s) == float(freq @ freq)


def test_neighbor_differs_in_exactly_one_update():
    rng = make_rng(61)
    for mode in ("insert", "turnstile"):
        s = random_stream(20, 100, mode, rng)
        t = stream_neighbor(s, rng)
        assert t.universe_size == s.universe_size
        assert t.mode == s.mode
        assert t.length == s.length
        diffs = [i for i in range(s.length) if s.updates[i] != t.updates[i]]
        assert len(diffs) == 1


def test_neighbor_moves_counters_by_at_most_two():
    # Swapping one update changes the frequency vector by at most 2 in L1,
    # which caps the distinct-count and L2 shifts at 2 as well.
    rng = make_rng(62)
    for trial in range(1000):
        mode = "insert" if trial % 2 == 0 else "turnstile"
        s = random_stream(int(rng.integers(2, 15)), int(rng.integers(1, 40)),
                          mode, rng)
        t = stream_neighbor(s, rng)
        l1 = int(np.abs(exact_frequencies(s) - exact_frequencies(t)).sum())
        assert l1 <= 2
        assert abs(exact_distinct(s) - exact_distinct(t)) <= 2
        assert abs(exact_l2(s) - exact_l2(t)) <= 2.0 + 1e-12


def test_neighbor_impossible_for_singleton_insert_universe():
    s = UpdateStream(universe_size=1, updates=[(0, 1)], mode="insert")
    with pytest.raises(ValueError):
        stream_neighbor(s, make_rng(0))


def test_neighbor_of_empty_stream_rejected():
    s = UpdateStream(universe_size=3, updates=[])
    with pytest.raises(ValueError):
        stream_neighbor(s, make_rng(0))


def test_demo_streams():
    ins = load_stream("data/demo_stream_insert.txt")
    assert ins.mode == "insert"
    assert exact_distinct(ins) == 30
    assert exact_f2(ins) == 1474.0
    tur = load_stream("data/demo_stream_turnstile.txt")
    assert tur.mode == "turnstile"
    assert min(d for _, d in tur.updates) == -1
