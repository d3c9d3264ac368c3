import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.noise import make_rng
from dpbox.sketches import _AMS_PASS_CELLS, AmsSketch, KmvSketch, _kmv_hash
from dpbox.streams import _MAX_BYTES, UpdateStream, exact_distinct, exact_f2
from helpers import random_stream


# ---------------------------------------------------------------- AMS


def test_ams_sizing():
    sk = AmsSketch.from_accuracy(0.2, 0.05, 100, make_rng(0))
    assert sk.rows == 178          # ceil(48 * ln(2/0.05))
    assert sk.cols == 400          # ceil(16 / 0.2^2)
    sk2 = AmsSketch.from_accuracy(0.5, 1.0 / 3.0, 100, make_rng(0))
    assert sk2.rows == 87
    assert sk2.cols == 64
    assert sk2.space_words == 87 * 64 + 6 * 87


def test_ams_validation():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        AmsSketch(0, 4, 10, rng)
    with pytest.raises(ValueError):
        AmsSketch(4, 4, 2 ** 31 - 1, rng)  # universe must stay below the prime
    AmsSketch(4, 4, 2 ** 31 - 2, rng)
    sk = AmsSketch(4, 4, 10, rng)
    with pytest.raises(ValueError):
        sk.update(10, 1)
    with pytest.raises(ValueError):
        sk.update_bulk([1, 2], [1])
    with pytest.raises(ValueError):
        sk.update_bulk([1, 12], [1, 1])


def _ams_footprint(rows, cols):
    # 8-byte counters, 6 coefficients per row, and three rows x chunk
    # buffers during an update pass.
    chunk = max(1, _AMS_PASS_CELLS // rows)
    return 8 * (rows * cols + 6 * rows + 3 * rows * chunk)


def test_ams_refuses_oversized_grid_before_drawing():
    # The l2 preset's grid on the demo turnstile stream: 288 x 518,368.
    rng = make_rng(0)
    state = rng.bit_generator.state
    assert _ams_footprint(288, 518_368) > _MAX_BYTES
    with pytest.raises(ValueError, match="AMS grid 288 x 518368 needs 1.1 GiB"):
        AmsSketch(288, 518_368, 20, rng)
    assert rng.bit_generator.state == state
    # The stream benchmark's and criterion 08's grids stay far below the cap.
    for rows, cols in ((211, 528), (87, 400)):
        assert _ams_footprint(rows, cols) < _MAX_BYTES / 8
        assert AmsSketch(rows, cols, 150, rng).counters.shape == (rows, cols)


def test_ams_empty_estimate_zero():
    sk = AmsSketch(8, 16, 50, make_rng(1))
    assert sk.estimate() == 0.0


def test_ams_single_item_is_exact():
    # One item with frequency c lands in one counter per row as +/- c, so
    # every row's sum of squares is exactly c^2 and so is the estimate.
    sk = AmsSketch(8, 16, 50, make_rng(2))
    for _ in range(5):
        sk.update(7, 1)
    assert np.all(np.count_nonzero(sk.counters, axis=1) == 1)
    assert np.all(np.abs(sk.counters).sum(axis=1) == 5)
    assert sk.estimate() == 25.0


def test_ams_rejects_non_integer_updates():
    # Casting would hash 2.5 as item 2 and turn delta 0.5 into 0.
    sk = AmsSketch(4, 4, 10, make_rng(0))
    for bad in (lambda: sk.update(2.5), lambda: sk.update(3, 0.5),
                lambda: sk.update_bulk([2.5], [1]), lambda: sk.update_bulk([2], [1.0])):
        with pytest.raises(ValueError, match="integers"):
            bad()
    assert not sk.counters.any()
    sk.update(np.int64(2), np.int32(-1))
    assert np.all(np.abs(sk.counters).sum(axis=1) == 1)


def test_ams_insert_delete_cancellation_bitwise():
    sk = AmsSketch(16, 32, 64, make_rng(3))
    rng = make_rng(4)
    items = rng.integers(0, 64, size=300)
    for it in items:
        sk.update(int(it), 1)
    for it in items[::-1]:
        sk.update(int(it), -1)
    assert np.all(sk.counters == 0)
    assert sk.estimate() == 0.0


def test_ams_bulk_equals_sequential_bitwise():
    s = random_stream(40, 500, "turnstile", make_rng(5))
    a = AmsSketch(16, 32, 40, make_rng(6))
    b = AmsSketch(16, 32, 40, make_rng(6))
    for item, delta in zip(s.items.tolist(), s.deltas.tolist()):
        a.update(item, delta)
    b.consume(s)
    assert np.array_equal(a.counters, b.counters)
    assert a.estimate() == b.estimate()


def test_ams_estimate_two_items():
    # Frequencies (3, 4): F2 = 25. At alpha=0.2, delta=0.05 the estimate must
    # land within (1 +/- 0.2) * 25 in at least 95% of trials; the observed
    # rate over 500 seeded trials is checked against that with 3 binomial
    # sigma of slack.
    hits = 0
    trials = 500
    for t in range(trials):
        sk = AmsSketch.from_accuracy(0.2, 0.05, 10, make_rng(7, t))
        sk.update_bulk([0] * 3 + [1] * 4, [1] * 7)
        if abs(sk.estimate() - 25.0) <= 0.2 * 25.0:
            hits += 1
    sigma = math.sqrt(0.95 * 0.05 / trials)
    assert hits / trials >= 0.95 - 3 * sigma


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 9),
       updates=st.lists(st.tuples(st.integers(0, 40), st.sampled_from((-1, 1))),
                        max_size=80),
       data=st.data())
def test_ams_any_split_into_updates_matches_one_consume(rows, cols, updates, data):
    # Cut a turnstile update list at random points, shuffle the pieces, and
    # feed each piece through update or update_bulk: the counters must equal
    # one consume of the whole list bitwise, because the sketch is linear.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(updates)), max_size=6)))
    bounds = [0, *cuts, len(updates)]
    pieces = [updates[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    pieces = data.draw(st.permutations(pieces))
    split = AmsSketch(rows, cols, 41, make_rng(32))
    for piece in pieces:
        if data.draw(st.booleans()):
            for item, delta in piece:
                split.update(item, delta)
        else:
            split.update_bulk([it for it, _ in piece], [d for _, d in piece])
    whole = AmsSketch(rows, cols, 41, make_rng(32))
    whole.consume(UpdateStream(41, updates, "turnstile"))
    assert np.array_equal(split.counters, whole.counters)
    # Appending the negated updates cancels every counter.
    negated = [(item, -delta) for item, delta in updates]
    for item, delta in data.draw(st.permutations(negated)):
        split.update(item, delta)
    assert not split.counters.any()
    both = AmsSketch(rows, cols, 41, make_rng(32))
    both.consume(UpdateStream(41, updates + negated, "turnstile"))
    assert not both.counters.any()


def test_ams_counter_unbiasedness_and_fourth_moment():
    # With one column per row, each row mean is a single Z^2; across 100k
    # rows the average must match F2 = 6 within 3 sigma, where
    # Var(Z^2) = 3*F2^2 - 2*F4 - F2^2 = 36 for frequencies (2, 1, 1).
    # This exercises the 4-wise independence of the sign polynomials.
    sk = AmsSketch(100_000, 1, 3, make_rng(8))
    sk.update_bulk([0, 0, 1, 2], [1, 1, 1, 1])
    z = sk.counters.astype(np.float64)[:, 0]
    mean = float((z * z).mean())
    sigma = 6.0 / math.sqrt(100_000)
    assert abs(mean - 6.0) < 3 * sigma


def test_ams_bucketed_row_mean_and_variance():
    # With cols > 1 each row's estimate is sum_i f_i^2 plus a cross term over
    # the item pairs that share a bucket. A collision has probability 1/cols
    # (up to cols/p for the prime p of the bucket hash), so the estimate is
    # unbiased with variance 2*(F2^2 - F4)/cols. For
    # frequencies (3, 2, 1, 1), F2 = 15 and F4 = 99: variance 31.5 at 8 cols.
    rows, cols = 100_000, 8
    sk = AmsSketch(rows, cols, 50, make_rng(34))
    sk.update_bulk([5, 5, 5, 17, 17, 40, 41], [1] * 7)
    z = sk.counters.astype(np.float64)
    est = (z * z).sum(axis=1)
    var = 2.0 * (15.0 ** 2 - 99.0) / cols
    assert abs(est.mean() - 15.0) < 3 * math.sqrt(var / rows)
    # The sample variance's standard error comes from the sample's own
    # fourth central moment.
    dev = est - est.mean()
    sample_var = float((dev ** 2).mean())
    stderr = math.sqrt((float((dev ** 4).mean()) - sample_var ** 2) / rows)
    assert abs(sample_var - var) < 3 * stderr


def test_ams_accuracy_on_random_stream():
    s = random_stream(200, 5000, "insert", make_rng(9))
    truth = exact_f2(s)
    sk = AmsSketch.from_accuracy(0.2, 0.05, 200, make_rng(10))
    sk.consume(s)
    assert abs(sk.estimate() - truth) <= 0.2 * truth


def test_ams_wrappers():
    sk = AmsSketch(4, 4, 10, make_rng(11))
    sk.update(3, 1)
    # One counter per row holds +/-1 after one unit update, so F2 reads
    # exactly 1.
    assert sk.estimate() == 1.0


# ---------------------------------------------------------------- KMV


def test_kmv_sizing():
    sk = KmvSketch.from_accuracy(0.1, 1.0 / 3.0, make_rng(0))
    assert sk.k == 1600
    assert sk.reps == 22
    sk2 = KmvSketch.from_accuracy(0.2, 0.05, make_rng(0))
    assert sk2.k == 400 and sk2.reps == 45
    # The meter counts words held: the salts alone, then 10 minima per copy.
    assert sk2.space_words == 45
    sk2.update_bulk(range(10))
    assert sk2.space_words == 45 * 10 + 45
    with pytest.raises(ValueError):
        KmvSketch(0, 4, make_rng(0))
    with pytest.raises(ValueError):
        KmvSketch.from_accuracy(0.0, 0.1, make_rng(0))


def test_kmv_empty_and_sub_threshold_exact():
    sk = KmvSketch(k=64, reps=9, rng=make_rng(12))
    assert sk.estimate() == 0.0
    items = list(range(40)) * 3  # 40 distinct, repeated arrivals
    rng = make_rng(13)
    rng.shuffle(items)
    for it in items:
        sk.update(int(it))
    # Below k distinct hashes every copy stores them all and counts exactly.
    assert sk.estimate() == 40.0


def test_kmv_estimate_monotone_under_insertions():
    sk = KmvSketch(k=8, reps=5, rng=make_rng(14))
    rng = make_rng(15)
    prev = 0.0
    for _ in range(300):
        sk.update(int(rng.integers(0, 500)))
        est = sk.estimate()
        assert est >= prev - 1e-12
        prev = est


def test_kmv_bulk_equals_sequential():
    items = make_rng(16).integers(0, 2000, size=1500)
    a = KmvSketch(k=32, reps=7, rng=make_rng(17))
    b = KmvSketch(k=32, reps=7, rng=make_rng(17))
    for it in items:
        a.update(int(it))
    b.update_bulk(items)
    assert a.estimate() == b.estimate()


def _reference_minima(items, k, salts):
    """Per salt, the k smallest distinct _kmv_hash values, in plain Python."""
    rows = []
    for salt in salts:
        hashes = {float(h) for h in _kmv_hash(np.asarray(items, dtype=np.int64), salt)}
        rows.append(sorted(hashes)[:k])
    return rows


def _held_rows(sk):
    return [[float(h) for h in row if math.isfinite(h)] for row in sk.minima]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), reps=st.integers(1, 5),
       items=st.lists(st.integers(0, 60), max_size=80), data=st.data())
def test_kmv_any_split_into_updates_matches_one_bulk_insert(k, reps, items, data):
    # Cut the item list at random points, shuffle the pieces, and feed each
    # piece through update or update_bulk: the rows and the estimate must
    # equal one update_bulk of the whole list, and the rows must be the k
    # smallest distinct hashes per salt.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=6)))
    bounds = [0, *cuts, len(items)]
    pieces = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    pieces = data.draw(st.permutations(pieces))
    split = KmvSketch(k, reps, make_rng(31))
    for piece in pieces:
        if data.draw(st.booleans()):
            for item in piece:
                split.update(item)
        else:
            split.update_bulk(piece)
    whole = KmvSketch(k, reps, make_rng(31))
    whole.update_bulk(items)
    assert np.array_equal(split.minima, whole.minima)
    assert split.estimate() == whole.estimate()
    assert _held_rows(whole) == _reference_minima(items, k, whole.salts)
    assert whole.space_words == whole.minima.size + reps


def test_kmv_rejects_turnstile():
    sk = KmvSketch(k=8, reps=3, rng=make_rng(18))
    s = UpdateStream(universe_size=4, updates=[(0, 1), (0, -1)],
                     mode="turnstile")
    with pytest.raises(ValueError):
        sk.consume(s)


def test_kmv_accuracy_above_threshold():
    s = random_stream(8000, 12_000, "insert", make_rng(19))
    truth = exact_distinct(s)
    sk = KmvSketch.from_accuracy(0.1, 1.0 / 3.0, make_rng(20))
    sk.consume(s)
    assert truth > sk.k  # actually in the estimating regime
    assert abs(sk.estimate() - truth) <= 0.1 * truth


def test_kmv_repeated_trials_mostly_accurate():
    s = random_stream(3000, 4000, "insert", make_rng(21))
    truth = exact_distinct(s)
    hits = 0
    trials = 30
    for t in range(trials):
        sk = KmvSketch.from_accuracy(0.25, 1.0 / 3.0, make_rng(22, t))
        sk.consume(s)
        if abs(sk.estimate() - truth) <= 0.25 * truth:
            hits += 1
    assert hits >= 27


def test_kmv_hash_deterministic_in_salt():
    items = np.arange(100)
    h1 = _kmv_hash(items, np.uint64(12345))
    h2 = _kmv_hash(items, np.uint64(12345))
    h3 = _kmv_hash(items, np.uint64(54321))
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, h3)
    assert np.all(h1 > 0.0) and np.all(h1 <= 1.0)


def test_kmv_wrappers():
    sk = KmvSketch(k=4, reps=3, rng=make_rng(23))
    sk.update(9)
    assert sk.estimate() == 1.0
