import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox import sketches, streams
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


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), reps=st.integers(1, 5), step_words=st.integers(1, 30),
       items=st.lists(st.integers(0, 60), max_size=80))
def test_kmv_multi_step_merge_matches_one_at_a_time(k, reps, step_words, items):
    # With the step budget cut down, one bulk insert takes several merge
    # steps (down to one item each); its rows must equal inserting the
    # items one by one, bit for bit.
    single = KmvSketch(k, reps, make_rng(32))
    for item in items:
        single.update(item)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sketches, "_KMV_STEP_WORDS", step_words)
        stepped = KmvSketch(k, reps, make_rng(32))
        stepped.update_bulk(items)
    assert np.array_equal(stepped.minima, single.minima)
    assert stepped.estimate().hex() == single.estimate().hex()
    assert stepped.space_words == single.space_words


def _reference_merge(minima, salts, k, items):
    """The concatenate-and-sort merge the banded kernel replaced, with
    np.unique for the distinct items: each step hashes its items under all
    salts at once, sorts each row as floats, marks a repeat +inf and sorts
    again. Returns the new minima."""
    uniq = np.unique(np.asarray(items, dtype=np.int64))
    rows = salts.size
    step = max(1, sketches._KMV_STEP_WORDS // rows)
    for lo in range(0, uniq.size, step):
        hashes = _kmv_hash(uniq[None, lo:lo + step], salts[:, None])
        held = minima.shape[1]
        merged = np.concatenate([minima, hashes], axis=1)
        merged.sort(axis=1)
        dup = merged[:, 1:] == merged[:, :-1]
        dup &= merged[:, 1:] < np.inf
        if dup.any():
            merged[:, 1:][dup] = np.inf
            merged.sort(axis=1, kind="stable")
        width = min(k, held + sketches._width(merged[:, held:]))
        minima = merged if width == merged.shape[1] else merged[:, :width].copy()
    return minima


def _reference_estimate(minima, k):
    """The median of the per-row values, each held count counted over the
    whole row."""
    values = np.count_nonzero(minima < np.inf, axis=1).astype(np.float64)
    if minima.shape[1] == k:
        full = values == k
        values[full] = (k - 1) / minima[full, -1]
    return float(np.median(values))


def _coarse_mix(low_bits):
    """_mix64 with the low bits of every output cleared, so that distinct
    items share hashes."""
    mix, mask = sketches._mix64, ~np.uint64(2 ** low_bits - 1)

    def coarse(z):
        z = mix(z)
        z &= mask
        return z
    return coarse


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 12), reps=st.integers(1, 5),
       first=st.lists(st.integers(-3, 60), max_size=40),
       items=st.lists(st.integers(-3, 60), max_size=80),
       step_words=st.integers(1, 40), band_words=st.integers(1, 40), coarse=st.booleans())
def test_kmv_banded_kernel_matches_the_concatenate_and_sort_merge(
        k, reps, first, items, step_words, band_words, coarse):
    # Two inserts, the second into the rows the first left, with the step and
    # band budgets cut down so that one insert spans several steps and bands;
    # with coarse, hashes keep 6 bits, so distinct items collide and the +inf
    # duplicate path runs. After each insert the rows must equal the old
    # merge's bit for bit.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sketches, "_KMV_STEP_WORDS", step_words)
        mp.setattr(sketches, "_KMV_BAND_WORDS", band_words)
        if coarse:
            mp.setattr(sketches, "_mix64", _coarse_mix(58))
        sk = KmvSketch(k, reps, make_rng(37))
        minima = sk.minima
        for part in (first, items):
            sk.update_bulk(part)
            minima = _reference_merge(minima, sk.salts, k, part)
            assert np.array_equal(sk.minima, minima)
            assert sk.estimate().hex() == _reference_estimate(minima, k).hex()


def test_kmv_colliding_hashes_are_held_once(monkeypatch):
    # With the low 40 bits of every hash cleared, 20,000 items share about a
    # dozen float hashes per row; each shared value is held once, as the old
    # merge held it, whether it arrives in one insert or the second of two.
    monkeypatch.setattr(sketches, "_mix64", _coarse_mix(40))
    monkeypatch.setattr(sketches, "_KMV_BAND_WORDS", 5_000)
    items = np.arange(20_000)
    whole, split = KmvSketch(30_000, 8, make_rng(38)), KmvSketch(30_000, 8, make_rng(38))
    whole.update_bulk(items)
    split.update_bulk(items[::2])
    split.update_bulk(items)
    reference = _reference_merge(np.empty((8, 0)), whole.salts, 30_000, items)
    assert np.array_equal(whole.minima, reference)
    assert np.array_equal(split.minima, reference)
    held = np.count_nonzero(reference < np.inf, axis=1)
    assert held.max() < items.size and held.min() > items.size - 100
    assert whole.estimate().hex() == _reference_estimate(reference, 30_000).hex()


def test_kmv_rejects_non_integer_items(monkeypatch):
    # A float item is refused, not truncated, before anything is hashed, and
    # the sketch keeps its rows; an empty insert is still a no-op.
    sk = KmvSketch(k=8, reps=3, rng=make_rng(39))
    sk.update_bulk([1, 2])
    held = sk.minima.copy()

    def no_hashing(z):
        raise AssertionError("hashed a refused insert")
    monkeypatch.setattr(sketches, "_mix64", no_hashing)
    for bad in (lambda: sk.update_bulk([2.5, 2.9, 2]), lambda: sk.update(2.7),
                lambda: sk.update_bulk(np.array([3.0]))):
        with pytest.raises(ValueError, match="^items must be integers, got float64$"):
            bad()
    sk.update_bulk([])
    assert np.array_equal(sk.minima, held)
    assert sk.estimate() == 2.0


def test_kmv_refuses_oversized_merge_before_hashing(monkeypatch):
    # 200 new items into 8 empty rows, one step: W = 200 minima and S = 200
    # items a row, 8 * (8 * (2W + 3S) + 3S) = 68,800 bytes.
    sk = KmvSketch(k=1000, reps=8, rng=make_rng(24))
    monkeypatch.setattr(streams, "_MAX_BYTES", 68_799)
    with pytest.raises(ValueError, match="KMV sketch of 8 rows x 200 minima needs"):
        sk.update_bulk(np.arange(200))
    assert sk.minima.shape == (8, 0)
    monkeypatch.setattr(streams, "_MAX_BYTES", 68_800)
    sk.update_bulk(np.arange(200))
    assert sk.estimate() == 200.0
    # Past k the minima stop growing: 200 more items into full rows of
    # k = 300 need 8 * (8 * (600 + 600) + 600) bytes, W being 300, not 500.
    monkeypatch.setattr(streams, "_MAX_BYTES", _MAX_BYTES)
    full = KmvSketch(k=300, reps=8, rng=make_rng(24))
    full.update_bulk(np.arange(1000))
    monkeypatch.setattr(streams, "_MAX_BYTES", 81_599)
    with pytest.raises(ValueError, match="KMV sketch of 8 rows x 300 minima needs"):
        full.update_bulk(np.arange(1000, 1200))
    monkeypatch.setattr(streams, "_MAX_BYTES", 81_600)
    full.update_bulk(np.arange(1000, 1200))


@pytest.mark.parametrize("k, held, new, repeats, step_words", [
    (200_000, 150_000, 10_000, 0, None),        # one step, no trimmed copy
    (200_000, 150_000, 10_000, 5_000, None),    # repeats leave +inf columns to trim
    (1_000, 5_000, 50_000, 2_000, None),        # rows full at k
    (50_000, 40_000, 30_000, 0, 2 ** 12),       # 59 steps of 512 items
])
def test_kmv_merge_peak_stays_within_what_the_cap_counts(monkeypatch, k, held, new,
                                                         repeats, step_words):
    # The held minima are traced too, so the peak above everything else live
    # before the merge is every array the merge holds at once, held minima
    # included.
    counted = []
    check = sketches._check_bytes
    monkeypatch.setattr(sketches, "_check_bytes",
                        lambda need, *args: counted.append(need) or check(need, *args))
    if step_words:
        monkeypatch.setattr(sketches, "_KMV_STEP_WORDS", step_words)
    tracemalloc.start()
    try:
        sk = KmvSketch(k=k, reps=8, rng=make_rng(30))
        sk.update_bulk(np.arange(held))
        uniq = streams._sorted_distinct(np.arange(held - repeats, held - repeats + new))
        counted.clear()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0] - sk.minima.nbytes
        sk._merge(uniq)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert peak <= counted[0]


def test_stacked_rows_refused_past_the_cap(monkeypatch):
    kmv = KmvSketch(k=50, reps=4, rng=make_rng(25))
    kmv.update_bulk(np.arange(10))
    ams = AmsSketch(4, 100, 50, make_rng(26))
    # One more block fits; a second would pass the cap.
    monkeypatch.setattr(streams, "_MAX_BYTES", 8 * 8 * 10)
    kmv.append_rows(KmvSketch(k=50, reps=4, rng=make_rng(27)))
    with pytest.raises(ValueError, match="KMV sketch of 12 rows x 10 needs"):
        kmv.append_rows(KmvSketch(k=50, reps=4, rng=make_rng(28)))
    assert kmv.rows == 8
    monkeypatch.setattr(streams, "_MAX_BYTES", _ams_footprint(8, 100))
    ams.append_rows(AmsSketch(4, 100, 50, make_rng(29)))
    with pytest.raises(ValueError, match="AMS grid 12 x 100 needs"):
        ams.append_rows(AmsSketch(4, 100, 50, make_rng(30)))
    assert ams.rows == 8


def test_stacked_rows_keep_each_block_bit_for_bit():
    # append_rows then take_rows: every row keeps its own state, and the
    # narrower block is padded and trimmed back.
    a, b = KmvSketch(6, 3, make_rng(33)), KmvSketch(6, 3, make_rng(34))
    a.update_bulk(np.arange(40))
    b.update_bulk([1, 2])
    stack = KmvSketch(6, 3, make_rng(33))
    stack.update_bulk(np.arange(40))
    stack.append_rows(b)
    assert stack.rows == 6 and stack.minima.shape == (6, 6)
    assert stack.space_words == a.space_words + b.space_words
    assert stack.row_values().tolist() == a.row_values().tolist() + b.row_values().tolist()
    stack.take_rows([3, 4, 5])
    assert np.array_equal(stack.minima, b.minima)
    assert np.array_equal(stack.salts, b.salts)
    x, y = AmsSketch(3, 5, 20, make_rng(35)), AmsSketch(3, 5, 20, make_rng(36))
    x.update_bulk([1, 2, 2], [1, 1, 1])
    y.update(7)
    x.append_rows(y)
    x.take_rows([3, 4, 5])
    assert np.array_equal(x.counters, y.counters) and np.array_equal(x.coeffs, y.coeffs)
    with pytest.raises(ValueError):
        a.append_rows(KmvSketch(7, 3, make_rng(0)))
    with pytest.raises(ValueError):
        x.append_rows(AmsSketch(3, 6, 20, make_rng(0)))


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


def test_ams_consume_refuses_a_larger_universe():
    sk = AmsSketch(2, 4, 5, make_rng(0))
    with pytest.raises(ValueError, match="stream universe exceeds sketch universe"):
        sk.consume(UpdateStream(6, [(5, 1)], "turnstile"))
    assert not sk.counters.any()
