import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.noise import make_rng
from dpbox.windows import (DistinctExactFamily, F2ExactFamily, SketchFamily,
                           SmoothHistogram, SmoothnessParams, _prune,
                           smooth_histogram_distinct,
                           smooth_histogram_f2, smoothness_check_de,
                           smoothness_check_f2)


def window_distinct(items, w):
    return float(len(set(items[-w:])))


def window_f2(items, w):
    counts = Counter(items[-w:])
    return float(sum(c * c for c in counts.values()))


# ---------------------------------------------------------------- smoothness


def test_smoothness_thresholds():
    assert smoothness_check_de(0.2) == 0.2
    assert smoothness_check_f2(0.2) == pytest.approx(0.02)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            smoothness_check_de(bad)
        with pytest.raises(ValueError):
            smoothness_check_f2(bad)


def test_smoothness_params_validation():
    SmoothnessParams(rho=0.3, xi=0.3)
    SmoothnessParams(rho=0.3, xi=0.01)
    with pytest.raises(ValueError):
        SmoothnessParams(rho=0.3, xi=0.4)
    with pytest.raises(ValueError):
        SmoothnessParams(rho=1.0, xi=0.5)
    with pytest.raises(ValueError):
        SmoothnessParams(rho=0.3, xi=0.0)


def _suffix_metric_table(stream, metric):
    """table[j][t] = metric of stream[j:t], for 0 <= j <= t <= len."""
    n = len(stream)
    table = [[0.0] * (n + 1) for _ in range(n + 1)]
    for j in range(n):
        counts = Counter()
        for t in range(j + 1, n + 1):
            counts[stream[t - 1]] += 1
            if metric == "de":
                table[j][t] = float(len(counts))
            else:
                table[j][t] = float(sum(c * c for c in counts.values()))
    return table


@pytest.mark.parametrize("metric,rho,xi_fn",
                         [("de", 0.3, smoothness_check_de),
                          ("f2", 0.3, smoothness_check_f2),
                          ("f2", 0.6, smoothness_check_f2)])
def test_suffix_smoothness_exhaustive(metric, rho, xi_fn):
    # The pruning rule is sound only if a (1-xi) relation between two suffix
    # estimates, once observed, keeps the later suffix within (1-rho) of the
    # earlier one for the rest of the stream. Checked exhaustively on every
    # stream of length <= 6 over a 3-item universe.
    xi = xi_fn(rho)
    for length in range(1, 7):
        for stream in itertools.product(range(3), repeat=length):
            table = _suffix_metric_table(stream, metric)
            for j1 in range(length):
                for j2 in range(j1 + 1, length):
                    for t in range(j2 + 1, length + 1):
                        if table[j2][t] >= (1.0 - xi) * table[j1][t]:
                            for t2 in range(t + 1, length + 1):
                                assert (table[j2][t2] >=
                                        (1.0 - rho) * table[j1][t2] - 1e-12), \
                                    (metric, stream, j1, j2, t, t2)


# ---------------------------------------------------------------- families


def test_distinct_exact_family_hand_run():
    fam = DistinctExactFamily()
    fam.ingest(5, [1])
    fam.ingest(8, [1, 2])
    fam.ingest(5, [1, 2, 3])
    # Suffixes from times 1, 2, 3 over the arrivals (5, 8, 5).
    assert fam.estimates() == [2.0, 2.0, 1.0]
    fam.keep([0, 2])
    assert fam.estimates() == [2.0, 1.0]


def test_f2_exact_family_hand_run():
    fam = F2ExactFamily()
    fam.ingest(5, [1])
    fam.ingest(8, [1, 2])
    fam.ingest(5, [1, 2, 3])
    assert fam.estimates() == [5.0, 2.0, 1.0]


def _state_size(obj) -> int:
    """Entries held in obj's containers, nested containers included."""
    if isinstance(obj, dict):
        return len(obj) + sum(_state_size(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return len(obj) + sum(_state_size(v) for v in obj)
    return 0


def test_f2_exact_family_state_bounded_by_live_instances():
    # Over a fixed window the state must not grow with the stream: at most
    # one count per live instance and item, plus each instance's own entries.
    universe = 20
    rng = make_rng(79)
    h = smooth_histogram_f2(100, 0.3, 0.3, 0.3, universe, rng, exact=True)
    for t, item in enumerate(rng.integers(0, universe, size=10_000).tolist(), start=1):
        h.update(item)
        if t % 100 == 0:
            assert _state_size(vars(h.family)) <= (universe + 2) * h.instance_count()


@pytest.mark.parametrize("universe, window, rho", [(None, 50, 0.1), (2970, 24, 0.3)])
def test_distinct_exact_family_last_seen_bounded_by_live_span(universe, window, rho):
    # An arrival before the first live start acts as "never seen", so the
    # map holds O(updates since that start) entries, not one per distinct
    # item ever seen (10,000 here when every item is new).
    rng = make_rng(80)
    items = (list(range(10_000)) if universe is None
             else rng.integers(0, universe, size=10_000).tolist())
    h = smooth_histogram_distinct(window, rho, 0.3, 0.3, rng, exact=True)
    for item in items:
        h.update(item)
        assert len(h.family._last_seen) <= 2 * (h.clock - h.starts[0] + 1)


# ---------------------------------------------------------------- pruning


def _fixpoint_keep(est, xi):
    """Reference copy of the earlier pruning rule: forward passes, each
    deleting the middle of any kept triple with est[i+2] >= (1-xi)*est[i],
    repeated until a pass deletes nothing."""
    thresh = 1.0 - xi
    keep = list(range(len(est)))
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 2 < len(keep):
            if est[keep[i + 2]] >= thresh * est[keep[i]]:
                del keep[i + 1]
                changed = True
            else:
                i += 1
    return keep


_ESTIMATES = st.one_of(
    st.lists(st.floats(0.0, 1e6), max_size=40),
    st.lists(st.integers(0, 60).map(float), max_size=40))
_XI = st.floats(0.001, 0.9)


@settings(deadline=None)
@given(_ESTIMATES, _XI)
def test_prune_matches_fixpoint_on_non_increasing_estimates(est, xi):
    # Exact families always give non-increasing estimates over the starts.
    est = sorted(est, reverse=True)
    starts = list(range(1, len(est) + 1))
    assert _prune(est, starts, 0, xi) == _fixpoint_keep(est, xi)


@settings(deadline=None)
@given(_ESTIMATES, _XI, st.integers(0, 45))
def test_prune_keeps_a_smooth_histogram_on_any_estimates(est, xi, cutoff):
    # Sketch noise can reorder estimates; the kept set may then differ from
    # the fixpoint rule's, but it must still be a valid smooth histogram.
    thresh = 1.0 - xi
    starts = list(range(1, len(est) + 1))
    keep = _prune(est, starts, 0, xi)
    if est:
        assert keep[0] == 0 and keep[-1] == len(est) - 1
    for a, c in zip(keep, keep[2:]):
        assert est[c] < thresh * est[a]
    # Every deleted index lies between kept neighbours a and c that meet the
    # deletion condition.
    for a, c in zip(keep, keep[1:]):
        assert a < c
        if c > a + 1:
            assert est[c] >= thresh * est[a]
    # The cut keeps the suffix from the last kept start at or before cutoff.
    outside = [i for i, j in enumerate(keep) if starts[j] <= cutoff]
    assert _prune(est, starts, cutoff, xi) == keep[outside[-1] if outside else 0:]


# ---------------------------------------------------------------- histogram


def test_first_update_and_query():
    h = smooth_histogram_distinct(10, 0.2, 0.2, 0.2, make_rng(0), exact=True)
    with pytest.raises(ValueError):
        h.query()
    h.update(4)
    assert h.instance_count() == 1
    assert h.query() == 1.0


def test_constant_stream_collapses_instances():
    h = smooth_histogram_distinct(100, 0.3, 0.3, 0.3, make_rng(0), exact=True)
    for _ in range(500):
        h.update(7)
        # Every instance estimates 1, so pruning keeps the list at <= 3.
        assert h.instance_count() <= 3
    assert h.query() == 1.0


def test_window_covering_whole_stream_is_exact():
    rng = make_rng(70)
    items = [int(x) for x in rng.integers(0, 25, size=300)]
    de = smooth_histogram_distinct(1000, 0.2, 0.2, 0.2, rng, exact=True)
    f2 = smooth_histogram_f2(1000, 0.4, 0.4, 0.2, 25, rng, exact=True)
    for it in items:
        de.update(it)
        f2.update(it)
    assert de.query() == window_distinct(items, 1000)
    assert f2.query() == window_f2(items, 1000)


@pytest.mark.parametrize("rho", [0.02, 0.1, 0.3])
def test_distinct_exact_family_window_bound_every_prefix(rho):
    rng = make_rng(71)
    items = [int(x) for x in rng.integers(0, 30, size=600)]
    h = smooth_histogram_distinct(50, rho, 0.1, 0.1, rng, exact=True)
    for t, it in enumerate(items, start=1):
        h.update(it)
        ans = h.query()
        truth = window_distinct(items[:t], 50)
        assert ans <= truth + 1e-9
        assert ans >= (1.0 - rho) * truth - 1e-9


@pytest.mark.parametrize("rho", [0.1, 0.3])
def test_f2_exact_family_window_bound_every_prefix(rho):
    rng = make_rng(72)
    items = [int(x) for x in rng.integers(0, 10, size=500)]
    h = smooth_histogram_f2(60, rho, 0.1, 0.1, 10, rng, exact=True)
    for t, it in enumerate(items, start=1):
        h.update(it)
        ans = h.query()
        truth = window_f2(items[:t], 60)
        assert ans <= truth + 1e-9
        assert ans >= (1.0 - rho) * truth - 1e-9


def test_at_most_one_straddler_survives():
    rng = make_rng(73)
    h = smooth_histogram_distinct(50, 0.2, 0.2, 0.2, rng, exact=True)
    for t in range(1, 301):
        h.update(int(rng.integers(0, 40)))
        outside = sum(s <= h.clock - h.window for s in h.starts)
        assert outside <= 1
        # Starts stay strictly increasing.
        assert all(a < b for a, b in zip(h.starts, h.starts[1:]))


def test_instance_bound_on_all_distinct_stream():
    # Worst case for instance growth: every arrival is new. The bound
    # (4/xi) * log2(max estimate + 2) + 2 must hold throughout; update()
    # asserts it internally, and the final count is rechecked here.
    h = smooth_histogram_distinct(10_000, 0.1, 0.1, 0.1, make_rng(74),
                                  exact=True)
    for item in range(10_000):
        h.update(item)
    bound = (4.0 / 0.1) * math.log2(10_000 + 2) + 2.0
    assert h.instance_count() <= bound
    # Far fewer instances than updates is the point of the structure.
    assert h.instance_count() < 300


def test_prune_fixpoint_invariant_with_sketches():
    # Sketch noise can reorder estimates, so after every update the pruned
    # list must still satisfy est[i+2] < (1-xi) * est[i] for all i.
    rng = make_rng(75)
    h = smooth_histogram_distinct(100, 0.25, 0.4, 0.4, rng)
    xi = h.params.xi
    items = rng.integers(0, 200, size=400)
    for it in items:
        h.update(int(it))
        est = h.family.estimates()
        for i in range(len(est) - 2):
            assert est[i + 2] < (1.0 - xi) * est[i]
        assert len(est) == len(h.starts)


def test_kmv_backed_window_combined_error():
    rng = make_rng(76)
    rho, alpha = 0.2, 0.3
    h = smooth_histogram_distinct(200, rho, alpha, 0.3, rng)
    combined = rho + alpha + rho * alpha
    items = [int(x) for x in rng.integers(0, 900, size=1200)]
    hits = checks = 0
    for t, it in enumerate(items, start=1):
        h.update(it)
        if t % 100 == 0:
            truth = window_distinct(items[:t], 200)
            if abs(h.query() - truth) <= combined * truth:
                hits += 1
            checks += 1
    assert hits >= math.ceil(0.95 * checks)


def test_ams_backed_window_combined_error():
    rng = make_rng(77)
    rho, alpha = 0.35, 0.35
    h = smooth_histogram_f2(120, rho, alpha, 0.45, 25, rng)
    combined = rho + alpha + rho * alpha
    items = [int(x) for x in rng.integers(0, 25, size=500)]
    hits = checks = 0
    for t, it in enumerate(items, start=1):
        h.update(it)
        if t % 50 == 0:
            truth = window_f2(items[:t], 120)
            if abs(h.query() - truth) <= combined * truth:
                hits += 1
            checks += 1
    assert hits >= math.ceil(0.95 * checks)


def test_sketch_family_tracks_instances():
    rng = make_rng(78)
    h = smooth_histogram_distinct(50, 0.3, 0.5, 0.4, rng)
    for it in range(120):
        h.update(it % 17)
        assert len(h.family.sketches) == len(h.starts) == h.instance_count()
        assert h.starts == sorted(h.starts)
        for est in h.family.estimates():
            assert est >= 0.0


def test_update_wrapper():
    h = smooth_histogram_distinct(10, 0.2, 0.2, 0.2, make_rng(0), exact=True)
    h.update(3)
    assert h.clock == 1


def test_window_validation():
    with pytest.raises(ValueError):
        SmoothHistogram(0, SmoothnessParams(0.2, 0.2), DistinctExactFamily())
