import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox import graphs, streams
from dpbox.graphs import format_graph, load_graph
from dpbox.noise import make_rng
from dpbox.streams import (UpdateStream, _body_lines, _check_bytes, _int_rows, _sorted_distinct,
                           _walk_lines,
                           exact_distinct, exact_f2, exact_frequencies, exact_l2,
                           format_stream, load_stream, parse_stream, save_stream,
                           stream_neighbor)
from helpers import mostly, random_graph, random_stream


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
    assert s.items.tolist() == [2, 3] and s.deltas.tolist() == [1, -1]
    assert s.items.dtype == s.deltas.dtype == np.int64


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
        for item, delta in zip(s.items.tolist(), s.deltas.tolist()):
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
        diffs = [i for i in range(s.length)
                 if (s.items[i], s.deltas[i]) != (t.items[i], t.deltas[i])]
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
    assert tur.deltas.min() == -1


# ---------------------------------------------------------------- error table

# (file, message): the first error a line-by-line reader reports, pinned
# message for message. Line errors (arity, bad integers) come first in line
# order, then the universe and mode, then the first update that breaks the
# range or delta rule, with a range error before a delta error.
_MALFORMED_FILES = [
    ("", "empty stream file"),
    ("# nothing\n   \n#x\n", "empty stream file"),
    ("3 1\n0 1\n", "header must be 'n m mode', got '3 1'"),
    ("x 1 insert\n0 1\n", "invalid literal for int() with base 10: 'x'"),
    ("3 2 insert\n0 1\n", "header declares 2 updates but file has 1"),
    ("3 1 insert\n0\n", "update line must be 'item delta', got '0'"),
    ("3 1 insert\n0 1 1\n", "update line must be 'item delta', got '0 1 1'"),
    ("3 1 insert\n0 # 1\n", "update line must be 'item delta', got '0'"),
    ("3 1 insert\n2.5 1\n", "invalid literal for int() with base 10: '2.5'"),
    ("3 1 insert\n0x10 1\n", "invalid literal for int() with base 10: '0x10'"),
    ("3 1 insert\n3 1\n", "item 3 outside universe [0, 3)"),
    ("3 1 insert\n-1 1\n", "item -1 outside universe [0, 3)"),
    ("3 1 insert\n0 -1\n", "insertion-only stream update must have delta 1, got -1"),
    ("3 1 turnstile\n0 2\n", "delta must be +1 or -1, got 2"),
    ("3 2 insert\n2.5 1\n0 1 1\n", "invalid literal for int() with base 10: '2.5'"),
    ("3 2 insert\n0\nx 1\n", "update line must be 'item delta', got '0'"),
    ("3 2 insert\n5 1\n2.5 1\n", "invalid literal for int() with base 10: '2.5'"),
    ("3 1 insert\n5 2\n", "item 5 outside universe [0, 3)"),
    ("3 2 turnstile\n0 2\n5 1\n", "delta must be +1 or -1, got 2"),
    ("3 2 turnstile\n5 1\n0 2\n", "item 5 outside universe [0, 3)"),
    ("3 1 sliding\n0 1\n", "mode must be one of ('insert', 'turnstile'), got 'sliding'"),
    ("0 1 insert\n0 1\n", "universe_size must be >= 1, got 0"),
    ("3 1 sliding\nx 1\n", "invalid literal for int() with base 10: 'x'"),
    ("3 2 insert\n99999999999999999999 1\n0\n", "update line must be 'item delta', got '0'"),
    ("3 1 turnstile\n0 99999999999999999999\n",
     "delta must be +1 or -1, got 99999999999999999999"),
]


@pytest.mark.parametrize("text, message", _MALFORMED_FILES)
def test_parse_reports_the_first_error_with_its_message(text, message):
    with pytest.raises(ValueError) as info:
        parse_stream(text)
    assert str(info.value) == message


_MALFORMED_PAIRS = [
    (0, [], "insert", "universe_size must be >= 1, got 0"),
    (3, [], "sliding", "mode must be one of ('insert', 'turnstile'), got 'sliding'"),
    (3, [(3, 1)], "insert", "item 3 outside universe [0, 3)"),
    (3, [(-1, 1)], "insert", "item -1 outside universe [0, 3)"),
    (3, [(0, -1)], "insert", "insertion-only stream update must have delta 1, got -1"),
    (3, [(0, 2)], "turnstile", "delta must be +1 or -1, got 2"),
    (3, [(2.5, 1)], "turnstile", "update must be a pair of integers, got (2.5, 1)"),
    (3, [(1, 1.9)], "turnstile", "update must be a pair of integers, got (1, 1.9)"),
    (3, [("2", 1)], "turnstile", "update must be a pair of integers, got ('2', 1)"),
    (3, [(5, 2)], "insert", "item 5 outside universe [0, 3)"),
    (3, [(5, 1), (2.5, 1)], "insert", "item 5 outside universe [0, 3)"),
    (3, [(0, 1), (2.5, 1), (5, 1)], "insert",
     "update must be a pair of integers, got (2.5, 1)"),
    (3, [(0, 2), (5, 1)], "turnstile", "delta must be +1 or -1, got 2"),
    (3, [(0, 2 ** 64)], "turnstile", "delta must be +1 or -1, got 18446744073709551616"),
    (3, [(0, 1, 1)], "insert", "update must be a pair of integers, got (0, 1, 1)"),
    (3, [(0,)], "insert", "update must be a pair of integers, got (0,)"),
    (3, [(float("nan"), 1)], "insert", "update must be a pair of integers, got (nan, 1)"),
    (5, [(1, 1), (2, 1, 3)], "insert", "update must be a pair of integers, got (2, 1, 3)"),
    (3, [[2.5, 1]], "turnstile", "update must be a pair of integers, got (2.5, 1)"),
    (3, np.array([[0, 1], [7, 1]]), "insert", "item 7 outside universe [0, 3)"),
    (3, np.array([[2 ** 63, 1]], dtype=np.uint64), "insert",
     "item 9223372036854775808 outside universe [0, 3)"),
    (5, [(None, 1)], "turnstile", "update must be a pair of integers, got (None, 1)"),
    (5, [(1, math.inf)], "turnstile", "update must be a pair of integers, got (1, inf)"),
]


@pytest.mark.parametrize("n, updates, mode, message", _MALFORMED_PAIRS)
def test_constructor_reports_the_first_error_with_its_message(n, updates, mode, message):
    with pytest.raises(ValueError) as info:
        UpdateStream(universe_size=n, updates=updates, mode=mode)
    assert str(info.value) == message


@pytest.mark.parametrize("item", [2 ** 63, -2 ** 63 - 1, 10 ** 20])
@pytest.mark.parametrize("source", ["file", "constructor"])
def test_items_beyond_int64_are_range_errors(source, item):
    # numpy's int64 conversion overflows where int() does not; the stream
    # still reports the universe error of the item as written.
    with pytest.raises(ValueError) as info:
        if source == "file":
            parse_stream(f"3 2 insert\n0 1\n{item} 1\n")
        else:
            UpdateStream(universe_size=3, updates=[(0, 1), (item, 1)])
    assert str(info.value) == f"item {item} outside universe [0, 3)"


@pytest.mark.parametrize("source", ["file", "constructor"])
def test_items_beyond_int64_in_a_larger_universe_are_refused(source):
    # The arrays hold int64, so such an item cannot be kept; it is refused
    # with one line instead of an OverflowError.
    with pytest.raises(ValueError) as info:
        if source == "file":
            parse_stream(f"{2 ** 70} 1 insert\n{2 ** 64} 1\n")
        else:
            UpdateStream(universe_size=2 ** 70, updates=[(2 ** 64, 1)])
    assert str(info.value) == f"item {2 ** 64} does not fit in a 64-bit integer"


def test_streams_hash_and_compare_by_identity():
    s = UpdateStream(universe_size=3, updates=[(0, 1)])
    assert s == s and hash(s) == hash(s)
    assert s != UpdateStream(universe_size=3, updates=[(0, 1)])
    assert {s: 1}[s] == 1


def test_constructor_copies_its_input():
    pairs = np.array([[0, 1], [2, 1]])
    s = UpdateStream(universe_size=3, updates=pairs)
    pairs[0, 0] = 1
    assert s.items.tolist() == [0, 2]
    assert not s.items.flags.writeable and not s.deltas.flags.writeable


def test_neighbor_matches_the_pairwise_rule_at_fixed_seeds():
    # The rng draws come in the same order as for a list of pairs: the update
    # index, then item (and sign) until the pair differs from the old one.
    for seed in range(20):
        s = random_stream(4, 30, "turnstile" if seed % 2 else "insert", make_rng(seed))
        rng, ref = make_rng(seed, 1), make_rng(seed, 1)
        t = stream_neighbor(s, rng)
        pairs = list(zip(s.items.tolist(), s.deltas.tolist()))
        idx = int(ref.integers(s.length))
        while True:
            item = int(ref.integers(s.universe_size))
            delta = 1 if s.mode == "insert" else int(ref.choice((-1, 1)))
            if (item, delta) != pairs[idx]:
                break
        pairs[idx] = (item, delta)
        assert list(zip(t.items.tolist(), t.deltas.tolist())) == pairs


# ---------------------------------------------------------------- properties


@st.composite
def _streams(draw):
    n = draw(st.integers(1, 40))
    mode = draw(st.sampled_from(("insert", "turnstile")))
    items = draw(st.lists(st.integers(0, n - 1), max_size=40))
    if mode == "insert":
        deltas = [1] * len(items)
    else:
        deltas = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(items),
                               max_size=len(items)))
    return UpdateStream(universe_size=n, updates=list(zip(items, deltas)), mode=mode)


def _same_stream(a, b):
    return (a.universe_size == b.universe_size and a.mode == b.mode
            and np.array_equal(a.items, b.items) and np.array_equal(a.deltas, b.deltas)
            and a.items.dtype == b.items.dtype == np.int64
            and a.deltas.dtype == b.deltas.dtype == np.int64)


@settings(max_examples=100, deadline=None)
@given(s=_streams())
def test_format_parse_round_trip(s):
    text = format_stream(s)
    t = parse_stream(text)
    assert _same_stream(s, t)
    assert format_stream(t) == text
    # The line walk that reports errors reads a valid file the same way.
    walked = UpdateStream(s.universe_size, list(_walk_lines(text.splitlines()[1:], 2, "")),
                          s.mode)
    assert _same_stream(walked, t)


@settings(max_examples=100, deadline=None)
@given(s=_streams())
def test_exact_counts_match_the_dense_vector_in_any_universe(s):
    # exact_distinct and exact_f2 count from one netted sort of the updates
    # and give the dense frequency vector's answers, F2 bit for bit, also in
    # a universe of 2^40, whose vector would need 8 TiB. Only
    # exact_frequencies, which hands out the vector, refuses there.
    freq = exact_frequencies(s)
    huge = UpdateStream(2 ** 40, np.column_stack((s.items, s.deltas)), s.mode)
    for t in (s, huge):
        assert exact_distinct(t) == np.count_nonzero(freq)
        assert exact_f2(t).hex() == float(np.dot(freq, freq)).hex()
        assert exact_l2(t).hex() == math.sqrt(float(np.dot(freq, freq))).hex()
    with pytest.raises(ValueError, match="exact recount over universe n=1099511627776"):
        exact_frequencies(huge)


# The line boundaries of str.splitlines, and whitespace that ends no line.
_LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
_SPACES = st.text(alphabet=" \t\xa0\x1f", max_size=3)
_COMMENTS = st.text(alphabet=st.characters(blacklist_characters="".join(_LINE_ENDS) + "\r"),
                    max_size=8).map(lambda c: "#" + c)


@settings(max_examples=100, deadline=None)
@given(s=_streams(), data=st.data())
def test_comments_blank_lines_and_spacing_do_not_change_the_stream(s, data):
    lines = []
    for line in format_stream(s).splitlines():
        for _ in range(data.draw(st.integers(0, 2))):
            lines.append(data.draw(_SPACES) + data.draw(st.one_of(st.just(""), _COMMENTS)))
        gap = data.draw(_SPACES.filter(bool))
        lines.append(data.draw(_SPACES) + gap.join(line.split())
                     + data.draw(_SPACES) + data.draw(st.one_of(st.just(""), _COMMENTS)))
    text = "".join(line + data.draw(st.sampled_from(_LINE_ENDS)) for line in lines)
    assert _same_stream(parse_stream(text), s)
    assert _same_stream(_reference_parse(text), s)


def _reference_parse(text):
    """Reference copy of the line-by-line reader parse_stream replaced: strip
    each line's comment, skip blank lines, convert each token with int()."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("empty stream file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'n m mode', got {lines[0]!r}")
    n, m, mode = int(header[0]), int(header[1]), header[2]
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} updates but file has {len(lines) - 1}")
    updates = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"update line must be 'item delta', got {line!r}")
        updates.append((int(parts[0]), int(parts[1])))
    return UpdateStream(universe_size=n, updates=updates, mode=mode)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


_TOKENS = st.one_of(st.integers(-2, 6).map(str),
                    st.sampled_from(["2.5", "0x10", "+1", "-0", "1_0", "\u0663",
                                     "99999999999999999999", "-9223372036854775809", "x"]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5), mode=st.sampled_from(("insert", "turnstile", "sliding")),
       rows=st.lists(st.lists(_TOKENS, min_size=1, max_size=3), max_size=6),
       clean=st.booleans())
def test_parse_matches_the_line_by_line_reader(n, mode, rows, clean):
    # Valid files give equal streams; malformed ones the same first error.
    if clean:
        rows = [row[:2] for row in rows if len(row) >= 2]
    text = f"{n} {len(rows)} {mode}\n" + "".join(" ".join(row) + "\n" for row in rows)
    got, want = _outcome(parse_stream, text), _outcome(_reference_parse, text)
    if isinstance(want, str):
        assert got == want
    else:
        assert _same_stream(got, want)


def _reference_pairs(n, updates, mode):
    """Reference copy of the per-pair check the array validation replaced."""
    cleaned = []
    for raw_item, raw_delta in updates:
        item, delta = int(raw_item), int(raw_delta)
        if item != raw_item or delta != raw_delta:
            raise ValueError(
                f"update must be a pair of integers, got ({raw_item!r}, {raw_delta!r})")
        if not (0 <= item < n):
            raise ValueError(f"item {item} outside universe [0, {n})")
        if delta != 1:
            if mode == "insert":
                raise ValueError(
                    f"insertion-only stream update must have delta 1, got {delta}")
            if delta != -1:
                raise ValueError(f"delta must be +1 or -1, got {delta}")
        cleaned.append((item, delta))
    return cleaned


_VALUES = st.one_of(st.integers(-2, 5), st.sampled_from([2.5, 3.0, "1", True, 2 ** 63]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), mode=st.sampled_from(("insert", "turnstile")),
       updates=st.lists(st.tuples(_VALUES, _VALUES), max_size=5))
def test_constructor_matches_the_per_pair_check(n, mode, updates):
    try:
        want = _reference_pairs(n, updates, mode)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            UpdateStream(universe_size=n, updates=updates, mode=mode)
        assert str(info.value) == str(exc)
    else:
        s = UpdateStream(universe_size=n, updates=updates, mode=mode)
        assert list(zip(s.items.tolist(), s.deltas.tolist())) == want


# ------------------------------------------------------------ the tokenizer

def _walked_rows(body, width, m):
    """The rows the line walker reads from body, or None where it raises."""
    try:
        return [list(row) for row in _walk_lines(_body_lines(body, m, ""), width, "")]
    except ValueError:
        return None


_PIECES = st.one_of(
    st.sampled_from(list("0123456789+- \t\n\r") + ["\r\n", "-0", "007", "+5", "-", "+"]),
    st.text("0123456789", min_size=16, max_size=21))


def _rows_of(width, clean):
    """Bodies of lines apart by blanks and line ends. Clean lines hold width
    integers each (a few of them longer than 18 characters); the others
    hold about width tokens, some of them drawn from _PIECES."""
    if clean:
        tokens = st.lists(st.one_of(st.integers(-10 ** 19, 10 ** 19).map(str),
                                    st.sampled_from(["-0", "+0", "007", "+5"])),
                          min_size=width, max_size=width)
    else:
        tokens = st.lists(st.one_of(st.integers(-9, 99).map(str), _PIECES),
                          min_size=width - 1, max_size=width + 1)
    line = tokens.flatmap(
        lambda row: st.sampled_from([" ", "\t", " \t "]).map(lambda gap: gap.join(row)))
    return st.lists(st.tuples(st.sampled_from(["", " ", "\t"]), line,
                              st.sampled_from(["\n", "\r\n", "\r", " \n \n"])),
                    max_size=8).map(lambda rows: "".join(map("".join, rows)))


@settings(max_examples=400, deadline=None)
@given(width=st.sampled_from((2, 3)), data=st.data())
def test_tokenizer_agrees_with_the_line_walker(width, data):
    # Whatever the tokenizer returns, the walker reads the same rows; where
    # the walker raises, the tokenizer returns None.
    body = data.draw(st.one_of(st.lists(_PIECES, max_size=30).map("".join),
                               _rows_of(width, False), _rows_of(width, True)))
    lines = len(list(filter(str.strip, body.splitlines())))
    m = data.draw(st.sampled_from((lines, lines, lines + 1, max(lines - 1, 0))))
    got, want = _int_rows(body, width, m), _walked_rows(body, width, m)
    if got is not None:
        assert got.dtype == np.int64 and got.shape == (m, width)
        assert got.tolist() == want
    if want is None:
        assert got is None


@pytest.mark.parametrize("body, width, m", [
    ("\n1 -\n", 2, 1),                        # np.fromstring reads [1, 0]
    ("\n99999999999999999999 1\n", 2, 1),     # ... saturates to 2^63 - 1
    ("\n1 2 3\n4\n", 2, 2),                   # ... ignores the lines
    ("\n1\n2 3 4\n", 2, 2),
    ("\n1 2 3 4\n", 2, 2),
    ("\n1-2 3\n", 2, 1),                      # ... raises naming no token
    ("\n9223372036854775807 1\n", 2, 1),      # 19 digits: left to the walker
])
def test_tokenizer_leaves_numpy_text_mode_hazards_to_the_walker(body, width, m):
    assert _int_rows(body, width, m) is None


@pytest.mark.parametrize("text, message", [
    ("3 1 insert\n1 -\n", "invalid literal for int() with base 10: '-'"),
    ("3 1 insert\n99999999999999999999 1\n", "item 99999999999999999999 outside universe [0, 3)"),
    ("3 2 insert\n1 2 3\n4\n", "update line must be 'item delta', got '1 2 3'"),
    ("3 1 insert\n1-2 1\n", "invalid literal for int() with base 10: '1-2'"),
])
def test_hazards_get_the_line_walkers_message(text, message):
    with pytest.raises(ValueError) as info:
        parse_stream(text)
    assert str(info.value) == message


def test_nineteen_digit_values_are_read_exactly():
    top = 2 ** 63 - 1
    s = parse_stream(f"{top + 1} 2 insert\n{top} 1\n+0 +1\n")
    assert s.items.tolist() == [top, 0] and s.deltas.tolist() == [1, 1]
    g = graphs.parse_graph(f"3 1 {top}\n0 1 {top}\n")
    assert g.ew.tolist() == [top]


def _same_graph(a, b):
    return a.n == b.n and a.max_weight == b.max_weight and all(
        np.array_equal(getattr(a, k), getattr(b, k)) for k in ("eu", "ev", "ew", "indptr", "indices"))


class _Walked(Exception):
    pass


def _no_walk(*args):
    raise _Walked


@pytest.mark.parametrize("kind", ["insert", "turnstile", "unweighted", "weighted"])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_clean_files_never_reach_the_line_walker(tmp_path, monkeypatch, kind, line_end):
    rng = np.random.default_rng(19)
    if kind in ("insert", "turnstile"):
        data = random_stream(500, 10 ** 4, kind, rng)
        text, load, same = format_stream(data), load_stream, _same_stream
    else:
        data = random_graph(300, 10 ** 4, rng, None if kind == "unweighted" else 1000)
        text, load, same = format_graph(data), load_graph, _same_graph
    path = tmp_path / "clean"
    path.write_bytes(text.replace("\n", line_end).encode())
    monkeypatch.setattr(streams, "_walk_lines", _no_walk)
    monkeypatch.setattr(graphs, "_walk_lines", _no_walk)
    assert same(load(path), data)
    # One bad token still sends the file to the walker, and its message is
    # the line-by-line reader's.
    lines = text.split("\n")
    lines[5000] = lines[5000].replace(" ", " x", 1)
    path.write_bytes(line_end.join(lines).encode())
    with pytest.raises(_Walked):
        load(path)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="^invalid literal for int\\(\\) with base 10: 'x"):
        load(path)


@settings(max_examples=100, deadline=None)
@given(items=st.lists(st.integers(-2 ** 62, 2 ** 62) | st.integers(-5, 5), max_size=60),
       data=st.data())
def test_sorted_distinct_matches_np_unique(items, data):
    # The distinct values equal np.unique's, dtype included, and the per-value
    # delta sums equal np.add.at over np.unique's inverse.
    items = np.array(items, dtype=np.int64)
    deltas = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=items.size,
                                         max_size=items.size)), dtype=np.int64)
    uniq, inverse = np.unique(items, return_inverse=True)
    net = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(net, inverse, deltas)
    alone = _sorted_distinct(items)
    values, sums = _sorted_distinct(items, deltas)
    assert alone.dtype == values.dtype == uniq.dtype and sums.dtype == net.dtype
    assert np.array_equal(alone, uniq) and np.array_equal(values, uniq)
    assert np.array_equal(sums, net)


def test_check_bytes_gives_bytes_where_the_gib_figure_rounds_to_the_cap():
    _check_bytes(2 ** 30, "x", "y")
    with pytest.raises(ValueError) as info:
        _check_bytes(2 ** 30 + 1, "x", "y")
    assert str(info.value) == "x needs 1073741825 bytes for its y, above the 1 GiB cap"
    with pytest.raises(ValueError, match="^x needs 1.1 GiB for its y, above the 1 GiB cap$"):
        _check_bytes(int(1.05 * 2 ** 30) + 1, "x", "y")


@pytest.mark.parametrize("path", ["data/demo_stream_insert.txt",
                                  "data/demo_stream_turnstile.txt"])
def test_save_stream_round_trips_the_demo_files(tmp_path, path):
    s = load_stream(path)
    save_stream(s, tmp_path / "s.txt")
    assert (tmp_path / "s.txt").read_text(encoding="utf-8") == format_stream(s)
    again = load_stream(tmp_path / "s.txt")
    assert (again.universe_size, again.mode) == (s.universe_size, s.mode)
    assert np.array_equal(again.items, s.items) and np.array_equal(again.deltas, s.deltas)


# --------------------------------- the constructor against its old walk

def _reference_constructor(n, updates, mode):
    """Reference copy of the constructor whose Python walk checked each pair
    as it was read (and numpy-typed pairs by one array check): the
    (items, deltas) lists, or the first error it meets."""
    if n < 1:
        raise ValueError(f"universe_size must be >= 1, got {n!r}")
    insert = mode == "insert"
    pairs = streams._int_pairs(updates)
    if pairs is None:
        cleaned = []
        for row in updates:
            try:
                row = tuple(row)
                raw_item, raw_delta = row
                item, delta = int(raw_item), int(raw_delta)
                integral = item == raw_item and delta == raw_delta
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise ValueError(f"update must be a pair of integers, got {row!r}")
            error = streams._update_error(n, insert, item, delta)
            if error:
                raise ValueError(error)
            if item > 2 ** 63 - 1:
                raise ValueError(f"item {item} does not fit in a 64-bit integer")
            cleaned.append((item, delta))
        pairs = np.array(cleaned, dtype=np.int64).reshape(-1, 2)
    for item, delta in pairs.tolist():
        error = streams._update_error(n, insert, item, delta)
        if error:
            raise ValueError(error)
    return pairs[:, 0].tolist(), pairs[:, 1].tolist()


def _stream_outcome(build, *args):
    try:
        result = build(*args)
    except Exception as exc:  # the type and text are compared
        return type(exc).__name__, str(exc)
    if isinstance(result, UpdateStream):
        assert result.items.dtype == result.deltas.dtype == np.int64
        result = result.items.tolist(), result.deltas.tolist()
    return "ok", result


_ODD_PAIR_VALUES = st.sampled_from(
    [2 ** 63, 2 ** 63 - 1, -2 ** 63, -2 ** 63 - 1, 2 ** 64, 10 ** 20, 2 ** 70, 2.5, 3.0, "1",
     True, None, math.inf, math.nan])


_PAIR_ITEMS = mostly(st.integers(0, 4), st.one_of(st.integers(-2, 6), _ODD_PAIR_VALUES), 8)
_PAIR_DELTAS = mostly(st.sampled_from([1, -1]),
                       st.one_of(st.integers(-2, 3), _ODD_PAIR_VALUES), 8)
_PAIRS = mostly(st.tuples(_PAIR_ITEMS, _PAIR_DELTAS),
                 st.lists(_PAIR_ITEMS, max_size=3).map(tuple), 25)


@settings(max_examples=500, deadline=None)
@given(n=st.sampled_from([2 ** 70, 2 ** 70, 2 ** 70, 2 ** 63, 5]),
       mode=st.sampled_from(("insert", "turnstile")), updates=st.lists(_PAIRS, max_size=6))
def test_constructor_matches_the_old_pair_walk_in_a_huge_universe(n, mode, updates):
    # Exception type and text, or the arrays, on ragged pairs and on values
    # beyond int64 in a universe of up to 2^70 items.
    assert (_stream_outcome(UpdateStream, n, updates, mode)
            == _stream_outcome(_reference_constructor, n, updates, mode))
