import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox.knapsack import (KnapsackInstance, format_knapsack, knapsack_exact,
                            knapsack_fptas, load_knapsack, parse_knapsack,
                            save_knapsack)
from dpbox.noise import make_rng
from dpbox.streams import _body_lines, _split_header
from helpers import brute_force_knapsack, mostly, random_knapsack


def test_instance_validation():
    KnapsackInstance(capacity=5, sizes=[1, 2], values=[0.0, 3.5])
    with pytest.raises(ValueError):
        KnapsackInstance(capacity=0, sizes=[1], values=[1.0])
    with pytest.raises(ValueError):
        KnapsackInstance(capacity=5, sizes=[0], values=[1.0])
    with pytest.raises(ValueError, match="sizes must be positive integers, got 2.5"):
        KnapsackInstance(capacity=5, sizes=[2.5, 3], values=[1, 2])
    assert KnapsackInstance(capacity=5.0, sizes=[2.0], values=[1]).sizes == (2,)
    with pytest.raises(ValueError):
        KnapsackInstance(capacity=5, sizes=[1, 2], values=[1.0])
    with pytest.raises(ValueError):
        KnapsackInstance(capacity=5, sizes=[1], values=[-1.0])
    with pytest.raises(ValueError):
        KnapsackInstance(capacity=5, sizes=[1], values=[float("inf")])


def test_parse_format_round_trip():
    text = "3 10\n4 7\n2 3\n9 1\n"
    inst = parse_knapsack(text)
    assert inst.n == 3 and inst.capacity == 10
    assert format_knapsack(inst) == text
    # Non-integer values survive the round trip through repr.
    frac = KnapsackInstance(capacity=4, sizes=[2], values=[1.25])
    assert parse_knapsack(format_knapsack(frac)).values == (1.25,)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 10 ** 30),
       items=st.lists(st.tuples(st.integers(1, 10 ** 30),
                                st.floats(min_value=0.0, allow_infinity=False)), max_size=12))
def test_format_parse_round_trip_any_instance(capacity, items):
    inst = KnapsackInstance(capacity=capacity, sizes=[s for s, _ in items],
                            values=[v for _, v in items])
    text = format_knapsack(inst)
    back = parse_knapsack(text)
    assert back == inst
    assert format_knapsack(back) == text


@pytest.mark.parametrize("bad", ["", "2 5\n1 1\n", "1\n1 1\n", "1 5\n1\n"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_knapsack(bad)


@pytest.mark.parametrize("text, message", [
    ("", "empty knapsack file"),
    ("# only a comment\n  \n", "empty knapsack file"),
    ("1 2 3\n1 1\n", "header must be 'n B', got '1 2 3'"),
    ("  7 # seven\n1 1\n", "header must be 'n B', got '7'"),
    ("2 10\n1 1\n", "header declares 2 items but file has 1"),
    ("2 10\n# a comment-only line is no item\n1 1\n",
     "header declares 2 items but file has 1"),
    ("1 10\n  1 2 3 # three tokens\n", "item line must be 'size value', got '1 2 3'"),
    ("1 10\n4\n", "item line must be 'size value', got '4'"),
    ("1 10\n1.5 2\n", "invalid literal for int() with base 10: '1.5'"),
    ("1 10\n2 x\n", "could not convert string to float: 'x'"),
    ("x 10\n", "invalid literal for int() with base 10: 'x'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError) as err:
        parse_knapsack(text)
    assert str(err.value) == message


def test_exact_trivial_cases():
    single = KnapsackInstance(capacity=5, sizes=[3], values=[11.0])
    assert knapsack_exact(single) == 11.0
    oversized = KnapsackInstance(capacity=2, sizes=[3, 5], values=[9.0, 9.0])
    assert knapsack_exact(oversized) == 0.0
    empty = KnapsackInstance(capacity=2, sizes=[], values=[])
    assert knapsack_exact(empty) == 0.0


def test_exact_requires_integer_values():
    inst = KnapsackInstance(capacity=5, sizes=[1], values=[1.5])
    with pytest.raises(ValueError):
        knapsack_exact(inst)
    # The exact DP and the FPTAS at alpha 0 read only the items that fit: no
    # feasible selection holds the size-9 item, so its value is never read.
    oversized = KnapsackInstance(capacity=5, sizes=[2, 9], values=[4.0, 1.5])
    assert knapsack_exact(oversized) == knapsack_fptas(oversized, 0.0) == 4.0


def test_exact_matches_brute_force():
    rng = make_rng(50)
    for _ in range(50):
        inst = random_knapsack(int(rng.integers(1, 12)), rng)
        assert knapsack_exact(inst) == brute_force_knapsack(inst)


def test_fptas_interval_against_brute_force():
    # For every alpha the FPTAS output is the value of some feasible
    # selection, so it never exceeds OPT, and scaling loses at most alpha*OPT.
    rng = make_rng(51)
    for _ in range(50):
        inst = random_knapsack(int(rng.integers(1, 12)), rng,
                               integer_values=False)
        opt = brute_force_knapsack(inst)
        for alpha in (0.1, 0.3):
            out = knapsack_fptas(inst, alpha)
            assert out <= opt + 1e-9
            assert out >= (1 - alpha) * opt - 1e-9


def test_fptas_alpha_zero_is_exact():
    rng = make_rng(52)
    inst = random_knapsack(10, rng)
    assert knapsack_fptas(inst, 0.0) == knapsack_exact(inst)


def test_fptas_trivial_cases():
    single = KnapsackInstance(capacity=5, sizes=[3], values=[11.0])
    assert knapsack_fptas(single, 0.25) == 11.0
    oversized = KnapsackInstance(capacity=2, sizes=[4], values=[9.0])
    assert knapsack_fptas(oversized, 0.25) == 0.0
    zero_vals = KnapsackInstance(capacity=5, sizes=[1, 2], values=[0.0, 0.0])
    assert knapsack_fptas(zero_vals, 0.5) == 0.0


def test_fptas_alpha_validation():
    inst = KnapsackInstance(capacity=5, sizes=[1], values=[1.0])
    with pytest.raises(ValueError):
        knapsack_fptas(inst, 1.0)
    with pytest.raises(ValueError):
        knapsack_fptas(inst, -0.1)


def test_fptas_guarantee_tightens_with_alpha():
    # Both settings must respect their own floor; the tighter alpha has the
    # higher floor. (The raw outputs need not be monotone in alpha, the
    # guarantee is.)
    rng = make_rng(53)
    for _ in range(20):
        inst = random_knapsack(10, rng, integer_values=False)
        opt = brute_force_knapsack(inst)
        tight = knapsack_fptas(inst, 0.05)
        loose = knapsack_fptas(inst, 0.4)
        assert tight >= (1 - 0.05) * opt - 1e-9
        assert loose >= (1 - 0.4) * opt - 1e-9


def test_demo_instance():
    inst = load_knapsack("data/demo_knapsack.txt")
    assert knapsack_exact(inst) == 162.0
    assert knapsack_fptas(inst, 0.1) == 162.0


def test_save_knapsack_round_trips_the_demo_file(tmp_path):
    inst = load_knapsack("data/demo_knapsack.txt")
    save_knapsack(inst, tmp_path / "k.txt")
    assert (tmp_path / "k.txt").read_text(encoding="utf-8") == format_knapsack(inst)
    assert format_knapsack(load_knapsack(tmp_path / "k.txt")) == format_knapsack(inst)


def _reference_parse(text):
    """Reference copy of parse_knapsack's own line loop, before it shared the
    stream and graph line walker."""
    header, body = _split_header(text, "empty knapsack file")
    fields = header.split()
    if len(fields) != 2:
        raise ValueError(f"header must be 'n B', got {header.strip()!r}")
    n, capacity = int(fields[0]), int(fields[1])
    sizes, values = [], []
    for line in _body_lines(body, n, "items"):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"item line must be 'size value', got {line.strip()!r}")
        sizes.append(int(parts[0]))
        values.append(float(parts[1]))
    return KnapsackInstance(capacity=capacity, sizes=sizes, values=values)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the type and text are compared
        return type(exc).__name__, str(exc)


_KNAPSACK_TOKENS = mostly(st.integers(1, 30).map(str), st.one_of(
    st.integers(-1, 0).map(str), st.sampled_from(["2.5", "x", "1e3", "nan", "inf", "-0", "0x1",
                                                  "+4", "1_0", "\u0663", "99999999999999999999"])),
    8)


@settings(max_examples=400, deadline=None)
@given(capacity=_KNAPSACK_TOKENS,
       rows=st.lists(mostly(st.lists(_KNAPSACK_TOKENS, min_size=2, max_size=2),
                            st.lists(_KNAPSACK_TOKENS, min_size=1, max_size=3), 8), max_size=6),
       extra=st.sampled_from([0] * 18 + [-1, 1]),
       comment=st.sampled_from(["", "", " # note", "#"]))
def test_parse_matches_the_old_line_loop_on_malformed_lines(capacity, rows, extra, comment):
    # Exception type and text, or the instance, where lines have the wrong
    # arity, a size that is not an integer or a value that is not a number.
    text = (f"{len(rows) + extra} {capacity}\n"
            + "".join(" ".join(row) + comment + "\n" for row in rows))
    assert _parse_outcome(parse_knapsack, text) == _parse_outcome(_reference_parse, text)
