"""Update streams over a bounded universe, exact recounts, and neighbors.

A stream is a sequence of (item, delta) updates over items 0..n-1. Insertion
mode forces delta = +1; turnstile mode allows +/-1 and running frequencies
may dip negative, the final frequency vector being the object of estimation.
Two streams are neighbors when they differ in exactly one update, which moves
the final frequency vector by at most 2 in L1 (hence distinct count and L2
each move by at most 2).

An UpdateStream holds its updates as two read-only int64 arrays, `items` and
`deltas`, checked once at construction by one vectorised validation,
_check_columns (item range and the delta rule of the mode). Consumers read
the arrays directly.

Every dataset row, of a stream or of a graph, from a file or from Python, is
read before it is checked, and checked only by its dataset's vectorised
check. The readers (_int_rows, the line walker, _int_pair and the graph
constructor's graphs._int_edge) only read. _read_table applies a reader to
each row and stops at the first row whose read raises; the check runs on the
rows read before it, and only then is that read error raised, so the first
error reported is the first in row order. A lazy iterable of updates or
edges is therefore read up to its first unreadable row, or to its end,
before any rule is checked: an endless generator whose early row breaks a
rule does not raise at that row.

File format: header "n m mode" with mode in {insert, turnstile}, then m
lines "item delta". '#' starts a comment and blank lines are skipped.
parse_stream and graphs.parse_graph read the lines after the header with one
byte-level tokenizer, _int_rows: numpy masks over the bytes find the tokens
and lines, and one np.fromstring(..., sep=" ") call converts every token.
That call's text mode reads "1 -" as [1, 0], saturates an overflowing value
to 2^63 - 1, ignores line breaks and raises on "1-2" a message naming no
token, so the masks first vouch for the file. The file goes to the line
walker, _walk_lines, instead when any byte is not a digit, sign, space,
tab, line feed or carriage return; a sign is not first in its token or not
followed by a digit; a token has more than 18 characters; a line that holds
any token does not hold exactly the row's width (a carriage return ends a
line as a line feed does); m < 1 or the lines holding tokens are not m; or
the values converted are not as many as the tokens. The walker reads line
by line and raises at the first line it cannot read. parse_stream reads
every line before it builds the stream, so a line it cannot read is
reported before an earlier update that breaks a rule; parse_graph checks the
edges read before that line first, as a line-by-line reader that checks each
edge would. The knapsack reader walks every file with the same walker (an
int size and a float value a line), and shares the header split; the graph,
knapsack and sketch modules share the 1 GiB allocation cap, _check_bytes.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "UpdateStream",
    "parse_stream",
    "format_stream",
    "load_stream",
    "save_stream",
    "exact_frequencies",
    "exact_distinct",
    "exact_f2",
    "exact_l2",
    "stream_neighbor",
]

_MODES = ("insert", "turnstile")
_INT64_MAX = int(np.iinfo(np.int64).max)
# The largest array dpbox allocates for one dataset, recount, DP table or
# sketch. A request above it is refused before anything is allocated.
_MAX_BYTES = 2 ** 30


def _check_bytes(need: int, subject: str, contents: str):
    """Raise the one-line refusal when subject's contents would take need
    bytes, above _MAX_BYTES. A need whose GiB figure rounds down to the cap
    is given in bytes, so that the message never reads as not above it."""
    if need > _MAX_BYTES:
        gib = f"{need / 2 ** 30:.1f}"
        size = f"{gib} GiB" if float(gib) > _MAX_BYTES / 2 ** 30 else f"{need} bytes"
        raise ValueError(f"{subject} needs {size} for its {contents}, "
                         f"above the {_MAX_BYTES / 2 ** 30:g} GiB cap")


def _sorted_distinct(items: np.ndarray, deltas: Optional[np.ndarray] = None):
    """The distinct values of the 1-D array items, ascending, as np.unique
    gives them, from one sort and an adjacent-difference mask. Given deltas,
    one per item, also each distinct value's delta sum: np.add.reduceat over
    its run of the sorted order."""
    if deltas is None:
        ordered = np.sort(items)
    else:
        order = np.argsort(items)
        ordered = items[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if deltas is None:
        return ordered[first]
    starts = np.flatnonzero(first)
    return ordered[starts], np.add.reduceat(deltas[order], starts)


def _update_error(n, insert: bool, item: int, delta: int) -> Optional[str]:
    """Why an integer update breaks the stream rules, or None; a range error
    is reported before a delta error."""
    if not (0 <= item < n):
        return f"item {item} outside universe [0, {n})"
    if delta != 1:
        if insert:
            return f"insertion-only stream update must have delta 1, got {delta}"
        if delta != -1:
            return f"delta must be +1 or -1, got {delta}"
    return None


def _check_columns(n, insert: bool, items: np.ndarray, deltas: np.ndarray):
    """The one validation of update columns, int64 or (from _read_table) an
    object array of Python ints: raise the error of the first update that
    breaks the range or delta rule. An item in the universe but beyond int64
    breaks the range [0, min(n, 2^63)) too, with its own message."""
    if items.size == 0:
        return
    bound = min(n, _INT64_MAX + 1)
    bad = deltas != 1 if insert else np.abs(deltas) != 1
    out_of_range = int(items.min()) < 0 or int(items.max()) >= bound
    if not out_of_range and not bad.any():
        return
    if out_of_range:
        bad |= (items < 0) | (items >= bound)
    i = int(np.argmax(bad))
    item, delta = int(items[i]), int(deltas[i])
    raise ValueError(_update_error(n, insert, item, delta)
                     or f"item {item} does not fit in a 64-bit integer")


def _int_pairs(updates) -> Optional[np.ndarray]:
    """updates as an (m, 2) int64 array when numpy types them as signed
    integer (or bool) pairs, else None."""
    try:
        arr = np.asarray(updates)
    except ValueError:
        return None
    if arr.shape == (0,):
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "bi":
        return None
    return arr.astype(np.int64, copy=False)


def _int_pair(pair) -> Tuple[int, int]:
    """The reader of one update numpy does not type (floats, strings, ints
    beyond int64, ragged pairs): the pair as two ints, raising when it is not
    a pair of integer values. It checks no stream rule."""
    row = pair
    try:
        row = tuple(pair)
        raw_item, raw_delta = row
        item, delta = int(raw_item), int(raw_delta)
        integral = item == raw_item and delta == raw_delta
    except (TypeError, ValueError, OverflowError):  # a ragged row, None, NaN, an infinity
        integral = False
    if not integral:
        raise ValueError(f"update must be a pair of integers, got {row!r}")
    return item, delta


def _read_table(rows: Iterable, read: Callable, width: int):
    """(table, error): read applied to each of rows, stopping at the first
    row whose read (or whose iteration) raises. table holds the rows read
    before it as an (m, width) int64 array, or as an object array of Python
    ints when a value does not fit in int64; error is the exception raised,
    or None. The caller checks the table and only then raises error, so the
    first error reported is the first in row order."""
    table, error = [], None
    try:
        for row in rows:
            table.append(read(row))
    except Exception as exc:  # raised again by the caller, after its check
        error = exc
    try:
        array = np.array(table, dtype=np.int64)
    except OverflowError:
        array = np.array(table, dtype=object)
    return array.reshape(-1, width), error


def _frozen(column: np.ndarray) -> np.ndarray:
    """A read-only int64 copy, sharing no memory with the caller's data."""
    column = np.array(column, dtype=np.int64)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class UpdateStream:
    """An immutable stream, built from (item, delta) pairs: any iterable of
    pairs, or an (m, 2) integer array. It keeps them as two read-only int64
    arrays, items and deltas. Pairs that numpy does not type as integer
    pairs are read one by one first, up to the first that is not a pair of
    integers: a value that is not an integer (2.5, 1.9) is a ValueError, not
    truncated. _check_columns then checks the pairs read, and that read
    error is raised only when they pass; a lazy iterable is read to its
    first unreadable pair, or to its end, before any rule is checked.
    Equality and hashing are by identity, as for Graph, so one stream object
    stands for one dataset."""

    universe_size: int
    updates: InitVar[Iterable[Tuple[int, int]]]
    mode: str = "insert"
    items: np.ndarray = field(init=False)
    deltas: np.ndarray = field(init=False)

    def __post_init__(self, updates):
        if self.universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {self.universe_size!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        pairs, error = _int_pairs(updates), None
        if pairs is None:
            pairs, error = _read_table(updates, _int_pair, 2)
        _check_columns(self.universe_size, self.mode == "insert", pairs[:, 0], pairs[:, 1])
        if error is not None:
            raise error
        object.__setattr__(self, "items", _frozen(pairs[:, 0]))
        object.__setattr__(self, "deltas", _frozen(pairs[:, 1]))

    @property
    def length(self) -> int:
        return int(self.items.size)


# The line boundaries of str.splitlines. A comment runs from '#' to the end of
# its line.
_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = re.compile(f"#[^{_LINE_ENDS}]*")
_LINE_END = re.compile(f"[{_LINE_ENDS}]")
# The only bytes the tokenizer reads; any other sends a file to the walker.
_TOKEN_BYTES = b"0123456789+- \t\n\r"
# A token of at most this many characters fits in int64 whatever its digits.
_MAX_TOKEN = 18


def _split_header(text: str, empty: str) -> Tuple[str, str]:
    """Cut the comments from text and split it after its first line that
    holds anything: return that line, stripped on the left, and the rest of
    the text, which begins with the line's end. Raise ValueError(empty) when
    no line holds anything."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    text = text.lstrip()
    if not text:
        raise ValueError(empty)
    end = _LINE_END.search(text)
    cut = len(text) if end is None else end.start()
    return text[:cut], text[cut:]


def _body_lines(body: str, m: int, noun: str) -> List[str]:
    """The lines of body that hold anything, for the line walker; raise when
    the header's count m is not theirs."""
    lines = list(filter(str.strip, body.splitlines()))
    if len(lines) != m:
        raise ValueError(f"header declares {m} {noun} but file has {len(lines)}")
    return lines


def _int_rows(body: str, width: int, m: int) -> Optional[np.ndarray]:
    """The tokenizer of the module docstring: body's m lines as an (m, width)
    int64 array, or None whenever its checks cannot vouch that the line
    walker reads the same rows."""
    data = body.encode("ascii", "replace")  # '?' stands for non-ASCII
    # Lines are numbered in int32, which halves the largest temporary and is
    # exact below 2^31 bytes.
    if len(data) >= 2 ** 31 or data.translate(None, _TOKEN_BYTES):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    # In this alphabet the bytes above ' ' make up the tokens, and of those
    # the ones below '0' are the signs.
    token = b > 32
    sign = token & (b < 48)
    if sign.any() and (sign[-1] or (sign[1:] & token[:-1]).any()
                       or (sign[:-1] & (b[1:] < 48)).any()):
        return None
    starts, ends = np.flatnonzero(np.diff(token, prepend=False, append=False)).reshape(-1, 2).T
    if m < 1 or starts.size != width * m or (ends - starts).max() > _MAX_TOKEN:
        return None
    lines = np.cumsum((b == 10) | (b == 13), dtype=np.int32)[starts].reshape(m, width)
    if (lines != lines[:, :1]).any() or (lines[1:, 0] <= lines[:-1, 0]).any():
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    return values.reshape(m, width) if values.size == starts.size else None


def _walk_lines(body: List[str], width: int, arity: str,
                convert: Optional[Callable[[List[str]], tuple]] = None) -> Iterator[tuple]:
    """The line-by-line reader of the stream, graph and knapsack formats, run
    on stream and graph files only when _int_rows rejected them: yield each
    line's width tokens converted by convert (None: int for every token),
    raising the first line's error when it is reached; a line without width
    tokens gets "<arity>, got <line>"."""
    for line in body:
        parts = line.split()
        if len(parts) != width:
            raise ValueError(f"{arity}, got {line.strip()!r}")
        yield tuple(map(int, parts)) if convert is None else convert(parts)


def parse_stream(text: str) -> UpdateStream:
    header, body = _split_header(text, "empty stream file")
    fields = header.split()
    if len(fields) != 3:
        raise ValueError(f"header must be 'n m mode', got {header.strip()!r}")
    n, m, mode = int(fields[0]), int(fields[1]), fields[2]
    pairs = _int_rows(body, 2, m)
    if pairs is None:
        lines = _body_lines(body, m, "updates")
        pairs = list(_walk_lines(lines, 2, "update line must be 'item delta'"))
    return UpdateStream(universe_size=n, updates=pairs, mode=mode)


def format_stream(s: UpdateStream) -> str:
    out = [f"{s.universe_size} {s.length} {s.mode}"]
    out.extend(f"{item} {delta}" for item, delta in zip(s.items.tolist(), s.deltas.tolist()))
    return "\n".join(out) + "\n"


def load_stream(path) -> UpdateStream:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stream(fh.read())


def save_stream(s: UpdateStream, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stream(s))


def exact_frequencies(s: UpdateStream) -> np.ndarray:
    _check_bytes(8 * s.universe_size, f"exact recount over universe n={s.universe_size}",
                 "frequency vector")
    freq = np.zeros(s.universe_size, dtype=np.int64)
    np.add.at(freq, s.items, s.deltas)
    return freq


def exact_distinct(s: UpdateStream) -> int:
    """Number of items with nonzero final frequency."""
    return int(np.count_nonzero(exact_frequencies(s)))


def exact_f2(s: UpdateStream) -> float:
    freq = exact_frequencies(s)
    return float(np.dot(freq, freq))


def exact_l2(s: UpdateStream) -> float:
    return math.sqrt(exact_f2(s))


def stream_neighbor(s: UpdateStream, rng) -> UpdateStream:
    """Copy of s with one uniformly chosen update replaced by a different
    legal update (same universe and mode). The final frequency vectors of the
    pair differ by at most 2 in L1."""
    if s.length < 1:
        raise ValueError("cannot form a neighbor of an empty stream")
    idx = int(rng.integers(s.length))
    old = (int(s.items[idx]), int(s.deltas[idx]))
    while True:
        item = int(rng.integers(s.universe_size))
        delta = 1 if s.mode == "insert" else int(rng.choice((-1, 1)))
        if (item, delta) != old:
            break
        if s.universe_size == 1 and s.mode == "insert":
            raise ValueError("a 1-item insertion-only stream has no distinct neighbor")
    pairs = np.column_stack((s.items, s.deltas))
    pairs[idx] = (item, delta)
    return UpdateStream(universe_size=s.universe_size, updates=pairs, mode=s.mode)
