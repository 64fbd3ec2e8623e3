"""The solution-CSV writer's bytes against np.savetxt(fmt="%.17g"), the reference."""

import io
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessball import _g17
from hessball._g17 import _digits17, format_rows
from hessball.cli import _write_csv
from hessball.core import grid_points


def savetxt_bytes(data: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savetxt(buffer, data, fmt="%.17g", delimiter=",")
    return buffer.getvalue()


def as_bits(x: float) -> int:
    return int(np.array([x]).view(np.uint64)[0])


BIT_PATTERNS = st.one_of(st.integers(0, 2**64 - 1), st.floats().map(as_bits))


@given(bits=st.lists(BIT_PATTERNS, min_size=1, max_size=96), cols=st.integers(1, 4))
def test_arbitrary_bit_patterns_match_savetxt(bits, cols):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    block = np.resize(values, (-(-len(values) // cols), cols))
    assert format_rows(block) == savetxt_bytes(block)


def is_tie(x: float) -> bool:
    """The exact decimal expansion of x has 18 significant digits, the
    last a 5, so '%.17g' rounds an exact half."""
    num, den = x.as_integer_ratio()
    digits = str(abs(num) * 5 ** (den.bit_length() - 1)).rstrip("0")
    return len(digits) == 18 and digits.endswith("5")


def ties() -> list[float]:
    """Exact ties m / 2**k, for odd m < 2**53 with m * 5**k of 18 digits,
    such as 2**-25."""
    out = []
    for k in range(2, 26):
        first = -(-(10**17) // 5**k) | 1
        for m in range(first, first + 40, 2):
            if m < 2**53 and m * 5**k < 10**18:
                out.append(m / 2**k)
    return out


def power_text(k: int) -> str:
    """10**k as '%.17g' prints it."""
    if -4 <= k < 0:
        return "0." + "0" * (-k - 1) + "1"
    if 0 <= k < 17:
        return "1" + "0" * k
    return "1e%+03d" % k


def rounds_up_to_power(x: float, k: int) -> bool:
    """x < 10**k exactly, yet '%.17g' % x prints 10**k."""
    num, den = x.as_integer_ratio()
    below = num * 10 ** max(-k, 0) < den * 10 ** max(k, 0)
    return below and "%.17g" % x == power_text(k)


def edge_values() -> np.ndarray:
    subnormals = [5e-324, 1e-323, 2.2250738585072009e-308, 1e-310, 4.9e-320]
    extremes = [0.0, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308,
                np.inf, -np.inf, np.nan, 1e-280, 1e280, np.nextafter(1e-280, 0),
                np.nextafter(1e280, np.inf)]
    tens = np.array([10.0**k for k in range(-300, 301)]
                    + [float(f"1e{k}") for k in range(-300, 301)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    below, above, steps = switch, switch, []
    for _ in range(4):  # four ulps either side of the %g switch points
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        steps += [below, above]
    near = [np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), *steps]
    powers_of_two = 2.0 ** np.arange(-1074, 1024)
    tie = np.array(ties())
    return np.concatenate([
        subnormals, extremes, tens, switch, *near, powers_of_two, tie,
        np.nextafter(tie, 0.0), np.nextafter(tie, np.inf),
        -tens, -tie,
    ])


EDGES = edge_values()


def test_edge_set_covers_its_cases():
    assert len(ties()) > 400
    assert all(is_tie(x) for x in ties())
    # '%.17g' of an exact tie keeps an even 17th digit
    assert "%.17g" % 2.0**-25 == "2.9802322387695312e-08"
    assert "%.17g" % (3 / 2**24) == "1.7881393432617188e-07"
    # some values below a power of ten print as that power, 1e-14 for one
    assert rounds_up_to_power(1e-14, -14)
    crossing = [k for k in range(-300, 301) if rounds_up_to_power(float(f"1e{k}"), k)]
    assert len(crossing) >= 10


@pytest.mark.parametrize("cols", [1, 3, 5])
def test_edge_set_matches_savetxt(tmp_path, cols):
    data = np.resize(EDGES, (-(-len(EDGES) // cols), cols))
    columns = list(data.T)
    _write_csv(tmp_path / "fast.csv", "h", columns)
    expected = b"h\n" + savetxt_bytes(data)
    assert (tmp_path / "fast.csv").read_bytes() == expected


def test_kernel_decides_all_but_the_fallback_set():
    """Only the fallback set goes through Python's '%' formatting."""
    rng = np.random.default_rng(1)
    ordinary = np.concatenate([
        np.linspace(1.0 / 64000, 1.0, 64000),
        10.0 ** rng.uniform(-279.0, 279.0, 4000),
        rng.random(4000),
    ])
    decided = _digits17(ordinary)[2]
    assert decided.tolist() == [not is_tie(x) for x in ordinary.tolist()]
    assert not decided.all()  # 1661842028873509.75 is a tie
    fallback = np.array([0.0, -0.0, -1.5, np.inf, -np.inf, np.nan, 5e-324,
                         1e-300, 1e300, 2.0**-25, 3 / 2**24])
    assert not _digits17(fallback)[2].any()


def with_digits(X: int, count: int, rng: random.Random) -> float:
    """A double in [10**X, 10**(X + 1)) whose '%.17g' shows exactly count
    significant digits: count digits times a power of ten, or a dyadic
    a + b / 2**j, whose j fraction digits end in 5."""
    if count <= X + 1:
        while True:
            m = rng.randrange(10 ** (count - 1), 10**count)
            value = m * 10 ** (X + 1 - count)
            if m % 10 and int(float(value)) == value:  # exact above 2**53 too
                return float(value)
    j = count - X - 1
    a = rng.randrange(10**X, min(10 ** (X + 1), 2**53 >> j))
    return (a * 2**j + rng.randrange(1, 2**j, 2)) / 2**j


def exponent_and_digits(text: str) -> tuple[int, int]:
    """X and the significant digit count of a fixed-notation '%.17g'."""
    return len(text.split(".")[0]) - 1, len(text.replace(".", "").rstrip("0"))


def test_fixed_classes_with_every_digit_count_match_savetxt():
    """X = 1..16 with 1..17 digits, each before ',' and before a newline:
    this covers every row whose point the kernel moves inside the digits."""
    rng = random.Random(7)
    cases = [(X, count) for X in range(1, 17) for count in range(1, 18)]
    values = np.array([with_digits(X, count, rng) for X, count in cases for _ in range(3)])
    assert {exponent_and_digits("%.17g" % x) for x in values} == set(cases)
    block = np.column_stack([values, values[::-1]])
    assert format_rows(block) == savetxt_bytes(block)


def test_rows_that_mix_classes_match_savetxt():
    """t in [0, 1], a value >= 10 and a value < 1e-5 in every row."""
    rng = np.random.default_rng(3)
    n = 3000
    t = np.linspace(0.0, 1.0, n)
    large = 10.0 ** rng.uniform(1.0, 17.0, n)
    small = 10.0 ** rng.uniform(-300.0, -5.0, n)
    for block in (np.column_stack([t, large, small]), np.column_stack([small, t, large])):
        assert format_rows(block) == savetxt_bytes(block)


def test_fine_grid_solution_matches_savetxt(tmp_path):
    """A 64001 x 3 solution with t = 0 and v_1(1) = 0, as _write_csv
    writes it block by block."""
    t = grid_points(64001)
    columns = [t, 1.0 - t * t, 12.5 * np.cos(t) + t**3]
    assert t[0] == 0.0 and columns[1][-1] == 0.0
    _write_csv(tmp_path / "fast.csv", "t,v_1,v_2", columns)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), fmt="%.17g",
               delimiter=",", header="t,v_1,v_2", comments="")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_digit_tables():
    """Each four-digit word is the ASCII of f"{q:04d}", and its trailing
    zero count is that text's."""
    texts = [f"{q:04d}" for q in range(10**4)]
    assert _g17._QUADS.view(np.uint8).tobytes() == "".join(texts).encode()
    assert _g17._TRAILING.tolist() == [len(s) - len(s.rstrip("0")) for s in texts]


def test_fixed_values_reach_no_fallback(monkeypatch):
    """Values in [10, 1e17), the classes whose point may fall inside the
    digits, reach Python's '%.17g' only when they are ties."""
    seen = []

    def recorded(x):
        seen.append(float(x))
        return b"%.17g" % x

    monkeypatch.setattr(_g17, "_fallback", recorded)
    rng = np.random.default_rng(4)
    tie = [x for x in ties() if 10.0 <= x < 1e17]
    values = np.concatenate([10.0 ** rng.uniform(1.0, 17.0, 30000), tie])
    rng.shuffle(values)
    block = np.resize(values, (-(-values.size // 3), 3))
    assert format_rows(block) == savetxt_bytes(block)
    assert len(tie) > 100
    assert seen == [x for x in block.ravel().tolist() if is_tie(x)]
