import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribvp import grid
from tribvp.grid import (
    T_COLUMNS_KEPT,
    SolutionCurve,
    cumulative_simpson,
    format_g17,
    interp_cubic,
    partial_integral,
    write_csv,
)

from oracles import simpson_integral


def test_simpson_exact_for_cubic():
    t = np.linspace(0.0, 1.0, 33)
    vals = t**3 - 2 * t**2 + t
    exact = 1.0 / 4 - 2.0 / 3 + 1.0 / 2
    assert simpson_integral(vals, t[1]) == pytest.approx(exact, abs=1e-15)


def test_simpson_rejects_even_node_count():
    with pytest.raises(ValueError):
        simpson_integral(np.ones(10), 0.1)


def test_cumulative_exact_for_quadratic():
    # both the pair rule and the half-pair rule integrate quadratics exactly
    n = 65
    t = np.linspace(0.0, 2.0, n)
    h = t[1]
    cum = cumulative_simpson(t**2, h)
    assert np.max(np.abs(cum - t**3 / 3.0)) < 1e-13


def test_cumulative_order_for_smooth():
    errs = []
    for n in (65, 129, 257):
        t = np.linspace(0.0, 1.0, n)
        cum = cumulative_simpson(np.sin(t), t[1])
        errs.append(np.max(np.abs(cum - (1.0 - np.cos(t)))))
    assert errs[0] / errs[1] > 8.0 and errs[1] / errs[2] > 8.0  # O(h^4)


def test_cumulative_matches_full_simpson_at_even_nodes():
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.0, 1.0, 33)
    h = 0.25
    cum = cumulative_simpson(vals, h)
    for k in range(0, 33, 2):
        if k >= 3:
            assert cum[k] == pytest.approx(simpson_integral(vals[: k + 1], h), rel=1e-14)


def _cumulative_simpson_as_two_expressions(v: np.ndarray, h: float) -> np.ndarray:
    """The pair and half-pair rules, each written as one expression over the node slices."""
    out = np.zeros_like(v)
    out[2::2] = np.cumsum(h / 3.0 * (v[0:-2:2] + 4.0 * v[1:-1:2] + v[2::2]), axis=0)
    out[1::2] = out[0:-1:2] + h / 12.0 * (5.0 * v[0:-1:2] + 8.0 * v[1::2] - v[2::2])
    return out


@pytest.mark.parametrize("n", [1, 3, 5, 33, 2049])
def test_cumulative_simpson_keeps_the_bits_of_its_two_expressions(n, rng):
    # the in-place passes reorder only operands of + and *, which commute bit for bit; the layout follows the input's
    h = 1.0 / max(n - 1, 1)
    for shape, axes in (((n,), None), ((2 * n,), None), ((n, 3), None), ((2, n), (1, 0)), ((2, n, 7), (1, 2, 0))):
        v = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        v = v[::2] if shape == (2 * n,) else v if axes is None else v.transpose(axes)
        cum = cumulative_simpson(v, h)
        reference = _cumulative_simpson_as_two_expressions(v, h)
        assert np.array_equal(cum, reference) and cum.strides == reference.strides, (n, shape)


def test_partial_integral_exact_for_cubic_off_grid():
    n = 65
    t = np.linspace(0.0, 1.0, n)
    vals = t**3
    x = 0.371  # generic off-grid point
    assert partial_integral(vals, t[1], x) == pytest.approx(x**4 / 4.0, abs=1e-15)


def test_partial_integral_full_interval_is_simpson():
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.0, 1.0, 129)
    h = 1.0 / 128
    assert partial_integral(vals, h, 1.0) == pytest.approx(simpson_integral(vals, h), rel=1e-14)


def test_partial_integral_smooth_accuracy():
    n = 2049
    t = np.linspace(0.0, 1.0, n)
    vals = np.exp(t)
    x = 1.0 / 3.0
    assert abs(partial_integral(vals, t[1], x) - (np.exp(x) - 1.0)) < 1e-12


def test_interp_cubic_exact_for_cubics():
    n = 33
    t = np.linspace(0.0, 1.0, n)
    vals = 2 * t**3 - t + 0.5
    for x in (0.111, 0.5, 0.987):
        assert interp_cubic(vals, t[1], x) == pytest.approx(2 * x**3 - x + 0.5, abs=1e-14)


@pytest.mark.parametrize("n_fine", [65, 67, 1025, 2049])
def test_interp_cubic_at_every_fine_node(n_fine):
    # the hand-off of a 33-node coarse root to a fine grid: one stencil per fine node
    rng = np.random.default_rng(n_fine)
    coeffs = rng.uniform(-1.0, 1.0, 4)
    t, x = np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, n_fine)
    fine = interp_cubic(np.polyval(coeffs, t), t[1], x)
    assert np.max(np.abs(fine - np.polyval(coeffs, x))) <= 1e-13
    values = rng.uniform(0.0, 5.0, 33)
    fine = interp_cubic(values, t[1], x)
    assert fine.tolist() == [interp_cubic(values, t[1], xi) for xi in x.tolist()]  # bit for bit


@pytest.mark.parametrize("n", [4, 5, 33, 2049])
def test_interp_weights_of_a_scalar_are_those_of_a_one_point_array(n, rng):
    # a scalar is worked in Python floats, an array in numpy: the same stencil, bit for bit, and the same range check
    h = 1.0 / (n - 1)
    for x in [0.0, -1e-9 * h, 1.0, 1.0 + 1e-9 * h, 1.0 / 3.0, 0.5, np.float64(0.7), *rng.uniform(0.0, 1.0, 50)]:
        start, w = grid.interp_weights(n, h, x)
        index, weights = grid.interp_weights(n, h, np.array([x]))
        assert start == index[0, 0] and list(index[0]) == list(range(start, start + 4)), x
        assert np.array_equal(w, weights[0]), x
    for x in (-3e-9 * h, 1.0 + 3e-9 * h, float("nan"), float("inf")):
        for point in (x, np.array([x])):
            with pytest.raises(ValueError, match="outside the grid"):
                grid.interp_weights(n, h, point)


def test_interp_cubic_fourth_order():
    errs = []
    for n in (65, 129):
        t = np.linspace(0.0, 1.0, n)
        vals = np.sin(3 * t)
        xs = np.linspace(0.01, 0.99, 37)
        errs.append(max(abs(interp_cubic(vals, t[1], x) - np.sin(3 * x)) for x in xs))
    assert errs[0] / errs[1] > 10.0


def test_interp_outside_grid_rejected():
    with pytest.raises(ValueError):
        interp_cubic(np.ones(9), 0.125, 1.5)


def test_curve_validation():
    with pytest.raises(ValueError):
        SolutionCurve(0.0, 1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        SolutionCurve(0.0, 1.0, np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        SolutionCurve(1.0, 0.0, np.array([1.0, 2.0]))


def test_curve_values_read_only():
    curve = SolutionCurve.constant(1.0, 1.0, 9)
    with pytest.raises(ValueError):
        curve.values[0] = 2.0


def test_curve_min_from_includes_boundary_node():
    curve = SolutionCurve(0.0, 1.0, np.linspace(1.0, 0.0, 5))
    assert curve.min_from(0.5) == 0.0
    assert curve.min_from(0.5 + 1e-13) == 0.0  # node at exactly 0.5 still counts


def test_curve_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    curve = SolutionCurve(0.0, 1.0, rng.uniform(0.0, 5.0, 65))
    path = tmp_path / "curve.csv"
    write_csv([curve], [path])
    text = path.read_text()
    assert text.startswith("t,u\n")
    assert text.endswith("\n")
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], curve.nodes)
    assert np.array_equal(back[:, 1], curve.values)  # 17 digits reproduce doubles exactly


def _row_by_row_csv(curve: SolutionCurve) -> bytes:
    """The CSV as the former writer formatted it, one row at a time."""
    rows = "".join("%.17g,%.17g\n" % tu for tu in zip(curve.nodes.tolist(), curve.values.tolist()))
    return ("t,u\n" + rows).encode()


def test_write_csv_bytes_match_row_by_row_format(tmp_path):
    # inexact decimals, extremes of the exponent range and exact dyadics
    special = np.array([0.1, 1e-300, 1e300, 0.5, 0.375, 2.0**-30, 3.0, 0.0, 1.0 / 3.0, 12.050382977159664])
    rng = np.random.default_rng(11)
    curves = [
        SolutionCurve(0.0, 1.0, np.resize(special, 65)),
        SolutionCurve(0.0, 1.0, rng.uniform(0.0, 5.0, 65)),  # the same grid as the first
        SolutionCurve(0.0, 2.5, rng.uniform(0.0, 1e-3, 65)),  # as many nodes on another interval
        SolutionCurve(0.0, 1.0, np.resize(special[::-1], 129)),  # more nodes on the first interval
    ]
    paths = [tmp_path / f"solution_{k}.csv" for k in range(len(curves))]
    write_csv(curves, paths)
    for curve, path in zip(curves, paths):
        assert path.read_bytes() == _row_by_row_csv(curve)
    write_csv([curves[2]], [tmp_path / "one.csv"])
    assert (tmp_path / "one.csv").read_bytes() == _row_by_row_csv(curves[2])
    # more distinct grids than the t-column cache keeps, interleaved, then the first grid again;
    # the last two grids compare equal (0.0 == -0.0) but their last nodes print apart
    grids = [(0.0, 1.0 + k / 7.0, 33 + 2 * k) for k in range(T_COLUMNS_KEPT + 2)] + [(-1.0, 0.0, 5), (-1.0, -0.0, 5)]
    cycle = [SolutionCurve(t0, t1, rng.uniform(0.0, 5.0, n)) for t0, t1, n in grids]
    interleaved = cycle + cycle[::2] + cycle[len(cycle) - 1 :: -3]
    paths = [tmp_path / f"cycle_{k}.csv" for k in range(len(interleaved))]
    write_csv(interleaved, paths)
    write_csv([cycle[0]], [tmp_path / "first_again.csv"])
    for curve, path in zip(interleaved + cycle[:1], paths + [tmp_path / "first_again.csv"]):
        assert path.read_bytes() == _row_by_row_csv(curve)
    # no curve writes no file; a zero curve between nonzero ones gives the bytes it gives alone
    before = sorted(tmp_path.iterdir())
    write_csv([], [])
    assert sorted(tmp_path.iterdir()) == before
    mixed = [curves[1], SolutionCurve(0.0, 1.0, np.zeros(65)), curves[0], SolutionCurve(0.0, 1.0, -np.zeros(33))]
    paths = [tmp_path / f"mixed_{k}.csv" for k in range(len(mixed))]
    write_csv(mixed, paths)
    for k, (curve, path) in enumerate(zip(mixed, paths)):
        write_csv([curve], [tmp_path / "alone.csv"])
        assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes() == _row_by_row_csv(curve), k


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_format_g17_is_the_per_value_format(values):
    # any finite doubles, subnormals and -0.0 included, in one array
    assert format_g17(np.array(values)) == [b"%.17g" % v for v in values]


# m / 2**j with exactly 18 significant digits, the 18th a 5: %.17g rounds them half to even
EXACT_TIES = [1049 / 2**20, 211 / 2**21, 43 / 2**22, 9 / 2**23, 3 / 2**24, 2.0**-25]


def test_format_g17_fixed_values():
    powers_of_ten = np.array([10.0**k for k in range(-323, 309)])
    values = np.concatenate(
        [
            powers_of_ten,
            np.nextafter(powers_of_ten, 0.0),
            np.nextafter(powers_of_ten, np.inf),
            2.0 ** np.arange(-1074, 1024),
            EXACT_TIES,
            # where %g switches between fixed and exponent notation; 99999999999999999.0 is the double 1e17
            [1e-5, 9.9999999999999995e-5, 1e-4, 1e16, 99999999999999999.0, 1e17, 12345678901234567.0],
            # three-digit exponents, the limits of the double range, integers and trailing zeros
            [1e-100, 1.5e200, 1e-280, 1e280, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            [0.0, 1.0, 100.0, 0.5, 120.25, 1e15 + 0.5, 0.1, 1 / 3, 12.050382977159664],
        ]
    )
    values = np.concatenate([values, -values])
    assert format_g17(values) == [b"%.17g" % v for v in values.tolist()]
    assert format_g17(np.array([np.inf, -np.inf, np.nan])) == [b"inf", b"-inf", b"nan"]
    assert format_g17(np.array([])) == []


def test_format_g17_takes_the_per_value_format_only_where_its_product_cannot_decide(monkeypatch):
    taken = []
    monkeypatch.setattr(grid, "_g17_one", lambda v: taken.append(v) or b"%.17g" % v)
    values = np.array([*EXACT_TIES, 0.1, 1e300, np.inf])
    assert format_g17(values) == [b"%.17g" % v for v in values.tolist()]
    assert sorted(taken) == sorted([*EXACT_TIES, 1e300, np.inf])  # ties, |e| > EXPONENT_LIMIT and non-finite values
