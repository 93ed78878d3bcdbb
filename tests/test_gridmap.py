import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from _reference import (
    csv_reference,
    envelope_two_ends,
    eval_interval,
    hausdorff_two_ends,
    lipschitz_by_diff,
    random_selection,
    rl_selection_oracle,
    setvalued_two_applies,
    splitmix64_draw,
    sup_bound_two_ends,
    variation_by_diff,
)

from svfrac import (
    AffineField,
    CaputoProblem,
    GridMap,
    Selection,
    continuity_modulus,
    hausdorff,
    lipschitz_constant,
    rl_setvalued,
    solution_funnel,
    solve_with_policy,
    total_variation,
)
from svfrac.gridmap import CSV_BLOCK, _csv, draw_indices, selection_draws
from svfrac.verify import continuity_pairs, run_verification

RNG = np.random.default_rng(0)


def sym_linear(n=4):
    return GridMap.from_builtin("sym_linear", 0.0, 1.0, n)


class TestConstruction:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            GridMap(1.0, 0.0, [0, 0], [1, 1])

    def test_crossed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            GridMap(0.0, 1.0, [0, 2], [1, 1])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GridMap(0.0, 1.0, [0, np.inf], [1, np.inf])

    def test_hat_near_the_float_limit(self):
        """The hat's midpoint of [1e308, 1.7e308] is finite, though a + b is not."""
        f = GridMap.from_builtin("hat", 1e308, 1.7e308, 4)
        assert np.array_equal(f.lo, np.zeros(5))
        assert np.allclose(f.hi, [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_abs_envelope_default_center_near_the_float_limit(self):
        f = GridMap.from_builtin("abs_envelope", 1e308, 1.7e308, 4)
        assert np.array_equal(f.lo, -f.hi)
        assert f.hi[2] == 0.0
        assert np.allclose(f.hi[[0, 4]], 0.35e308)

    @pytest.mark.parametrize("a, b, n", [(0.0, 5e-324, 2), (1.0, 1.0000000000000004, 8)])
    def test_repeated_nodes_rejected(self, a, b, n):
        """A step below the float spacing at a or b repeats nodes: both
        constructors reject the grid before they compute a value from it."""
        message = rf"^the nodes of {n} segments of \[{a}, {b}\] repeat"
        with pytest.raises(ValueError, match=message):
            GridMap(a, b, np.zeros(n + 1), np.ones(n + 1))
        for kind in ("constant", "sym_linear", "affine", "abs_envelope", "sin_envelope", "hat"):
            with pytest.raises(ValueError, match=message):
                GridMap.from_builtin(kind, a, b, n)

    def test_one_float_spacing_per_step_is_distinct(self):
        eps = np.finfo(float).eps
        f = GridMap.from_builtin("hat", 1.0, 1.0 + 8 * eps, 8)
        assert np.array_equal(np.diff(f.nodes), np.full(8, eps))
        with pytest.raises(ValueError, match="repeat"):
            GridMap.from_builtin("hat", 1.0, 1.0 + 4 * eps, 8)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(-1e300, 1e300) | st.just(0.0), n=st.integers(2, 300), spacings=st.floats(0.1, 256.0))
    def test_rejected_exactly_when_the_nodes_repeat(self, a, n, spacings):
        """Steps from a tenth of the float spacing at a to 256 of them, and
        subnormal steps from a = 0: the check skips comparing the nodes only
        where they cannot repeat."""
        b = a + n * spacings * float(np.spacing(abs(a)))
        assume(a < b)
        x = np.linspace(a, b, n + 1)
        if (x[1:] > x[:-1]).all():
            GridMap(a, b, np.zeros(n + 1), np.ones(n + 1))
        else:
            with pytest.raises(ValueError, match="repeat"):
                GridMap(a, b, np.zeros(n + 1), np.ones(n + 1))

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            GridMap.from_builtin("nope")

    def test_unknown_builtin_parameter(self):
        with pytest.raises(TypeError, match="heigth"):
            GridMap.from_builtin("hat", 0, 1, 4, heigth=5)
        with pytest.raises(TypeError, match="bogus"):
            GridMap.from_json({"a": 0, "b": 1, "segments": 2, "kind": "hat", "params": {"bogus": 1}})

    def test_constructors_on_selection_build_interval_maps(self):
        # The inherited constructors build the interval-valued map they describe.
        f = Selection.from_builtin("hat", 0, 1, 4)
        assert type(f) is GridMap
        assert np.array_equal(f.lo, np.zeros(5)) and np.array_equal(f.hi, [0, 0.5, 1, 0.5, 0])
        g = Selection.from_json(sym_linear().to_json())
        assert type(g) is GridMap and np.array_equal(g.lo, -g.hi)

    def test_json_roundtrip(self):
        f = sym_linear()
        g = GridMap.from_json(f.to_json())
        assert np.array_equal(f.lo, g.lo) and np.array_equal(f.hi, g.hi)

    def test_json_builtin_kind(self):
        f = GridMap.from_json(
            {"a": 0, "b": 1, "segments": 4, "kind": "constant", "params": {"lo": 1, "hi": 2}}
        )
        assert eval_interval(f, 0.3) == (1, 2)

    @pytest.mark.parametrize("segments", [2.5, True, False, float("inf"), float("nan")])
    def test_json_non_integral_segments_rejected(self, segments):
        with pytest.raises(ValueError, match="segments must be an integer"):
            GridMap.from_json({"a": 0, "b": 1, "segments": segments, "kind": "hat"})

    def test_json_integral_float_segments(self):
        assert GridMap.from_json({"a": 0, "b": 1, "segments": 4.0, "kind": "hat"}).n_segments == 4

    def test_csv_has_header_and_12_digits(self):
        text = sym_linear().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "u,lo,hi"
        assert len(lines) == 6
        assert lines[-1] == "1,-1,1"


class TestBlockWriter:
    """The CSV writers format CSV_BLOCK rows per block; the text must not
    depend on where the block boundaries fall."""

    @pytest.mark.parametrize(
        "rows", [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK + 7]
    )
    @pytest.mark.parametrize("n_columns", [2, 3])
    def test_string_and_stream_match_row_by_row_reference(self, rows, n_columns):
        rng = np.random.default_rng(rows * n_columns)
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
                   for _ in range(n_columns)]
        columns[0][::5] = -0.0
        columns[-1][1::7] = 1 / 3
        header = ",".join("abc"[:n_columns])
        expected = csv_reference(header, *columns)
        assert _csv(header, *columns) == expected
        stream = io.StringIO()
        assert _csv(header, *columns, out=stream) is None
        assert stream.getvalue() == expected

    def test_map_writer_streams_what_it_returns(self):
        g = GridMap.from_builtin("sin_envelope", 0.0, 2.0, CSV_BLOCK + 1)
        stream = io.StringIO()
        g.to_csv(stream)
        assert stream.getvalue() == g.to_csv() == csv_reference("u,lo,hi", g.nodes, g.lo, g.hi)

    def test_integral_and_csv_memory_is_bounded(self, tmp_path):
        # One row's FFT temporaries and one block of text at a time: the
        # integral and its CSV at N = 65536 trace about 5.8 MB, where both
        # endpoint spectra at once and the whole text took 11.7 MB.
        f = GridMap.from_builtin("sin_envelope", 0.0, 1.0, 65536)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            g = rl_setvalued(f, 0.5)
            with open(tmp_path / "g.csv", "w") as fh:
                g.to_csv(fh)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8e6


class TestEval:
    def test_canonical_map_between_nodes(self):
        assert eval_interval(sym_linear(4), 0.5) == (-0.5, 0.5)

    def test_exact_at_nodes(self):
        f = sym_linear(4)
        assert eval_interval(f, 0.75) == (f.lo[3], f.hi[3])

    def test_constant_map(self):
        f = GridMap.from_builtin("constant", 0, 1, 8, lo=1.0, hi=2.0)
        assert eval_interval(f, 0.37) == (1.0, 2.0)


class TestSupBound:
    def test_canonical_map(self):
        assert sym_linear(16).sup_bound() == 1.0

    def test_constant(self):
        assert GridMap.from_builtin("constant", 0, 1, 4, lo=1, hi=2).sup_bound() == 2.0

    def test_against_brute_force(self):
        u = np.linspace(0, 1, 9)
        f = GridMap(0, 1, -3 + u, u)
        assert f.sup_bound() == 3.0
        us = RNG.uniform(0, 1, 10_000)
        brute = max(hausdorff(eval_interval(f, x), (0.0, 0.0)) for x in us)
        assert brute <= f.sup_bound() + 1e-12
        assert f.sup_bound() - brute < 1e-3


class TestSelections:
    def test_extremals_of_canonical_map(self):
        f = sym_linear(8)
        lo, hi = f.extremal_lower(), f.extremal_upper()
        assert np.allclose(lo.values, -f.nodes)
        assert np.allclose(hi.values, f.nodes)
        # a selection is the point-valued map: one array for lo and hi
        assert isinstance(lo, GridMap) and lo.lo is lo.hi is lo.values

    def test_extremals_view_the_maps_read_only_arrays(self):
        """The extremal selections are lo and hi themselves, not copies."""
        f = GridMap.from_builtin("sin_envelope", 0, 1, 16)
        for sel, ends in ((f.extremal_lower(), f.lo), (f.extremal_upper(), f.hi)):
            assert np.shares_memory(sel.values, ends)
            with pytest.raises(ValueError, match="read-only"):
                sel.values[0] = 0.0

    def test_degenerate_extremals_coincide(self):
        f = GridMap(0, 1, [0, 1, 2], [0, 1, 2])
        assert np.array_equal(f.extremal_lower().values, f.extremal_upper().values)

    def test_constant_upper(self):
        f = GridMap.from_builtin("constant", 0, 1, 4, lo=1, hi=2)
        assert np.all(f.extremal_upper().values == 2.0)

    def test_random_selection_deterministic(self):
        f = sym_linear(32)
        s1, s2 = random_selection(f, 99), random_selection(f, 99)
        assert np.array_equal(s1.values, s2.values)

    def test_random_selection_draw_recipe(self):
        f = GridMap.from_builtin("sin_envelope", 0, 1, 16)
        for seed in range(40, 43):
            row = np.array([splitmix64_draw(seed, m) for m in range(17)])
            expected = f.lo + row * (f.hi - f.lo)
            assert np.array_equal(random_selection(f, seed).values, expected)
            assert np.array_equal(selection_draws(17, seed), row)

    def test_degenerate_unique_selection(self):
        f = GridMap(0, 1, [1, 2, 3], [1, 2, 3])
        assert np.array_equal(random_selection(f, 5).values, [1, 2, 3])

    def test_uniform_sampler_mean(self):
        # node u=1 of [-u, u]: 1e4 draws, mean ~ 0 within 3 standard errors
        f = sym_linear(4)
        draws = np.array([random_selection(f, seed).values[-1] for seed in range(10_000)])
        stderr = (2.0 / np.sqrt(12.0)) / 100.0
        assert abs(draws.mean()) < 3 * stderr

    def test_membership_at_nodes_and_interior(self):
        f = GridMap.from_builtin("sin_envelope", 0, 1, 32)
        for sel in (f.extremal_lower(), f.extremal_upper(), random_selection(f, 3)):
            assert sel.is_selection_of(f)
            for u in RNG.uniform(0, 1, 1000):
                lo, hi = eval_interval(f, u)
                assert lo - 1e-12 <= eval_interval(sel, u)[0] <= hi + 1e-12

    def test_cross_grid_attachment_is_error(self):
        f = sym_linear(4)
        # another segment count, and the same segment count on other domains
        for s in (Selection(0, 1, np.zeros(9)), Selection(0, 2, np.zeros(5)),
                  Selection(-1, 1, np.zeros(5))):
            with pytest.raises(ValueError):
                s.is_selection_of(f)


class TestSplitMix64:
    """The draws of 3.4's pairs and of the tests' random selections:
    SplitMix64's counter-based stream, one per seed, against a Python-int
    construction and statistical checks."""

    SEEDS = (0, 1, 42, 2**32 + 5, 2**63 - 1)

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 1000, 4096])
    def test_rows_match_the_reference_bit_for_bit(self, n):
        for seed in self.SEEDS:
            draws = selection_draws(n, seed)
            assert draws.shape == (n,)
            assert draws.tolist() == [splitmix64_draw(seed, m) for m in range(n)]

    @pytest.mark.parametrize("k", [1, 2, 65, 4097])
    def test_indices_are_floor_of_the_stream(self, k):
        for seed in self.SEEDS:
            idx = draw_indices(seed, k, 300)
            assert idx.tolist() == [math.floor(splitmix64_draw(seed, m) * k) for m in range(300)]
            assert idx.min() >= 0 and idx.max() < k

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64, 1.5, "3"])
    def test_seed_outside_the_range_is_named(self, seed):
        f = sym_linear(8)
        calls = [
            lambda: selection_draws(9, seed),
            lambda: random_selection(f, seed),
            lambda: draw_indices(seed, 4, 2),
            lambda: continuity_pairs(f, seed),
            lambda: rl_selection_oracle(f, 0.5, 8, samples=2, seed=seed),
            lambda: run_verification(rhos=(0.5,), n_segments=4, seed=seed),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"seed must be an integer in [0, 2**63), got {seed!r}")):
                call()

    def test_uniform_mean_variance_and_bins(self):
        u = np.concatenate([selection_draws(1000, seed) for seed in range(200)])  # 2e5 draws
        n = u.size
        assert u.min() >= 0.0 and u.max() < 1.0
        # a draw's variance is 1/12, and that of its squared deviation 1/80 - 1/144
        assert abs(u.mean() - 0.5) < 5 * math.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) < 5 * math.sqrt((1 / 80 - 1 / 144) / n)
        counts = np.bincount((u * 100).astype(int), minlength=100)
        chi2 = float(((counts - n / 100) ** 2).sum() / (n / 100))
        # 99 degrees of freedom: mean 99, standard deviation sqrt(198) ~ 14
        assert chi2 < 99 + 6 * math.sqrt(2 * 99)

    def test_rows_of_consecutive_seeds_are_uncorrelated(self):
        n = 1 << 16
        draws = np.array([selection_draws(n, seed) for seed in range(40, 51)])
        r = [float(np.corrcoef(a, b)[0, 1]) for a, b in zip(draws[:-1], draws[1:])]
        assert max(abs(x) for x in r) < 5 / math.sqrt(n)
        # within a row, consecutive draws are uncorrelated too
        lag = [float(np.corrcoef(row[:-1], row[1:])[0, 1]) for row in draws]
        assert max(abs(x) for x in lag) < 5 / math.sqrt(n)


class TestVariationLipschitz:
    def test_monotone_linear(self):
        s = Selection(0, 1, -np.linspace(0, 1, 9))
        assert total_variation(s) == 1.0
        assert abs(lipschitz_constant(s) - 1.0) < 1e-12

    def test_constant(self):
        s = Selection(0, 1, np.zeros(5))
        assert total_variation(s) == 0.0 and lipschitz_constant(s) == 0.0

    def test_beyond_the_float_range_is_named(self):
        """A finite map whose increment, sum of increments or increment over
        the step overflows: an OverflowError naming the measure, no warning."""
        jump = Selection(0, 1, [-1.7e308, 1.7e308])
        with pytest.raises(OverflowError, match=r"^the total variation of the map on \[0.0, 1.0\] is not finite$"):
            total_variation(jump)
        with pytest.raises(OverflowError, match=r"^the Lipschitz constant of the map on \[0.0, 1.0\] is not finite$"):
            lipschitz_constant(jump)
        assert lipschitz_constant(Selection(0, 2, [0.0, 1e308])) == 5e307
        zigzag = Selection(0, 1, [0.0, 1e308, 0.0])
        with pytest.raises(OverflowError, match="total variation"):
            total_variation(zigzag)
        with pytest.raises(OverflowError, match="Lipschitz constant"):
            lipschitz_constant(zigzag)

    def test_hat_against_brute_force(self):
        s = Selection(0, 1, [0.0, 1.0, 0.0])
        assert total_variation(s) == 2.0 and lipschitz_constant(s) == 2.0
        # random partitions never exceed the exact value
        worst_var = 0.0
        for _ in range(200):
            pts = np.sort(np.concatenate(([0, 0.5, 1], RNG.uniform(0, 1, 30))))
            ys = [eval_interval(s, p)[0] for p in pts]
            worst_var = max(worst_var, float(np.abs(np.diff(ys)).sum()))
        assert worst_var <= 2.0 + 1e-12
        assert worst_var > 2.0 - 1e-6
        worst_lip = 0.0
        for _ in range(2000):
            u, v = RNG.uniform(0, 1, 2)
            if u != v:
                worst_lip = max(worst_lip, abs(eval_interval(s, u)[0] - eval_interval(s, v)[0]) / abs(u - v))
        assert worst_lip <= 2.0 + 1e-12


def same_bits(x, y) -> bool:
    """x and y have one shape and the same bits."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestStackedRows:
    """A GridMap holds its node values as one read-only (2, N+1) array
    `rows`, lo and hi views of its rows; a Selection is the one-row map.
    Every measure reduces over the rows, bit for bit as the two-endpoint
    formulas of the reference do."""

    def test_lo_and_hi_view_one_read_only_array(self):
        f = GridMap.from_builtin("sin_envelope", 0, 1, 16)
        assert f.rows.shape == (2, 17) and not f.rows.flags.writeable
        assert np.shares_memory(f.lo, f.rows) and np.shares_memory(f.hi, f.rows)
        assert same_bits(f.rows, np.stack((f.lo, f.hi)))
        s = f.extremal_upper()
        assert s.rows.shape == (1, 17) and s.lo is s.hi and np.shares_memory(s.rows, f.rows)

    def test_the_integral_and_the_funnel_hold_their_results(self, monkeypatch):
        """The set-valued integral wraps the (2, N+1) array its one apply
        wrote, and the funnel its sorted trajectories: no copy."""
        held = []
        real = GridMap._hold

        def hold(self, a, b, rows):
            held.append(rows)
            return real(self, a, b, rows)

        monkeypatch.setattr(GridMap, "_hold", hold)
        g = rl_setvalued(GridMap.from_builtin("hat", 0, 1, 8), 0.5)
        assert g.rows is held[-1]
        problem = CaputoProblem(1.5, 0.0, 10.0, 1.0, 0.0, rhs=AffineField(-1.0, -0.1, 0.1))
        with pytest.warns(UserWarning, match="not a guaranteed enclosure"):  # p < 0
            funnel = solution_funnel(problem, n=64)
        assert funnel.rows is held[-1]
        assert same_bits(funnel.rows, np.sort(np.array([solve_with_policy(problem, policy, n=64).us
                                                        for policy in ("lower", "upper")]), axis=0))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        c=st.sampled_from([1e-310, 1e-6, 1.0, 1e200]),
        domain=st.sampled_from([(0.0, 1.0), (-3.0, 7.0), (1000.0, 1000.01)]),
        rho=st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.7]),
    )
    def test_reductions_equal_the_two_endpoint_formulas(self, n, seed, c, domain, rho):
        """hausdorff, total_variation, lipschitz_constant, sup_bound,
        continuity_modulus and rl_setvalued of random interval maps and of
        one-row selections have the bits of the two-endpoint formulas."""
        rng = np.random.default_rng(seed)
        lo = c * rng.uniform(-1.0, 1.0, n + 1)
        f = GridMap(*domain, lo, lo + c * rng.uniform(0.0, 1.0, n + 1) * (rng.uniform(size=n + 1) < 0.8))
        i, j = np.sort(rng.integers(0, n + 1, (2, 20)), axis=0)
        u, v = f.nodes[i], np.minimum(f.nodes[j] + rng.uniform(0.0, f.step, 20), f.b)
        for m in (f, Selection(*domain, lo)):
            ends_i, ends_j = (m.lo[i], m.hi[i]), (m.lo[j], m.hi[j])
            assert same_bits(hausdorff(m.rows[:, i], m.rows[:, j]), hausdorff_two_ends(ends_i, ends_j))
            assert same_bits(hausdorff((m.lo, m.hi), (c, -c)), hausdorff_two_ends((m.lo, m.hi), (c, -c)))
            assert same_bits(total_variation(m), variation_by_diff(m))
            assert same_bits(lipschitz_constant(m), lipschitz_by_diff(m))
            assert same_bits(m.sup_bound(), sup_bound_two_ends(m))
            # The modulus reads m through its envelope alone: the point map of
            # the two-endpoint envelope has the same modulus.
            envelope = Selection(*domain, envelope_two_ends(m))
            assert same_bits(continuity_modulus(m, rho, u, v), continuity_modulus(envelope, rho, u, v))
            g = rl_setvalued(m, rho)
            for got, want in zip((g.lo, g.hi), setvalued_two_applies(m, rho)):
                assert same_bits(got, want)
