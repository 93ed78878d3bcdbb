import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from _reference import csv_reference, random_selection, rl_selection_oracle, splitmix64_draw

from svfrac import GridMap, Interval, Selection, hausdorff, lipschitz_constant, rl_setvalued, total_variation
from svfrac.gridmap import CSV_BLOCK, _csv, draw_indices, oracle_seeds, selection_draws
from svfrac.verify import check_convexity, continuity_pairs, run_verification

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
        assert f.eval(0.3) == Interval(1, 2)

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
        assert sym_linear(4).eval(0.5) == Interval(-0.5, 0.5)

    def test_exact_at_nodes(self):
        f = sym_linear(4)
        assert f.eval(0.75) == f.interval_at(3)

    def test_constant_map(self):
        f = GridMap.from_builtin("constant", 0, 1, 8, lo=1.0, hi=2.0)
        assert f.eval(0.37) == Interval(1.0, 2.0)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            sym_linear().eval(1.5)


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
        brute = max(hausdorff(f.eval(x), Interval(0.0, 0.0)) for x in us)
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
        # The verification oracle draws the same rows for many selections at once.
        f = GridMap.from_builtin("sin_envelope", 0, 1, 16)
        draws = selection_draws(17, range(40, 43))
        for k, seed in enumerate(range(40, 43)):
            row = np.array([splitmix64_draw(seed, m) for m in range(17)])
            expected = f.lo + row * (f.hi - f.lo)
            assert np.array_equal(random_selection(f, seed).values, expected)
            assert np.array_equal(draws[k], row)

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
                box = f.eval(u)
                assert box.lo - 1e-12 <= sel.eval(u) <= box.hi + 1e-12

    def test_cross_grid_attachment_is_error(self):
        f = sym_linear(4)
        # another segment count, and the same segment count on other domains
        for s in (Selection(0, 1, np.zeros(9)), Selection(0, 2, np.zeros(5)),
                  Selection(-1, 1, np.zeros(5))):
            with pytest.raises(ValueError):
                s.is_selection_of(f)


class TestSplitMix64:
    """The draws of every oracle: SplitMix64's counter-based stream, one
    per seed, against a Python-int construction and statistical checks."""

    SEEDS = (0, 1, 42, 2**32 + 5, 2**63 - 1)

    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_rows_match_the_reference_bit_for_bit(self, n):
        draws = selection_draws(n, self.SEEDS)
        expected = [[splitmix64_draw(seed, m) for m in range(n)] for seed in self.SEEDS]
        assert draws.shape == (len(self.SEEDS), n)
        assert draws.tolist() == expected

    @pytest.mark.parametrize("k", [1, 2, 65, 4097])
    def test_indices_are_floor_of_the_stream(self, k):
        for seed in self.SEEDS:
            idx = draw_indices(seed, k, 300)
            assert idx.tolist() == [math.floor(splitmix64_draw(seed, m) * k) for m in range(300)]
            assert idx.min() >= 0 and idx.max() < k

    def test_oracle_seeds_wrap_below_the_seed_limit(self):
        assert oracle_seeds(5, 3) == [5, 6, 7]
        assert oracle_seeds(2**63 - 2, 4) == [2**63 - 2, 2**63 - 1, 0, 1]

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64, 1.5, "3"])
    def test_seed_outside_the_range_is_named(self, seed):
        f = sym_linear(8)
        calls = [
            lambda: selection_draws(9, [0, seed]),
            lambda: random_selection(f, seed),
            lambda: draw_indices(seed, 4, 2),
            lambda: oracle_seeds(seed, 2),
            lambda: continuity_pairs(f, seed),
            lambda: check_convexity(f, "x", 0.5, seed, g=f, vals=(0.0, 1.0)),
            lambda: rl_selection_oracle(f, 0.5, 8, samples=2, seed=seed),
            lambda: run_verification(rhos=(0.5,), n_segments=4, seed=seed),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"seed must be an integer in [0, 2**63), got {seed!r}")):
                call()

    def test_uniform_mean_variance_and_bins(self):
        u = selection_draws(1000, range(200)).ravel()  # 2e5 draws
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
        draws = selection_draws(n, range(40, 51))
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

    def test_hat_against_brute_force(self):
        s = Selection(0, 1, [0.0, 1.0, 0.0])
        assert total_variation(s) == 2.0 and lipschitz_constant(s) == 2.0
        # random partitions never exceed the exact value
        worst_var = 0.0
        for _ in range(200):
            pts = np.sort(np.concatenate(([0, 0.5, 1], RNG.uniform(0, 1, 30))))
            ys = [s.eval(p) for p in pts]
            worst_var = max(worst_var, float(np.abs(np.diff(ys)).sum()))
        assert worst_var <= 2.0 + 1e-12
        assert worst_var > 2.0 - 1e-6
        worst_lip = 0.0
        for _ in range(2000):
            u, v = RNG.uniform(0, 1, 2)
            if u != v:
                worst_lip = max(worst_lip, abs(s.eval(u) - s.eval(v)) / abs(u - v))
        assert worst_lip <= 2.0 + 1e-12
