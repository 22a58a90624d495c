import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rankseg import (
    CusumTable,
    DetectorConfig,
    Norm,
    Segmentation,
    StopRule,
    bic_penalty,
    bic_select,
    detect,
    overestimate,
    segment,
    solution_path,
    st_likelihood,
)
from rankseg.selector import SolutionPath, _xlogx
from rankseg.simulate import ModelSpec, generate

from conftest import naive_cusum, naive_norm, rescale_sd, sorted_st_likelihood


def naive_st_likelihood(values, breakpoints):
    """Literal double loop over segments and order statistics."""
    x = list(values)
    t = len(x)
    xs = sorted(x)
    edges = [0, *breakpoints, t]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        seg = x[a:b]
        for l in range(2, t):
            u = xs[l - 1]
            f = sum(1 for v in seg if v <= u) / (b - a)
            ent = 0.0
            if f > 0:
                ent += f * math.log(f)
            if f < 1:
                ent += (1 - f) * math.log(1 - f)
            total += (b - a) / (l * (t - l)) * ent
    return t * total


def naive_solution_path(values, candidates, kind, points, sd=None):
    """Full re-scoring of every triplet at every round."""
    t = len(values)
    work = list(candidates)
    removed = []
    while work:
        scores = []
        for j, cur in enumerate(work):
            prev = work[j - 1] if j > 0 else 0
            nxt = work[j + 1] if j + 1 < len(work) else t
            row = [naive_cusum(values, prev + 1, nxt, cur, u) for u in points]
            if sd is not None:
                row = [v / w for v, w in zip(row, sd)]
            scores.append(naive_norm(kind, row))
        m = scores.index(min(scores))
        removed.append(work.pop(m))
    return tuple(reversed(removed))


class TestStLikelihood:
    def test_hand_value_t3(self):
        # single l = 2 term: 3 * (3 / (2*1)) * [(2/3)ln(2/3) + (1/3)ln(1/3)]
        expected = 3 * 1.5 * ((2 / 3) * math.log(2 / 3) + (1 / 3) * math.log(1 / 3))
        assert st_likelihood([1.0, 2.0, 3.0]) == pytest.approx(expected, abs=1e-12)

    def test_constant_series_zero(self):
        assert st_likelihood([5.0] * 10) == 0.0
        assert st_likelihood([5.0] * 10, (3, 7)) == 0.0

    def test_matches_naive(self, rng):
        for _ in range(20):
            t = int(rng.integers(3, 25))
            ties = bool(rng.integers(2))
            x = rng.integers(0, 4, t).astype(float) if ties else rng.standard_normal(t)
            n_bp = int(rng.integers(0, min(4, t - 1)))
            bpts = sorted(rng.choice(np.arange(1, t), size=n_bp, replace=False).tolist())
            assert st_likelihood(x, bpts) == pytest.approx(
                naive_st_likelihood(x, bpts), abs=1e-9
            )

    @pytest.mark.parametrize("ties", [False, True])
    def test_equals_sorted_oracle_bitwise(self, rng, ties):
        # rank counts give the same floats as sorting and binary search
        for _ in range(40):
            t = int(rng.integers(1, 400))
            x = rng.integers(0, 7, t).astype(float) if ties else rng.standard_normal(t)
            n_bp = int(rng.integers(0, min(12, t - 1) + 1))
            bpts = sorted(rng.choice(np.arange(1, t), size=n_bp, replace=False).tolist())
            assert st_likelihood(x, bpts) == sorted_st_likelihood(x, bpts)

    def test_equals_sorted_oracle_on_every_path_prefix(self):
        # every criterion score of segment, and st_likelihood on every path
        # prefix, must equal the sorted oracle bit for bit
        series = generate(ModelSpec("T1", 0))
        seg = segment(series)
        path = seg.path
        assert len(path) > 50
        penalty = bic_penalty(len(series))
        for j in range(len(path) + 1):
            bpts = path.model(j)
            oracle = sorted_st_likelihood(series.values, bpts)
            assert st_likelihood(series, bpts) == oracle
            assert seg.bic.scores[j] == -oracle + j * penalty

    @pytest.mark.parametrize("length, terms", [(3000, 199), (6000, 399)])
    def test_each_segment_term_computed_once_per_call(self, monkeypatch, length, terms):
        # each path prefix splits one segment of the previous prefix, so the
        # criterion needs 2J+1 distinct terms; _xlogx runs twice per term
        calls = []

        def counting(p):
            calls.append(p.size)
            return _xlogx(p)

        monkeypatch.setattr("rankseg.selector._xlogx", counting)
        x = generate(ModelSpec("T1", 0, length=length)).values
        seg = segment(x)
        assert len(calls) == 2 * terms == 2 * (2 * len(seg.path) + 1)
        # a second call computes every term again: nothing is kept between calls
        assert segment(x).bic == seg.bic
        assert len(calls) == 4 * terms

    def test_keeps_nothing_on_the_series(self):
        # the criterion's weights and terms live in the call: the series
        # holds its fields and its cached ranks only
        series = generate(ModelSpec("T1", 0))
        segment(series, DetectorConfig(stop="bic"))
        assert set(vars(series)) == {"values", "truth", "ranks"}
        st_likelihood(series, (100, 200))
        assert set(vars(series)) == {"values", "truth", "ranks"}

    @pytest.mark.parametrize("ties", [False, True])
    def test_short_segments_at_the_sentinels(self, rng, ties):
        # a segment of n observations has n + 1 ECDF values, here 2 or 3
        T = 40
        x = rng.integers(0, 5, T).astype(float) if ties else rng.standard_normal(T)
        for bpts in [
            (1,), (2,), (T - 1,), (T - 2,), (1, T - 1), (2, T - 2),
            (1, 3, T - 2, T - 1), (1, 2, 20, T - 2, T - 1),
        ]:
            assert st_likelihood(x, bpts) == sorted_st_likelihood(x, bpts)

    def test_too_short_for_a_term(self):
        # no order statistic strictly inside 1..T: the sum is empty
        assert st_likelihood([4.0]) == 0.0
        assert st_likelihood([4.0, 1.0]) == 0.0
        assert st_likelihood([4.0, 1.0], [1]) == 0.0

    def test_finite_and_nonpositive(self, rng):
        for _ in range(20):
            t = int(rng.integers(2, 40))
            x = rng.integers(0, 3, t).astype(float)
            value = st_likelihood(x, [t // 2] if t > 2 else [])
            assert np.isfinite(value)
            assert value <= 1e-12

    def test_refining_never_decreases(self, rng):
        # convexity of the negative entropy makes finer fits at least as good
        for _ in range(10):
            t = int(rng.integers(4, 21))
            x = rng.standard_normal(t)
            base = st_likelihood(x)
            for b in range(1, t):
                assert st_likelihood(x, [b]) >= base - 1e-9

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            st_likelihood(np.arange(10.0), [5, 3])
        with pytest.raises(ValueError):
            st_likelihood(np.arange(10.0), [4, 4])
        with pytest.raises(ValueError):
            st_likelihood(np.arange(10.0), [10])


class TestEntropyTerm:
    def test_zero_convention_and_values(self):
        p = np.array([0.0, 0.25, 0.5, 1.0])
        got = _xlogx(p)
        assert got[0] == 0.0 and got[-1] == 0.0
        assert got[1] == pytest.approx(0.25 * math.log(0.25), abs=1e-15)
        assert got[2] == pytest.approx(0.5 * math.log(0.5), abs=1e-15)
        assert p.tolist() == [0.0, 0.25, 0.5, 1.0]  # input untouched

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency of the package
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, rankseg\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBicSelect:
    def test_penalty_formula(self):
        assert bic_penalty(500) == pytest.approx(0.5 * math.log(500) ** 2.1, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.5, True, 0, -3])
    def test_penalty_length_validated(self, bad):
        # 0.5 once gave a complex penalty, True 0.0 and 0 a math domain error
        with pytest.raises(ValueError, match="length must be"):
            bic_penalty(bad)

    def test_one_point_series(self):
        assert bic_penalty(1) == 0.0
        result = bic_select(np.array([4.0]), SolutionPath((), ()))
        assert (result.chosen_j, result.penalty, result.changepoints) == (0, 0.0, ())

    @pytest.mark.parametrize("bad", [[3], (3, 7), None])
    def test_path_must_be_a_solution_path(self, bad):
        # a list of positions once raised AttributeError on path.model
        with pytest.raises(ValueError, match="path must be a SolutionPath"):
            bic_select(np.arange(20.0), bad)

    @pytest.mark.parametrize("entry", [0, 20, 5.0])
    def test_path_entries_validated(self, entry):
        # an entry outside [1, T - 1] or not an integer is no change-point;
        # SolutionPath itself rejects the non-integer
        with pytest.raises(ValueError, match="path entries must"):
            bic_select(np.arange(20.0), SolutionPath((7, entry), (1.0, 0.5)))

    @pytest.mark.parametrize("entry", [1.5, True, np.float64(3.0)])
    def test_path_entries_must_be_integers(self, entry):
        # a float or bool entry was once stored as given
        with pytest.raises(ValueError, match="solution path entries must be an integer"):
            SolutionPath((entry,), (1.0,))

    def test_path_entries_stored_as_ints(self):
        # numpy integer entries once reached changepoints as np.int64, which
        # the JSON document could not serialize
        x = generate(ModelSpec("M1", 0)).values
        path = SolutionPath(np.array([100, 40]), np.array([5.0, 1.0]))
        result = bic_select(x, path)
        assert result.changepoints == (100,) and type(result.changepoints[0]) is int
        seg = Segmentation((100,), (5.0,), DetectorConfig(), len(x), path=path, bic=result)
        document = json.loads(json.dumps(seg.to_dict()))
        assert document["changepoints"] == [100] and document["solution_path"] == [100, 40]
        assert path.ordered == (100, 40) and set(map(type, path.ordered)) == {int}

    def test_empty_path(self):
        result = bic_select(np.arange(20.0), SolutionPath((), ()))
        assert result.chosen_j == 0
        assert result.changepoints == ()
        assert len(result.scores) == 1

    def test_chosen_minimises(self, rng):
        x = generate(ModelSpec("MM_GAUSS", 0)).values
        cands = overestimate(x, DetectorConfig()).changepoints
        path = solution_path(x, cands, DetectorConfig(grid="full"))
        result = bic_select(x, path)
        assert set(result.changepoints) <= set(path.ordered)
        assert result.scores[result.chosen_j] == min(result.scores)
        assert result.chosen_j == int(np.argmin(result.scores))
        assert result.penalty == pytest.approx(bic_penalty(len(x)))


class TestSolutionPath:
    def test_single_candidate(self):
        x = np.arange(30.0)
        path = solution_path(x, [12])
        assert path.ordered == (12,)
        assert len(path.removal_scores) == 1

    def test_empty_candidates(self):
        path = solution_path(np.arange(10.0), [])
        assert path.ordered == ()

    def test_permutation_of_input(self, rng):
        for _ in range(25):
            t = int(rng.integers(10, 80))
            x = rng.standard_normal(t)
            k = int(rng.integers(1, min(8, t - 1)))
            cands = sorted(rng.choice(np.arange(1, t), size=k, replace=False).tolist())
            path = solution_path(x, cands)
            assert sorted(path.ordered) == cands

    def test_genuine_jump_ranked_first(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(0.0, 1.0, 100), rng.normal(5.0, 1.0, 100)])
        path = solution_path(x, [100, 150])
        assert path.ordered[0] == 100
        # direct triplet scoring agrees: the jump outranks the noise point
        points = np.sort(x)
        sd = [rescale_sd(x, u) for u in points]

        def score(s, e, b):
            return naive_norm("linf", [naive_cusum(x, s, e, b, u) / w for u, w in zip(points, sd)])

        assert score(1, 150, 100) > score(1, 200, 150)

    def test_neighbor_rescoring_equals_full_recompute(self, rng):
        # only triplets adjacent to a removal change, so lazy re-scoring must
        # reproduce the naive full re-scoring pass exactly
        for _ in range(10):
            t = int(rng.integers(12, 60))
            x = rng.standard_normal(t)
            k = int(rng.integers(2, min(9, t - 1)))
            cands = sorted(rng.choice(np.arange(1, t), size=k, replace=False).tolist())
            points = np.sort(x)
            for kind in (Norm.L2, Norm.LINF):
                # the path divides by the indicator deviations under linf only
                sd = [rescale_sd(x, u) for u in points] if kind is Norm.LINF else None
                fast = solution_path(x, cands, DetectorConfig(norm=kind, grid="full"))
                slow = naive_solution_path(x, cands, kind.value, points, sd)
                assert fast.ordered == slow
        # on tied data the path keeps one column per distinct indicator and
        # weights l1 and l2 by multiplicity, where the naive pass keeps all T
        for _ in range(10):
            t = int(rng.integers(12, 60))
            x = rng.integers(0, 5, t).astype(float)
            k = int(rng.integers(2, min(9, t - 1)))
            cands = sorted(rng.choice(np.arange(1, t), size=k, replace=False).tolist())
            points = np.sort(x)
            for kind in (Norm.L1, Norm.L2, Norm.LINF):
                sd = [rescale_sd(x, u) for u in points] if kind is Norm.LINF else None
                fast = solution_path(x, cands, DetectorConfig(norm=kind, grid="full"))
                slow = naive_solution_path(x, cands, kind.value, points, sd)
                assert fast.ordered == slow

    def test_rank_invariance(self, rng):
        x = generate(ModelSpec("MM_GAUSS", 7)).values
        cfg = DetectorConfig(grid="full")
        cands = overestimate(x, cfg).changepoints
        base = solution_path(x, cands, cfg)
        mapped = solution_path(np.exp(x), cands, cfg)
        assert base.ordered == mapped.ordered

    def test_builds_one_table_at_its_cut_times(self, monkeypatch):
        # the path reads the rows at 0, at its J candidates and at T only
        series = generate(ModelSpec("MM_GAUSS", 0))
        cands = overestimate(series).changepoints
        rows = []
        init = CusumTable.__init__

        def spy(table, *args, **kwargs):
            init(table, *args, **kwargs)
            rows.append(table.prefix.shape[0])

        monkeypatch.setattr(CusumTable, "__init__", spy)
        path = solution_path(series, cands)
        assert cands and rows == [len(cands) + 2]
        monkeypatch.undo()
        assert path == segment(series).path

    @pytest.mark.parametrize(
        "model, length, calls, triplets", [("MM_GAUSS", None, 3, 5), ("T1", 3000, 99, 205)]
    )
    def test_row_calls_of_a_path(self, monkeypatch, model, length, calls, triplets):
        # one row call scores all J first-round triplets (J <= 109 at Q = 300)
        # and one per removal re-scores its neighbours: 3 and 99 calls at
        # seed 0, where one call per triplet took 5 and 205
        series = generate(ModelSpec(model, 0, length=length))
        cands = overestimate(series).changepoints
        sizes = []
        row = CusumTable.row

        def spy(table, s, e, b):
            sizes.append(len(s))
            return row(table, s, e, b)

        monkeypatch.setattr(CusumTable, "row", spy)
        path = solution_path(series, cands)
        assert sizes[0] == len(cands) and len(sizes) == len(cands) == calls
        assert sum(sizes) == triplets and max(sizes[1:]) <= 2
        monkeypatch.undo()
        assert path == segment(series).path

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_batched_scores_equal_single_rows_on_ties(self, monkeypatch, norm):
        # the weighted l1/l2 norm of a row does not depend on how many rows
        # one call scores: the batched path equals one scored row at a time
        from test_golden import PAPER_MODELS

        import rankseg.selector

        config = DetectorConfig(norm=norm)
        norm_rows = rankseg.selector.norm_value

        def one_by_one(kind, rows, counts=None):
            return np.array([norm_rows(kind, row, counts) for row in rows])

        tied_cases = 0
        for model in PAPER_MODELS:
            for seed in range(3):
                series = generate(ModelSpec(model, seed))
                if np.unique(series.values).size == len(series):
                    continue
                tied_cases += 1
                cands = overestimate(series, config).changepoints
                batched = solution_path(series, cands, config)
                with monkeypatch.context() as m:
                    m.setattr(rankseg.selector, "norm_value", one_by_one)
                    single = solution_path(series, cands, config)
                assert batched == single, (model, seed)
        assert tied_cases >= 6

    def test_peak_memory_of_a_long_path(self):
        # T1(6000) with its 199 sweep candidates and Q = 300: a (T + 1) x Q
        # table alone would take 6.9 MiB
        series = generate(ModelSpec("T1", 0, length=6000))
        cands = overestimate(series).changepoints
        assert len(cands) == 199
        tracemalloc.start()
        try:
            solution_path(series, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            solution_path(np.arange(10.0), [3, 2])
        with pytest.raises(ValueError):
            solution_path(np.arange(10.0), [0])


class TestOverestimate:
    def test_uses_reduced_constant(self):
        # 20% off the defaults: 0.72 for linf, 0.48 for l2, on raw contrasts
        series = generate(ModelSpec("MM_GAUSS", 2))
        for kind, reduced in ((Norm.LINF, 0.72), (Norm.L2, 0.48)):
            cfg = DetectorConfig(norm=kind)
            explicit = DetectorConfig(
                norm=kind, threshold_constant=reduced, stop=StopRule.THRESHOLD
            )
            assert overestimate(series, cfg).changepoints == detect(series, explicit).changepoints
            echo = overestimate(series, cfg).config
            assert echo.stop is StopRule.THRESHOLD
            assert echo.threshold_constant == pytest.approx(reduced)

    def test_noise_gives_few_candidates(self):
        series = generate(ModelSpec("NOCHANGE_GAUSS", 1, length=200))
        assert overestimate(series, DetectorConfig()).n_changepoints <= 3


class TestDetectBic:
    def test_constant_series_empty(self):
        seg = segment([2.0] * 50)
        assert seg.changepoints == ()
        assert seg.bic.chosen_j == 0

    def test_two_level_step(self):
        rng = np.random.default_rng(21)
        x = np.concatenate([rng.normal(0.0, 1.0, 60), rng.normal(8.0, 1.0, 60)])
        seg = segment(x)
        assert len(seg.changepoints) == 1
        assert abs(seg.changepoints[0] - 60) <= 2

    def test_exp_transform_invariance(self):
        cfg = DetectorConfig(grid="full")
        for seed in range(5):
            series = generate(ModelSpec("MM_GAUSS", seed))
            base = segment(series, cfg).changepoints
            assert segment(np.exp(series.values), cfg).changepoints == base

    def test_m1_smoke(self):
        hits = sum(
            segment(generate(ModelSpec("M1", seed))).n_changepoints == 1
            for seed in range(20)
        )
        assert hits >= 16

    @pytest.mark.parametrize(
        "cfg", [DetectorConfig(), DetectorConfig(norm="l2"), DetectorConfig(grid=50)],
        ids=["default", "l2", "grid50"],
    )
    def test_solution_path_is_the_pipelines_path(self, cfg):
        # the path stage reads the pipeline's config: same levels, same norm,
        # rescaled exactly under linf, so the stages compose to segment
        models = ["MM_GAUSS", "MV_GAUSS", "MD2", "MD3", "MV_GAUSS2", "MM_GAUSS2"]
        for model in models:
            for seed in range(3):
                series = generate(ModelSpec(model, seed))
                path = solution_path(series, overestimate(series, cfg).changepoints, cfg)
                assert path == segment(series, cfg).path

    def test_table_over_budget_raises(self, monkeypatch):
        # full levels at T = 1000 need a 4 MB table and an 8 MB scan profile,
        # over a 2 MiB budget; 200 levels need 0.8 MB and 1.6 MB
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", 2 * 2**20)
        series = generate(ModelSpec("NOCHANGE_GAUSS", 0, length=1000))
        with pytest.raises(ValueError, match="T=1000 and Q=1000"):
            segment(series, DetectorConfig(grid="full"))
        assert segment(series, DetectorConfig(grid=200)).changepoints == ()

    def test_scores_come_from_path(self):
        series = generate(ModelSpec("MM_GAUSS", 4))
        seg = segment(series)
        lookup = dict(zip(seg.path.ordered, seg.path.removal_scores))
        assert seg.scores == tuple(lookup[c] for c in seg.changepoints)

    def test_segment_dispatches_on_stop(self):
        series = generate(ModelSpec("M1", 3))
        thresh = segment(series, DetectorConfig(stop=StopRule.THRESHOLD))
        bic = segment(series, DetectorConfig(stop=StopRule.BIC))
        assert thresh.bic is None
        assert bic.bic is not None
        assert thresh.changepoints == detect(series, DetectorConfig(stop="threshold")).changepoints
        cfg = DetectorConfig()
        path = solution_path(series, overestimate(series, cfg).changepoints, cfg)
        assert bic.changepoints == bic_select(series, path).changepoints
