import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pdglasso.errors import DimensionError, MleError, NotPositiveDefiniteError, PdglassoError
from pdglasso.model import PdColouredGraph, extract_graph
from pdglasso.paired import PairedIndex, swap_blocks
from pdglasso.simulate import (
    ScenarioSpec,
    child_rng,
    edge_metrics,
    ggm_covariance,
    graph_from_threshold,
    matrix_losses,
    mvn_sample_cov,
    pdrcon_covariance,
    results_to_csv,
    run_scenario,
    wishart_identity,
)
from pdglasso.solver import AdmmConfig

from conftest import random_pd
from oracles import two_path_rows

FAST = AdmmConfig(eps_abs=1e-7)


class TestWishart:
    def test_p1_is_squared_normal(self):
        seed = 123
        got = wishart_identity(1, 1, seed)
        g = child_rng(seed).standard_normal((1, 1))
        assert got[0, 0] == (g @ g.T)[0, 0]
        assert got[0, 0] >= 0

    def test_mean_matches_df_times_identity(self):
        p, df, reps = 4, 6, 2000
        rng = child_rng(99)
        acc = np.zeros((p, p))
        for _ in range(reps):
            acc += wishart_identity(p, df, rng)
        acc /= reps
        slack = 5 * math.sqrt(2 * df / reps)
        assert np.abs(acc - df * np.eye(p)).max() < slack

    def test_deterministic(self):
        assert np.array_equal(wishart_identity(3, 5, 7), wishart_identity(3, 5, 7))

    def test_requires_df_at_least_p(self):
        with pytest.raises(ValueError):
            wishart_identity(4, 3, 0)


class TestGraphFromThreshold:
    def test_density_one_is_complete(self, rng):
        K = random_pd(6, rng)
        g = graph_from_threshold(K, 1.0)
        assert g.n_edges == 6 * 5 // 2

    def test_single_dominant_entry(self):
        K = np.eye(4) * 0.01
        K[0, 1] = K[1, 0] = 5.0
        g = graph_from_threshold(K, 1.0 / 6.0)  # exactly one edge
        assert g.n_edges == 1
        assert g.present[g.index.coord_of[0, 1]]  # pair (0, 1) on the left side

    def test_edge_count_matches_ceiling(self, rng):
        for density in (0.1, 0.25, 0.6):
            K = random_pd(8, rng)
            g = graph_from_threshold(K, density)
            assert g.n_edges == math.ceil(density * 8 * 7 / 2)

    def test_no_colours(self, rng):
        g = graph_from_threshold(random_pd(6, rng), 0.4)
        assert not g.coloured.any()

    @pytest.mark.parametrize("density", [0.0, 1.5, math.nan])
    def test_rejects_density_outside_the_unit_interval(self, density):
        with pytest.raises(ValueError, match="density"):
            graph_from_threshold(np.eye(4), density)


class TestGgmCovariance:
    def test_density_one_returns_wishart_draw(self):
        Sigma, g = ggm_covariance(6, 1.0, 5, FAST)
        S_star = wishart_identity(6, 6, child_rng(5))
        assert np.abs(Sigma - S_star).max() < 1e-5

    def test_inverse_is_adapted(self):
        Sigma, g = ggm_covariance(8, 0.25, 11, FAST)
        theta = np.linalg.inv(Sigma)
        back = extract_graph(theta, PairedIndex(4))
        assert np.array_equal(back.present, g.present)

    def test_reproducible(self):
        a, _ = ggm_covariance(6, 0.3, 17, FAST)
        b, _ = ggm_covariance(6, 0.3, 17, FAST)
        assert np.array_equal(a, b)


def _spec(p=8, density=0.3, frac=0.5, seed=0, **kw):
    return ScenarioSpec(p=p, density=density, symmetry_fraction=frac,
                        n_list=kw.pop("n_list", (100,)),
                        replications=kw.pop("replications", 1),
                        seed=seed, **kw)


class TestPdrconCovariance:
    def test_zero_fraction_equals_plain_ggm(self):
        Sigma_pd, g_pd = pdrcon_covariance(_spec(frac=0.0, seed=3), FAST)
        Sigma_gg, g_gg = ggm_covariance(8, 0.3, 3, FAST)
        assert np.array_equal(Sigma_pd, Sigma_gg)
        inside = g_gg.index.component_rows(False, True, False)
        a, b = g_gg.index.fused_pairs
        for side in (a[inside], b[inside]):
            assert np.array_equal(g_pd.present[side], g_gg.present[side])

    def test_fits_one_mle(self, monkeypatch):
        import pdglasso.simulate as simulate

        calls = []
        mle = simulate.mle

        def counting_mle(*args, **kwargs):
            calls.append(1)
            return mle(*args, **kwargs)

        monkeypatch.setattr(simulate, "mle", counting_mle)
        pdrcon_covariance(_spec(frac=0.5, seed=3), FAST)
        assert len(calls) == 1

    def test_full_fraction_is_swap_invariant(self):
        Sigma, g = pdrcon_covariance(_spec(frac=1.0, seed=9), FAST)
        idx = PairedIndex(4)
        assert np.abs(swap_blocks(Sigma, idx) - Sigma).max() < 1e-10
        assert g.is_fully_symmetric()

    def test_half_fraction_colour_counts(self):
        spec = _spec(p=10, frac=0.5, seed=21)
        Sigma, g = pdrcon_covariance(spec, FAST)
        q, s = 5, 10
        theta = np.linalg.inv(Sigma)
        back = extract_graph(theta, PairedIndex(5))
        # every selected vertex pair is coloured in the refit
        vertex = back.index.component_rows(True, False, False)
        assert abs(int(back.coloured[vertex].sum()) - round(0.5 * q)) <= 1
        assert np.array_equal(back.coloured[~vertex], g.coloured[~vertex])

    def test_constraints_hold(self):
        Sigma, g = pdrcon_covariance(_spec(frac=0.7, seed=2), FAST)
        assert np.linalg.eigvalsh(Sigma).min() > 0
        # constraints were exact before inversion; going back through the
        # inverse costs a few digits but stays far below any model tolerance
        theta = np.linalg.inv(Sigma)
        from pdglasso.paired import pd_vec

        idx = PairedIndex(4)
        z = pd_vec(theta, idx)
        assert np.abs(z[~g.present]).max() < 1e-10
        first, second = idx.fused_pairs
        coloured = g.coloured
        diffs = z[first[coloured]] - z[second[coloured]]
        assert np.abs(diffs).max() < 1e-10


class TestMvnSampleCov:
    def test_converges_to_truth(self):
        p, n = 10, 20000
        S = mvn_sample_cov(np.eye(p), n, 31)
        bound = 3 * math.sqrt(p / n) + p / n
        assert np.linalg.norm(S - np.eye(p), 2) < bound

    def test_rank_one_at_n1(self, rng):
        S = mvn_sample_cov(random_pd(5, rng), 1, 8)
        assert np.linalg.matrix_rank(S) == 1

    def test_reproducible(self, rng):
        Sigma = random_pd(4, rng)
        assert np.array_equal(mvn_sample_cov(Sigma, 7, 5), mvn_sample_cov(Sigma, 7, 5))

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            mvn_sample_cov(np.zeros((3, 3)), 5, 0)

    def test_nan_sigma_raises(self):
        Sigma = np.eye(3)
        Sigma[0, 1] = Sigma[1, 0] = math.nan
        with pytest.raises(NotPositiveDefiniteError):
            mvn_sample_cov(Sigma, 5, 0)

    def test_indefinite_sigma_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            mvn_sample_cov(np.array([[1.0, 2.0], [2.0, 1.0]]), 5, 0)

    @pytest.mark.parametrize("n", [2.5, 0, math.nan])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be"):
            mvn_sample_cov(np.eye(2), n, 0)


class TestEdgeMetrics:
    def test_perfect_recovery(self, rng):
        g = graph_from_threshold(random_pd(6, rng), 0.4)
        m = edge_metrics(g, g)
        assert (m.ppv, m.tpr, m.f1, m.mcc) == (1.0, 1.0, 1.0, 1.0)

    def test_empty_estimate(self, rng):
        truth = graph_from_threshold(random_pd(6, rng), 0.4)
        m = edge_metrics(truth, PdColouredGraph.empty(3))
        assert m.tpr == 0.0
        assert m.f1 == 0.0

    def test_frozen_confusion_matrix(self):
        # TP=8, FP=2, FN=2, TN=33 over the 45 edges of p=10
        q, s = 5, 10
        truth_edges = np.zeros(4 * s + q, dtype=bool)
        est_edges = np.zeros(4 * s + q, dtype=bool)
        truth_edges[:10] = True
        est_edges[2:12] = True
        idx = PairedIndex.of(q)

        def build(vec):
            present = idx.diagonal.copy()
            present[~idx.diagonal] = vec  # the edge coordinates, in order
            return PdColouredGraph(q, present, np.zeros(idx.n_rows, dtype=bool))

        m = edge_metrics(build(truth_edges), build(est_edges))
        assert m.ppv == pytest.approx(0.8)
        assert m.tpr == pytest.approx(0.8)
        assert m.f1 == pytest.approx(0.8)
        assert m.mcc == pytest.approx(0.7428571428571429, abs=1e-12)

    def test_permutation_invariance(self, rng):
        idx = PairedIndex(3)
        K1 = random_pd(6, rng)
        K2 = random_pd(6, rng)
        truth = graph_from_threshold(K1, 0.4)
        est = graph_from_threshold(K2, 0.4)
        m1 = edge_metrics(truth, est)
        truth_s = graph_from_threshold(swap_blocks(K1, idx), 0.4)
        est_s = graph_from_threshold(swap_blocks(K2, idx), 0.4)
        m2 = edge_metrics(truth_s, est_s)
        assert m1 == m2

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            edge_metrics(PdColouredGraph.empty(2), PdColouredGraph.empty(3))


class TestMatrixLosses:
    def test_zero_at_equality(self, rng):
        theta = random_pd(5, rng)
        losses = matrix_losses(theta, theta)
        assert losses.frobenius == 0.0
        assert losses.entropy == pytest.approx(0.0, abs=1e-12)

    def test_frozen_example(self):
        losses = matrix_losses(2 * np.eye(2), np.eye(2))
        assert losses.frobenius == pytest.approx(math.sqrt(2))
        assert losses.entropy == pytest.approx(0.6137056388801092, abs=1e-12)

    def test_not_positive_definite_rejected(self):
        # det(-I2) = 1 > 0: the sign of a determinant cannot detect this
        with pytest.raises(ValueError):
            matrix_losses(-np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            matrix_losses(np.eye(2), np.diag([-1.0, -2.0]))

    def test_rejects_different_shapes(self):
        with pytest.raises(DimensionError):
            matrix_losses(np.eye(2), np.eye(4))

    def test_entropy_nonnegative(self, rng):
        for _ in range(100):
            a = random_pd(4, rng)
            b = random_pd(4, rng)
            assert matrix_losses(a, b).entropy >= 0.0


class TestRunScenario:
    def test_easy_regime_perfect_recovery(self):
        spec = _spec(p=4, density=0.5, frac=0.0, seed=12, n_list=(5000,),
                     select_m=6)
        rows = run_scenario(spec, FAST)
        assert len(rows) == 2
        assert all(r.f1 == 1.0 for r in rows)
        assert all(r.error is None for r in rows)

    def test_full_symmetry_prefers_fewer_parameters(self):
        spec = _spec(p=8, density=0.3, frac=1.0, seed=5, n_list=(300,),
                     replications=3, select_m=6)
        rows = run_scenario(spec, FAST)
        d_pd = np.mean([r.d for r in rows if r.method == "pdglasso"])
        d_gl = np.mean([r.d for r in rows if r.method == "glasso"])
        assert d_pd < d_gl

    def test_deterministic_table(self):
        spec = _spec(p=6, density=0.3, frac=0.5, seed=77, n_list=(60,),
                     replications=2, select_m=3)
        a = results_to_csv(run_scenario(spec, FAST))
        b = results_to_csv(run_scenario(spec, FAST))
        assert a == b
        assert a.splitlines()[0].startswith("scenario,n,rep,method,ppv")

    def test_thread_count_does_not_change_results(self):
        # 6 cells: 2, 3 and 4 workers get shares of 3/3, 2/2/2 and 2/2/1/1
        spec = _spec(p=6, density=0.3, frac=0.0, seed=13, n_list=(50, 80, 120),
                     replications=2, select_m=3)
        serial = results_to_csv(run_scenario(spec, FAST, threads=1))
        for threads in (2, 3, 4):
            assert results_to_csv(run_scenario(spec, FAST, threads=threads)) == serial

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_below_one_raises_before_any_truth(self, monkeypatch, threads):
        import pdglasso.simulate as simulate

        calls = []
        monkeypatch.setattr(simulate, "pdrcon_covariance", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_scenario(_spec(p=6, n_list=(40,), select_m=3), FAST, threads=threads)
        assert calls == []

    @pytest.mark.parametrize("threads", [1.5, math.nan])
    def test_thread_count_that_is_not_an_integer_raises_before_any_truth(
        self, monkeypatch, threads
    ):
        import pdglasso.simulate as simulate

        calls = []
        monkeypatch.setattr(simulate, "pdrcon_covariance", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="threads must be an integer"):
            run_scenario(_spec(p=6, n_list=(40,), select_m=3), FAST, threads=threads)
        assert calls == []

    @pytest.mark.parametrize("threads, n_list, expected", [
        (64, (40, 60), 1),
        (2, (40, 60, 80), 1),
        (4, (40,), 0),
        (1, (40, 60), 0),
    ], ids=["64-for-2-cells", "2-for-3-cells", "1-cell", "1-thread"])
    def test_pool_starts_at_most_one_worker_per_cell(self, monkeypatch, threads, n_list,
                                                     expected):
        # this process is one of the workers, so it forks one child fewer
        import pdglasso.simulate as simulate

        children = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(simulate, "_run_cell", lambda spec, cfg, truth, cell: [cell])
        rows = run_scenario(_spec(p=6, n_list=n_list, select_m=3), FAST, threads=threads)
        assert rows == [(0, n) for n in n_list]
        assert len(children) == expected

    def test_each_truth_is_drawn_once(self, monkeypatch):
        import pdglasso.simulate as simulate

        calls = []
        draw = simulate.pdrcon_covariance

        def counting_draw(*args, **kwargs):
            calls.append(1)
            return draw(*args, **kwargs)

        monkeypatch.setattr(simulate, "pdrcon_covariance", counting_draw)
        monkeypatch.setattr(simulate, "_run_cell", lambda spec, cfg, truth, cell: [cell])
        run_scenario(_spec(p=6, n_list=(40, 60, 80), replications=2, select_m=3), FAST,
                     threads=1)
        assert len(calls) == 2


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """Failures in the forked children and in this process's own share.

    With 2 workers and the cells (0, 40), (0, 80), this process computes
    (0, 40) and one child computes (0, 80).
    """

    SPEC = _spec(p=6, n_list=(40, 80), select_m=3)

    @staticmethod
    def cell_in_child(monkeypatch, action):
        """Make the cell (0, 80) run ``action()``; every other cell returns [cell]."""
        import pdglasso.simulate as simulate

        def run_cell(spec, cfg, truth, cell):
            if cell == (0, 80):
                action()
            return [cell]

        monkeypatch.setattr(simulate, "_run_cell", run_cell)

    def test_child_exception_keeps_its_type(self, monkeypatch):
        def fail():
            raise MleError("no MLE in the child")

        self.cell_in_child(monkeypatch, fail)
        with pytest.raises(MleError, match="no MLE in the child") as info:
            run_scenario(self.SPEC, FAST, threads=2)
        assert type(info.value) is MleError
        _no_child_left()

    def test_unpicklable_exception_is_named(self, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        def fail():
            raise Local("odd")

        self.cell_in_child(monkeypatch, fail)
        with pytest.raises(PdglassoError, match="Local: odd"):
            run_scenario(self.SPEC, FAST, threads=2)
        _no_child_left()

    def test_child_killed_by_a_signal_raises_the_typed_error(self, monkeypatch):
        self.cell_in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(PdglassoError, match=f"killed by signal {int(signal.SIGKILL)}"):
            run_scenario(self.SPEC, FAST, threads=2)
        _no_child_left()

    def test_child_exit_without_result_fails_the_cli(self, monkeypatch, tmp_path, capsys):
        from pdglasso import cli

        self.cell_in_child(monkeypatch, lambda: os._exit(3))
        out = tmp_path / "sim.csv"
        rc = cli.main(["simulate", "--p", "6", "--n-list", "40,80", "--m", "3",
                       "--threads", "2", "-o", str(out)])
        assert rc == 1
        assert "ended without a result (exit status 3)" in capsys.readouterr().err
        assert not out.exists()
        _no_child_left()

    def test_failure_in_own_share_kills_and_reaps_the_children(self, monkeypatch):
        import pdglasso.simulate as simulate

        parent = os.getpid()

        def run_cell(spec, cfg, truth, cell):
            if os.getpid() == parent:
                raise RuntimeError("own share failed")
            time.sleep(60)  # killed long before this ends
            return [cell]

        monkeypatch.setattr(simulate, "_run_cell", run_cell)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="own share failed"):
            run_scenario(_spec(p=6, n_list=(40, 80, 120), select_m=3), FAST, threads=3)
        assert time.perf_counter() - t0 < 30
        _no_child_left()


def test_simulate_loads_no_process_pool_module(tmp_path):
    """A two-worker simulate run in a fresh interpreter forks its workers
    without importing ``multiprocessing`` or ``concurrent.futures``."""
    code = (
        "import sys\n"
        "from pdglasso import cli\n"
        f"rc = cli.main(['simulate', '--p', '6', '--n-list', '40,60', '--m', '3',"
        f" '--threads', '2', '-o', {str(tmp_path / 'sim.csv')!r}])\n"
        "print(rc)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
        " or m == 'concurrent.futures' or m.startswith('concurrent.futures.')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0", "[]"]
    assert len((tmp_path / "sim.csv").read_text().splitlines()) == 5


class TestSharedSelectionPath:
    """Both rows of a cell come from one selection path."""

    @pytest.mark.parametrize("seed", [3, 21, 58])
    @pytest.mark.parametrize("frac", [0.0, 1.0])
    def test_rows_equal_two_independent_selections(self, seed, frac):
        spec = _spec(p=6, density=0.4, frac=frac, seed=seed, n_list=(30, 200),
                     select_m=4)
        rows = run_scenario(spec, FAST)
        assert [r.method for r in rows] == ["pdglasso", "glasso"] * 2
        assert all(r.error is None for r in rows)
        assert rows == two_path_rows(spec, FAST)

    def test_failed_stage_one_fails_both_rows_alike(self, monkeypatch):
        import pdglasso.model as model

        def failing_fit(*args, **kwargs):
            raise MleError("refit failed")

        monkeypatch.setattr(model, "fit_point", failing_fit)
        spec = _spec(p=6, n_list=(40,), select_m=3)
        rows = run_scenario(spec, FAST)
        assert [r.method for r in rows] == ["pdglasso", "glasso"]
        assert {r.error for r in rows} == {"every penalty grid point failed"}
        assert all(math.isnan(r.f1) and not r.converged and r.d == 0 for r in rows)
        assert [r.error for r in two_path_rows(spec, FAST)] == [r.error for r in rows]

    @pytest.mark.parametrize("m", [3, 5])
    def test_a_cell_makes_two_penalized_solves_per_grid_point(self, monkeypatch, m):
        import pdglasso.solver as solver

        calls = []
        real = solver.solve_weighted

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_weighted", counting_solve)
        spec = _spec(p=6, density=0.4, n_list=(80,), select_m=m)
        rows = run_scenario(spec, FAST, threads=1)  # one cell runs in this process
        assert all(r.error is None for r in rows)
        assert len(calls) == 2 * m
        calls.clear()
        two_path_rows(spec, FAST)
        assert len(calls) == 3 * m


class TestScenarioSpecValidation:
    def test_rejects_odd_p(self):
        with pytest.raises(ValueError):
            _spec(p=7)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            _spec(density=0.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            _spec(frac=1.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -0.5])
    def test_rejects_bad_select_gamma(self, gamma):
        with pytest.raises(ValueError):
            _spec(select_gamma=gamma)

    @pytest.mark.parametrize("n_list", [(), (30, 0), (-5,)])
    def test_rejects_empty_or_nonpositive_n_list(self, n_list):
        with pytest.raises(ValueError, match="n_list"):
            _spec(n_list=n_list)

    def test_rejects_a_grid_below_two_points(self):
        with pytest.raises(ValueError, match="select_m"):
            _spec(select_m=1)

    @pytest.mark.parametrize("kwargs", [{"p": 6.0}, {"replications": 1.5}, {"select_m": 2.5},
                                        {"n_list": (50.7,)}, {"n_list": (40, math.nan)}],
                             ids=["p", "replications", "select_m", "n_list", "n_list-nan"])
    def test_rejects_a_count_that_is_not_an_integer(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            _spec(**kwargs)

    def test_accepts_numpy_integer_counts(self):
        spec = _spec(p=np.int64(6), replications=np.int32(2), select_m=np.int64(3),
                     n_list=(np.int64(40), np.int32(80)))
        assert (spec.p, spec.replications, spec.select_m, spec.n_list) == (6, 2, 3, (40, 80))
        assert all(type(n) is int for n in spec.n_list)
