from dataclasses import replace

import numpy as np
import pytest

from botnet_mfg import (
    AssumptionViolation,
    ModelParams,
    StrategyCase,
    kappa_of,
    kappa_thresholds,
    kinetic_rhs,
    solve_case,
    solve_mfg,
    sweep_kappa,
)
from botnet_mfg import equilibrium, fixedpoint, hjb
from botnet_mfg.cli import records_to_csv
from botnet_mfg.equilibrium import (
    SWEEP_CSV_FIELDS,
    kappa_increasing,
)
from botnet_mfg.validation import random_params

CASE_I = StrategyCase.PREFER_UNPROTECTED
CASE_III = StrategyCase.DEFEND_SUSCEPTIBLE


def regime_one_params(lam=2000.0):
    """kappa(z) increasing, so the case-i threshold exceeds the case-iii one:
    a gap with no equilibrium opens between them."""
    return ModelParams(
        q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
        beta_UU=4.0, beta_UD=0.5, beta_DU=4.0, beta_DD=0.5,
        lam=lam, v_H=1.0, k_D=0.5, k_I=1.0)


README_PARAMS = replace(regime_one_params(), k_D=0.7)


def regime_two_params(lam=2000.0):
    """kappa(z) decreasing: both equilibria coexist between the thresholds."""
    return ModelParams(
        q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.3, q_inf_U=2.0,
        beta_UU=3.0, beta_UD=3.0, beta_DU=3.0, beta_DD=3.0,
        lam=lam, v_H=1.0, k_D=0.5, k_I=1.0)


class TestSolveMfg:
    def test_consistency_of_every_equilibrium(self, rng):
        for _ in range(100):
            params = random_params(rng, lam=1000.0)
            for eq in solve_mfg(params):
                sol = solve_case(params, eq.x, eq.case)
                assert sol.valid
                assert sol.control == eq.control
                rhs = kinetic_rhs(params, eq.x, eq.control)
                assert float(np.max(np.abs(rhs))) <= 1e-9

    def test_count_and_stability_bounds_at_large_lambda(self, rng):
        for _ in range(200):
            params = random_params(rng, lam=1000.0)
            eqs = solve_mfg(params)
            assert len(eqs) <= 4
            by_case = [e.case for e in eqs]
            assert len(by_case) == len(set(by_case))
            assert all(e.stable for e in eqs)

    def test_sorted_by_mu_with_efficiency_on_argmin(self, rng):
        for _ in range(200):
            params = random_params(rng, lam=1000.0)
            eqs = solve_mfg(params)
            mus = [e.mu for e in eqs]
            assert mus == sorted(mus)
            if eqs:
                mu_min = mus[0]
                for e in eqs:
                    assert e.efficient == (e.mu <= mu_min + 1e-12 * max(params.k_I, abs(mu_min)))

    def test_cost_scale_free(self):
        # mu is linear in (k_D, k_I): scaling both by c keeps kappa, the
        # equilibria and the efficient flags, and scales mu by c
        rng = np.random.default_rng(1)
        for _ in range(60):
            params = random_params(rng)
            ref = solve_mfg(params)
            for c in (1e-12, 1e-10, 1e-3, 1.0, 1e3, 1e10):
                got = solve_mfg(replace(params, k_D=params.k_D * c, k_I=params.k_I * c))
                assert [(e.case, e.efficient) for e in got] == [
                    (e.case, e.efficient) for e in ref], (params, c)
                for e, r in zip(got, ref):
                    assert abs(e.mu - c * r.mu) <= 1e-12 * c * max(1.0, abs(r.mu))

    def test_unique_case_i_above_threshold(self):
        params = regime_one_params()
        report = kappa_thresholds(params)
        eqs = solve_mfg(params.with_kappa(report.kappa_star + 0.05))
        assert [e.case for e in eqs] == [CASE_I]

    def test_gap_between_thresholds_in_regime_one(self):
        params = regime_one_params()
        report = kappa_thresholds(params)
        mid = 0.5 * (report.kappa_bar_star + report.kappa_star)
        assert solve_mfg(params.with_kappa(mid)) == []

    def test_two_stable_equilibria_in_regime_two(self):
        params = regime_two_params()
        report = kappa_thresholds(params)
        assert report.kappa_star < report.kappa_bar_star
        mid = 0.5 * (report.kappa_star + report.kappa_bar_star)
        eqs = solve_mfg(params.with_kappa(mid))
        assert sorted(e.case.label for e in eqs) == ["i", "iii"]
        assert all(e.stable for e in eqs)


class TestKappaFunction:
    def test_direct_substitution(self):
        params = ModelParams(
            q_rec_D=1.0, q_rec_U=1.0, q_inf_D=0.5, q_inf_U=1.0,
            beta_UU=2.0, beta_UD=1.0, beta_DU=2.0, beta_DD=1.0,
            lam=10.0, v_H=1.0, k_D=0.5, k_I=1.0)
        assert kappa_of(params, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_requires_equal_recovery(self, base_params):
        assert not base_params.has_equal_recovery_rates
        with pytest.raises(AssumptionViolation):
            kappa_of(base_params, 0.5)

    def test_monotonicity_condition(self, rng):
        for _ in range(300):
            params = random_params(rng, equal_recovery=True)
            zs = np.linspace(0.0, 1.0, 11)
            vals = [kappa_of(params, z) for z in zs]
            diffs = np.diff(vals)
            if kappa_increasing(params):
                assert np.all(diffs >= -1e-12)
            else:
                assert np.all(diffs <= 1e-12)


class TestThresholds:
    @pytest.mark.parametrize("lam", [1.0, 20.0, 1e200, 1e308])
    def test_report_does_not_depend_on_lambda(self, lam, rng):
        # every threshold is a large-lam limit built from closed-form
        # states, so no rate scale of lam enters, even past the float range
        for params in [README_PARAMS, *(random_params(rng) for _ in range(50))]:
            expected = repr(kappa_thresholds(replace(params, lam=2000.0)))
            assert repr(kappa_thresholds(replace(params, lam=lam))) == expected

    def test_builds_no_fixed_point_or_spectrum(self, monkeypatch, rng):
        draws = [README_PARAMS, *(random_params(rng) for _ in range(20))]
        expected = [kappa_thresholds(params) for params in draws]

        def refuse(*args, **kwargs):
            raise AssertionError("kappa_thresholds built a fixed point or a spectrum")

        for name in ("FixedPoint", "_point", "stability"):
            monkeypatch.setattr(fixedpoint, name, refuse)
        assert [kappa_thresholds(params) for params in draws] == expected

    def test_star_ordering_tracks_root_ordering(self, rng):
        # with kappa(z) increasing, the larger infected fraction gives the
        # larger threshold
        for _ in range(300):
            params = random_params(rng, equal_recovery=True)
            report = kappa_thresholds(params)
            if abs(report.x_star_UI - report.x_bar_star_UI) < 1e-9:
                continue
            bigger_root = report.x_star_UI > report.x_bar_star_UI
            if report.kappa_z_increasing:
                assert (report.kappa_star > report.kappa_bar_star) == bigger_root
            else:
                assert (report.kappa_star < report.kappa_bar_star) == bigger_root

    def test_star_values_equal_generic_thresholds_under_equal_recovery(self):
        report = kappa_thresholds(regime_one_params())
        assert report.kappa_star == pytest.approx(report.kappa_1, abs=1e-14)
        assert report.kappa_bar_star == pytest.approx(report.kappa_4, abs=1e-14)

    def test_kappa23_degenerate_under_simplifying_assumptions(self, rng):
        # target-only contact rates plus equal recovery collapse the case-ii
        # and asymptotic case-iii abscissas, so the two gap thresholds match
        for _ in range(100):
            b_D, b_U = sorted(rng.uniform(0.1, 4.0, size=2))
            q = float(rng.uniform(0.1, 3.0))
            inf_D, inf_U = sorted(rng.uniform(0.1, 3.0, size=2))
            params = ModelParams(
                q_rec_D=q, q_rec_U=q, q_inf_D=inf_D, q_inf_U=inf_U,
                beta_UU=b_U, beta_UD=b_D, beta_DU=b_U, beta_DD=b_D,
                lam=100.0, v_H=1.0, k_D=0.5, k_I=1.0)
            report = kappa_thresholds(params)
            assert report.x_star_DI == pytest.approx(report.x_bar_star_UI, abs=1e-12)
            assert report.kappa_2 == pytest.approx(report.kappa_3, abs=1e-12)

    def test_unequal_recovery_reports_generic_numbers_only(self, base_params):
        report = kappa_thresholds(base_params)
        assert report.kappa_star is None
        assert report.kappa_bar_star is None
        assert np.isfinite([report.kappa_1, report.kappa_2,
                            report.kappa_3, report.kappa_4]).all()


def _bands(rows):
    """Contiguous equilibrium-count blocks, skipping near-threshold rows."""
    clean = [r for r in rows if not r.near_bifurcation]
    blocks = []
    for row in clean:
        if not blocks or blocks[-1][0] != row.count:
            blocks.append((row.count, row.kappa, row.kappa))
        else:
            blocks[-1] = (row.count, blocks[-1][1], row.kappa)
    return blocks


class TestSweep:
    def test_rejects_bad_grid(self, base_params):
        with pytest.raises(ValueError):
            sweep_kappa(base_params, 0.5, 0.4, 10)
        with pytest.raises(ValueError):
            sweep_kappa(base_params, 0.0, 1.0, 1)

    def test_regime_one_band_pattern(self):
        params = regime_one_params()
        report = kappa_thresholds(params)
        rows = sweep_kappa(params, 0.45, 0.72, 200)
        assert [b[0] for b in _bands(rows)] == [1, 0, 1]
        window = 10.0 / params.lam
        edges = _edges(rows)
        assert min(abs(e - report.kappa_bar_star) for e in edges) <= window
        assert min(abs(e - report.kappa_star) for e in edges) <= window

    def test_regime_two_band_pattern(self):
        params = regime_two_params()
        report = kappa_thresholds(params)
        rows = sweep_kappa(params, 0.25, 0.40, 200)
        assert [b[0] for b in _bands(rows)] == [1, 2, 1]
        window = 10.0 / params.lam
        edges = _edges(rows)
        assert min(abs(e - report.kappa_star) for e in edges) <= window
        assert min(abs(e - report.kappa_bar_star) for e in edges) <= window

    @staticmethod
    def _sweep_params(rng):
        draws = [random_params(rng, lam=lam, hi=2.0, equal_recovery=bool(i % 2))
                 for i, lam in enumerate((1.0, 1.0, 10.0, 10.0, 1000.0, 2000.0))]
        return [regime_one_params(), regime_two_params()] + draws

    @staticmethod
    def _zero_rate_params():
        # README rates with zero rates: P or Q vanishes at some stationary
        # points, or an interval ends exactly on the last grid point
        readme = regime_one_params(lam=10.0)
        return [replace(readme, q_rec_D=0.0, v_H=0.0, beta_DD=0.0),
                replace(readme, q_rec_U=0.0, v_H=0.0, beta_UD=0.0)]

    def test_rows_equal_solve_mfg_at_every_grid_point(self, rng):
        extremes = [regime_one_params(lam=1e6), replace(regime_one_params(), k_I=1e-12),
                    replace(regime_one_params(), q_rec_U=5e-324)]
        for params in self._sweep_params(rng) + self._zero_rate_params() + extremes:
            rows = sweep_kappa(params, 0.0, 1.0, 41)
            expected = []
            for kappa in np.linspace(0.0, 1.0, 41):
                eqs = solve_mfg(params.with_kappa(float(kappa)))
                expected.append((float(kappa), len(eqs), tuple(e.case.label for e in eqs),
                                 tuple(e.mu for e in eqs), tuple(e.stable for e in eqs)))
            assert [(r.kappa, r.count, r.cases, r.mu_values, r.stable)
                    for r in rows] == expected

    def test_grid_is_numpy_linspace(self, base_params, rng, monkeypatch):
        # the kappa column is np.linspace's, float for float, also where the
        # step underflows to 0
        monkeypatch.setattr(equilibrium, "_bracketed_points", lambda params: [])
        triples = [(0.0, 5e-324, 3), (0.0, 1e-323, 7), (1e-300, 1.0, 2)]
        for _ in range(500):
            a, b = sorted(rng.uniform(0.0, 10.0 ** rng.integers(-5, 6), size=2).tolist())
            triples.append((a, b, int(rng.integers(2, 300))))
        for a, b, n in triples:
            got = [row.kappa for row in sweep_kappa(base_params, a, b, n)]
            assert list(map(repr, got)) == list(map(repr, np.linspace(a, b, n).tolist()))

    def test_count_changes_only_between_flagged_rows(self, rng):
        for params in self._sweep_params(rng) + self._zero_rate_params():
            rows = sweep_kappa(params, 0.0, 1.0, 200)
            for a, b in zip(rows, rows[1:]):
                if a.count != b.count:
                    assert a.near_bifurcation and b.near_bifurcation, (params, a, b)
            assert sum(r.near_bifurcation for r in rows) < len(rows) // 2

    def test_fixed_points_solved_once_per_sweep(self, rng, monkeypatch):
        calls = {"mixed": 0, "acyclic": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fixedpoint, "fixed_point_mixed",
                            counting("mixed", fixedpoint.fixed_point_mixed))
        monkeypatch.setattr(fixedpoint, "fixed_point_acyclic",
                            counting("acyclic", fixedpoint.fixed_point_acyclic))
        for params in self._sweep_params(rng):
            counts = []
            for steps in (2, 50):
                calls.update(mixed=0, acyclic=0)
                sweep_kappa(params, 0.0, 1.0, steps)
                counts.append(dict(calls))
            assert counts[0] == counts[1]
            assert counts[0]["mixed"] >= 2 and counts[0]["acyclic"] >= 2

    def test_only_equilibria_are_priced(self, monkeypatch):
        # each point's closed form is built at most once per sweep, only when
        # its interval holds a grid kappa, and evaluated once per equilibrium
        built, evaluations = [], 0

        def counting(params, x, case):
            built.append((x, case))
            price = pricer(params, x, case)

            def counted(k_D, valid):
                nonlocal evaluations
                evaluations += 1
                return price(k_D, valid)
            return counted

        pricer = hjb.case_pricer
        monkeypatch.setattr(hjb, "case_pricer", counting)
        for params in [regime_one_params(), regime_two_params()] + self._zero_rate_params():
            built.clear()
            evaluations = 0
            rows = sweep_kappa(params, 0.0, 1.0, 200)
            assert evaluations == sum(row.count for row in rows)
            held = [(fp.x, fp.case) for fp, lo, hi in equilibrium._bracketed_points(params)
                    if any(lo <= row.kappa * params.k_I / params.k_I <= hi for row in rows)]
            assert sorted(built, key=repr) == sorted(held, key=repr)
            assert len(set(built)) == len(built) > 0

    def test_csv_header_and_shape(self):
        params = regime_one_params(lam=500.0)
        rows = sweep_kappa(params, 0.4, 0.7, 12)
        text = records_to_csv(SWEEP_CSV_FIELDS, [r.to_csv_record() for r in rows])
        lines = text.strip().split("\n")
        assert lines[0] == "kappa,count,cases,mu_min,mu_all,stable_all,near_bifurcation"
        assert len(lines) == 13
        empty_ok = all(len(line.split(",")) == 7 for line in lines[1:])
        assert empty_ok


def _edges(rows):
    edges = []
    for a, b in zip(rows, rows[1:]):
        if a.count != b.count:
            edges.append(0.5 * (a.kappa + b.kappa))
    return edges


# every rate (q_inf_* included) and both per-unit-time costs; v_H is dimensionless
RATE_AND_COST_FIELDS = ("q_rec_D", "q_rec_U", "q_inf_D", "q_inf_U", "beta_UU", "beta_UD",
                        "beta_DU", "beta_DD", "lam", "k_D", "k_I")
SECONDS_PER_YEAR = 3.15576e7


def _in_time_unit(params, c):
    """params with every rate and both costs multiplied by c."""
    return replace(params, **{name: getattr(params, name) * c for name in RATE_AND_COST_FIELDS})


def _structure(params):
    """What a change of time unit must leave as it is."""
    report = kappa_thresholds(params)
    return {
        "equilibria": [(eq.case, eq.stable) for eq in solve_mfg(params)],
        "points": [(fp.case, fp.stable) for fp in equilibrium.stationary_points(params)],
        "kappas": (report.kappa_1, report.kappa_2, report.kappa_3, report.kappa_4),
        "domains": report.domains,
    }


class TestTimeUnit:
    """Scaling every rate and both costs by c changes the unit of time only."""

    @pytest.fixture(scope="class")
    def draws(self):
        rng = np.random.default_rng(5)
        readme = replace(regime_one_params(), k_D=0.7)
        return [readme] + [random_params(rng) for _ in range(200)]

    @pytest.mark.parametrize("c", [1e-9, 3.2e-8, 1e-6, 1e-3, 1e3, 1e5, 3.2e7, 1e12])
    def test_equilibria_points_thresholds_and_domains_do_not_change(self, c, draws):
        for params in draws:
            base, scaled = _structure(params), _structure(_in_time_unit(params, c))
            assert scaled["equilibria"] == base["equilibria"], params
            assert scaled["points"] == base["points"], params
            assert scaled["domains"] == base["domains"], params
            assert np.allclose(scaled["kappas"], base["kappas"], rtol=1e-9, atol=0.0), params

    def test_point_cases_and_domains_do_not_change_at_1e_12(self, draws):
        # STABLE_EIG_TOL is absolute, so stable flags may flip this far down
        for params in draws:
            base, scaled = _structure(params), _structure(_in_time_unit(params, 1e-12))
            assert [case for case, _ in scaled["points"]] == [case for case, _ in base["points"]]
            assert scaled["domains"] == base["domains"], params

    def test_readme_config_per_second(self):
        params = replace(regime_one_params(), k_D=0.7)
        per_second = _in_time_unit(params, 1.0 / SECONDS_PER_YEAR)
        assert [eq.case for eq in solve_mfg(per_second)] == [CASE_I]
        assert [b[0] for b in _bands(sweep_kappa(per_second, 0.45, 0.72, 200))] == [1, 0, 1]
