"""Acceptance suite: one test and one printed verdict line per criterion.

Each test computes everything it needs, records a PASS/FAIL line with the
measured numbers, then asserts. The lines are echoed in the terminal
summary (see conftest), so a verbose run shows one verdict per criterion.
The two 30-seed ensembles are module fixtures shared across criteria.
"""
import csv
import filecmp
import time
from pathlib import Path

import numpy as np
import pytest

from csmooth.benchmark import (
    EnsembleSpec,
    compare_methods,
    mean_mre,
    run_pipeline,
    win_fraction,
)
from csmooth.admm import waterfill
from csmooth.cli import main as cli_main
from csmooth.dataio import (
    FEATURE_NAMES,
    load_cdr_csv,
    load_features_csv,
    read_cdf_csv,
    read_report_csv,
    restrict_field,
    write_cdf_csv,
    write_report_csv,
)
from csmooth.domain import _frozen, make_domain
from csmooth.fem import Triangulation, assemble, triangulate
from csmooth.methods import ALL_METHODS, CSS, CSS_FEATURES, PE, PE_SSR1, PE_SSR2
from csmooth.smoother import SsrSolver, ssr_fit

from oracles import dense_ssr_oracle, qp_patch_oracle

RESULTS: list[tuple[int, str, bool, str]] = []

ORDERING_METHODS = (PE, PE_SSR1, PE_SSR2, CSS)
SEEDS = tuple(range(30))


def _record(num: int, name: str, ok, detail: str) -> None:
    RESULTS.append((num, name, bool(ok), detail))
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def ordering_suite():
    """30 seeded no-covariate instances ranked by all four plain methods."""
    spec = EnsembleSpec()
    t0 = time.perf_counter()
    outcomes = compare_methods(spec, SEEDS, ORDERING_METHODS)
    return spec, outcomes, time.perf_counter() - t0


@pytest.fixture(scope="module")
def features_suite():
    """Companion ensemble whose truth carries a strong blocky covariate."""
    spec = EnsembleSpec(
        amp_range=(0.5, 1.5), beta=(2.0, 4.0), covariate_blocks=60, max_iter=900
    )
    t0 = time.perf_counter()
    outcomes = compare_methods(spec, SEEDS, (CSS, CSS_FEATURES))
    return spec, outcomes, time.perf_counter() - t0


def _central_squares(n_rows: int, n_cols: int, count: int) -> np.ndarray:
    """Flat indices of the ``count`` cells closest to the grid center."""
    rr, cc = np.divmod(np.arange(n_rows * n_cols), n_cols)
    d2 = (rr - (n_rows - 1) / 2.0) ** 2 + (cc - (n_cols - 1) / 2.0) ** 2
    order = np.lexsort((cc, rr, d2))
    return np.sort(order[:count])


@pytest.fixture(scope="module")
def survey_scale(tmp_path_factory):
    """Synthetic activity and feature files at survey scale, fully recovered.

    Files follow the documented activity/feature schemas: a 100x100 grid of
    square ids with the central 2726 squares carrying features, swept with
    two station counts and two smoothing weights over all five methods.
    """
    out = tmp_path_factory.mktemp("survey_scale")
    rng = np.random.default_rng(90)
    n_rows = n_cols = 100
    active = _central_squares(n_rows, n_cols, 2726)

    cdr_path = out / "activity.csv"
    with open(cdr_path, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["square_id", "timestamp", "sms_in", "sms_out", "call_in", "call_out"])
        base = rng.lognormal(0.0, 0.6, size=active.size)
        for flat, level in zip(active, base):
            a, b = (float(x) for x in rng.uniform(0.2, 2.0, size=2))
            sms, call = repr(float(level) * a), repr(float(level) * b)
            w.writerow([flat + 1, 0, sms, "", call, ""])
            w.writerow([flat + 1, 1, "", sms, "", call])
        # activity outside the central region is ignored after restriction
        w.writerow([1, 0, "1.0", "1.0", "1.0", "1.0"])

    feat_path = out / "features.csv"
    with open(feat_path, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["square_id", *FEATURE_NAMES, "extra_column"])
        for flat in active:
            row = [
                repr(float(rng.lognormal(3.0, 1.0))),
                repr(float(rng.uniform(0.0, 100.0))),
                int(rng.integers(0, 5)),
                int(rng.integers(0, 3)),
                int(rng.integers(0, 50)),
                int(rng.integers(0, 20)),
                "ignored",
            ]
            w.writerow([flat + 1, *row])

    full = load_cdr_csv(cdr_path, time_range=(0.0, 1.0), n_rows=n_rows, n_cols=n_cols)
    covariates = load_features_csv(feat_path, full.domain)
    truth = restrict_field(full, covariates.domain)

    runs = {}
    t0 = time.perf_counter()
    for lam in (1.0, 10.0):
        for n_stations in (200, 100):
            runs[(lam, n_stations)] = run_pipeline(
                truth,
                covariates=covariates,
                n_stations=n_stations,
                lam=lam,
                rho=1.0,
                seed=17,
                methods=ALL_METHODS,
            )
    wall = time.perf_counter() - t0
    return out, truth, runs, wall


def test_criterion_1_constraint_exactness(ordering_suite, features_suite, survey_scale):
    collected = []
    for _, outcomes, _ in (ordering_suite, features_suite):
        for outcome in outcomes:
            for method, res in outcome.results.items():
                if res is not None:
                    collected.append((method, res))
    for run in survey_scale[2].values():
        for method, res in run.results.items():
            if res is not None:
                collected.append((method, res))
    worst_violation = max(res.constraint_violation for _, res in collected)
    worst_min = min(float(res.estimate.values.min()) for _, res in collected)
    ok = worst_violation <= 1e-9 and worst_min >= -1e-12
    _record(
        1,
        "constraint exactness",
        ok,
        f"{len(collected)} constrained runs, max patch-sum violation "
        f"{worst_violation:.3e} (limit 1e-9), min estimate {worst_min:.3e} "
        f"(limit -1e-12)",
    )


def test_criterion_2_projection_matches_kkt_oracle():
    rng = np.random.default_rng(20240818)
    worst_sol, worst_obj = 0.0, 0.0
    t0 = time.perf_counter()
    for trial in range(1000):
        size = int(rng.integers(1, 9))
        costs = rng.uniform(-10.0, 10.0, size=size)
        total = 0.0 if trial % 10 == 0 else float(rng.uniform(0.0, 20.0))
        rho = float(rng.uniform(0.25, 4.0))
        g = waterfill(costs, total, rho)
        g_ref, obj_ref = qp_patch_oracle(costs, total, rho)
        obj = 0.5 * rho * float(g @ g) + float(costs @ g)
        worst_sol = max(worst_sol, float(np.abs(g - g_ref).max()))
        worst_obj = max(worst_obj, abs(obj - obj_ref))
    wall = time.perf_counter() - t0
    ok = worst_sol <= 1e-9 and worst_obj <= 1e-9 and wall < 10.0
    _record(
        2,
        "projection oracle equivalence",
        ok,
        f"1000 random patches (size <= 8): max solution gap {worst_sol:.3e}, "
        f"max objective gap {worst_obj:.3e} (limits 1e-9), {wall:.1f}s (limit 10s)",
    )


def test_criterion_3_fem_analytic_values():
    ref_tri = Triangulation(
        domain=make_domain(1, 1),
        vertices=_frozen(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
        triangles=_frozen(np.array([[0, 1, 2]])),
    )
    fem_ref = assemble(ref_tri)
    ref_mass = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    ref_stiff = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    mass_gap = float(np.abs(fem_ref.mass.toarray() - ref_mass).max())
    stiff_gap = float(np.abs(fem_ref.stiffness.toarray() - ref_stiff).max())

    mask = np.ones((6, 7), dtype=bool)
    mask[0, 0] = mask[5, 6] = mask[2, 3] = False
    dom = make_domain(6, 7, mask=mask, cell_size=0.5, origin=(1.0, -2.0))
    fem = assemble(triangulate(dom))
    const_gap = float(np.abs(fem.stiffness @ np.ones(fem.n_vertices)).max())

    x, y = dom.centers[:, 0], dom.centers[:, 1]
    affine = 2.0 + 0.7 * x - 0.4 * y
    affine_gap = max(
        float(np.abs(ssr_fit(fem, affine, lam).fitted - affine).max())
        for lam in (1e-3, 1.0, 1e3)
    )
    ok = mass_gap <= 1e-12 and stiff_gap <= 1e-12 and const_gap <= 1e-12 and affine_gap <= 1e-9
    _record(
        3,
        "element matrices and affine reproduction",
        ok,
        f"reference mass gap {mass_gap:.2e}, stiffness gap {stiff_gap:.2e}, "
        f"|K 1| {const_gap:.2e} (limits 1e-12); affine fit gap {affine_gap:.2e} "
        f"over lam in {{1e-3, 1, 1e3}} (limit 1e-9)",
    )


def test_criterion_4_smoother_matches_dense_factorization():
    rng = np.random.default_rng(20240819)
    fem = assemble(triangulate(make_domain(6, 6)))
    psi = fem.basis_eval.toarray()
    jump = fem.edge_jump.toarray()
    worst = 0.0
    for lam, weight in [(0.1, 1.0), (1.0, 1.0), (5.0, 0.5), (1.0, 2.0), (0.5, 0.5)]:
        h = rng.normal(2.0, 1.5, 36)
        c_ref, d_ref = dense_ssr_oracle(psi, jump, fem.edge_length, h, lam, weight)
        model = SsrSolver(fem, lam, weight=weight).solve(h)
        worst = max(
            worst,
            float(np.abs(model.coeffs - c_ref).max()),
            float(np.abs(model.laplacian - d_ref).max()),
            float(np.abs(model.fitted - psi @ c_ref).max()),
        )
    ok = worst <= 1e-9
    _record(
        4,
        "smoother dense-oracle equivalence",
        ok,
        f"5 random 6x6 instances: max coefficient/fit gap {worst:.3e} (limit 1e-9)",
    )


def test_criterion_5_method_ordering(ordering_suite, features_suite):
    _, outcomes, wall_o = ordering_suite
    fspec, foutcomes, wall_f = features_suite
    mres = {m: mean_mre(outcomes, m) for m in ORDERING_METHODS}
    wins = win_fraction(outcomes, CSS, PE)
    feat = mean_mre(foutcomes, CSS_FEATURES)
    feat_css = mean_mre(foutcomes, CSS)
    wall = wall_o + wall_f
    ok = (
        mres[CSS] < mres[PE_SSR2] < mres[PE]
        and mres[PE] < mres[PE_SSR1]
        and wins >= 0.8
        and feat <= feat_css
        and wall < 300.0
    )
    _record(
        5,
        "method ordering over 30 seeds",
        ok,
        f"mean MRE css={mres[CSS]:.4f} < pe-ssr2={mres[PE_SSR2]:.4f} < "
        f"pe={mres[PE]:.4f}, pe-ssr1={mres[PE_SSR1]:.4f} > pe; css beats pe on "
        f"{wins:.0%} of seeds (floor 80%); with covariates css-features="
        f"{feat:.4f} <= css={feat_css:.4f}; total {wall:.0f}s (limit 300s)",
    )


def test_criterion_6_survey_scale_pipeline(survey_scale, tmp_path):
    out, truth, runs, wall = survey_scale
    n = truth.domain.n
    problems = []
    for (lam, n_stations), run in runs.items():
        tag = f"lam{lam:g}_bs{n_stations}"
        if set(run.estimates) != set(ALL_METHODS):
            problems.append(f"{tag}: missing methods")
            continue
        for method in ALL_METHODS:
            est = run.estimates[method]
            if est.values.shape != (n,) or not np.isfinite(est.values).all():
                problems.append(f"{tag}/{method}: bad estimate array")
        write_report_csv(list(run.reports.values()), tmp_path / f"report_{tag}.csv")
        rows = read_report_csv(tmp_path / f"report_{tag}.csv")
        if len(rows) != len(ALL_METHODS):
            problems.append(f"{tag}: report has {len(rows)} rows")
        for method, _, mre, excluded in rows:
            if not (np.isfinite(mre) and mre >= 0.0 and excluded >= 0):
                problems.append(f"{tag}/{method}: bad report row")
        for method in ALL_METHODS:
            path = tmp_path / f"cdf_{tag}_{method}.csv"
            write_cdf_csv(run.reports[method], path)
            _, errors, values = read_cdf_csv(path)
            monotone = (np.diff(errors) >= 0).all() and (np.diff(values) > 0).all()
            if not (monotone and values[-1] == 1.0 and values[0] > 0.0):
                problems.append(f"{tag}/{method}: bad cdf")
    ok = not problems and len(runs) == 4
    _record(
        6,
        "survey-scale pipeline completion",
        ok,
        f"{n}-cell domain, 4 configurations x 5 methods completed in {wall:.0f}s "
        f"with valid report and cdf files"
        + ("" if not problems else f"; problems: {problems[:3]}"),
    )


def test_criterion_7_admm_convergence(ordering_suite):
    _, outcomes, _ = ordering_suite
    sqrt_n = float(np.sqrt(400))
    not_converged = []
    worst_res, worst_step = 0.0, -np.inf
    for outcome in outcomes:
        res = outcome.results[CSS]
        if not (res.converged and res.iterations <= 500):
            not_converged.append(outcome.seed)
            continue
        worst_res = max(
            worst_res, res.primal_residuals[-1] / sqrt_n, res.dual_residuals[-1] / sqrt_n
        )
        objs = res.objectives
        # objective drift over the final 90% of sweeps, allowing fp-level
        # chatter of one part in 1e6 per step
        start = max(1, len(objs) // 10)
        for k in range(start, len(objs) - 1):
            slack = 1e-6 * max(1.0, abs(objs[k]))
            worst_step = max(worst_step, float(objs[k + 1] - objs[k] - slack))
    ok = not not_converged and worst_res <= 1e-6 and worst_step <= 0.0
    converged = len(outcomes) - len(not_converged)
    sweeps = [outcome.results[CSS].iterations for outcome in outcomes]
    _record(
        7,
        "solver convergence on the ordering suite",
        ok,
        f"{converged}/{len(outcomes)} converged within 500 sweeps"
        + (f" (failures: {not_converged})" if not_converged else "")
        + f" (sweeps: median {np.median(sweeps):g}, largest {max(sweeps)})"
        + f", final residuals <= {worst_res:.3e} x sqrt(n) (limit 1e-6); "
        f"objective non-increasing over the final 90% with margin "
        f"{-worst_step:.2e} to spare",
    )


def test_criterion_8_cli_determinism(tmp_path):
    def pipeline(root: Path) -> None:
        def run(args):
            assert cli_main([str(a) for a in args]) == 0

        run(["synth", "--rows", 12, "--cols", 12, "--bumps", 3,
             "--beta", "1.0,0.5", "--blocks", 10, "--seed", 7,
             "--out", root / "synth"])
        run(["stations", "--field", root / "synth" / "truth.csv",
             "--stations", 8, "--seed", 2, "--out", root / "stations"])
        run(["aggregate", "--field", root / "synth" / "truth.csv",
             "--stations-csv", root / "stations" / "stations.csv",
             "--out", root / "agg"])
        run(["recover",
             "--domain", root / "synth" / "truth.csv",
             "--stations-csv", root / "stations" / "stations.csv",
             "--aggregates", root / "agg" / "aggregates.csv",
             "--features", root / "synth" / "covariates.csv",
             "--method", "pe", "--method", "pe-ssr1", "--method", "pe-ssr2",
             "--method", "css", "--method", "css-features",
             "--out", root / "recover"])
        run(["evaluate", "--truth", root / "synth" / "truth.csv",
             *[arg for m in ALL_METHODS
               for arg in ("--estimate", root / "recover" / f"estimate_{m}.csv")],
             "--out", root / "eval"])
        run(["plot", "--field", root / "recover" / "estimate_css.csv",
             *[arg for m in ALL_METHODS
               for arg in ("--cdf", root / "eval" / f"cdf_{m}.csv")],
             "--report", root / "eval" / "report.csv",
             "--out", root / "plots"])

    pipeline(tmp_path / "first")
    pipeline(tmp_path / "second")

    # the criterion covers the data and plot outputs; manifests record the
    # invocation verbatim, so their stored paths differ between the roots
    first = sorted(
        p
        for p in (tmp_path / "first").rglob("*")
        if p.is_file() and p.suffix in (".csv", ".svg")
    )
    mismatched = []
    for path in first:
        twin = tmp_path / "second" / path.relative_to(tmp_path / "first")
        if not (twin.exists() and filecmp.cmp(path, twin, shallow=False)):
            mismatched.append(str(path.relative_to(tmp_path / "first")))
    ok = not mismatched and len(first) >= 20
    _record(
        8,
        "seeded pipeline determinism",
        ok,
        f"two single-threaded reruns, {len(first)} output files byte-identical"
        + ("" if not mismatched else f"; mismatches: {mismatched[:4]}"),
    )
