"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them on success). Tolerances are fixed here, not tuned at runtime.

Known red: the diminishing-returns leg of the submodularity suite. The
selected-pair log-det objective gains 2|X|+1 rank-one summands when a
node joins a set of size |X|, so marginal gains typically grow with the
base set; the objective is normalized and monotone but not submodular.
The check stays as stated and fails honestly, reporting the measured
violation rate. Greedy near-optimality is checked independently against
the exhaustive optimum and passes.
"""

import itertools
import warnings

import numpy as np

import graphcov as gc

warnings.simplefilter("ignore", gc.RepeatedEigenvaluesWarning)


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    return ok


def random_orthogonal_basis(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return gc.SpectralBasis(eigvecs=q, eigvals=np.arange(n, dtype=float))


def dft_psi(n):
    shift = gc.build_shift(gc.cycle_graph(n), "adjacency")
    return shift, gc.build_psi_spectral(shift.basis())


def test_sparse_ruler_facts():
    marks10 = gc.minimal_sparse_ruler(10)
    paper80 = (0, 1, 2, 5, 10, 15, 26, 37, 48, 59, 65, 71, 77, 78, 79)
    ok = (
        len(marks10) == 5
        and gc.is_sparse_ruler(marks10, 10)
        and gc.is_sparse_ruler({0, 1, 4, 7, 9}, 10)
        and gc.is_sparse_ruler(paper80, 80)
        and len(paper80) / 80 == 0.1875
    )
    assert report("sparse-ruler-facts", ok, f"minimal(10)={marks10}, |K|/N={len(paper80)/80}")


def test_noiseless_exact_recovery_spectral():
    shift, psi = dft_psi(10)
    sampler = gc.Subsampler(10, (0, 1, 4, 7, 9))
    basis = shift.basis()
    rng = np.random.default_rng(42)
    p = rng.random(10) + 0.05
    r_x = (basis.eigvecs * p) @ basis.eigvecs.conj().T
    r_y = r_x[np.ix_(sampler.selected, sampler.selected)]
    model = gc.compress_model(psi, sampler)
    p_hat = gc.ls_estimate(model, gc.vec(r_y)).theta
    rel = np.linalg.norm(p_hat - p) / np.linalg.norm(p)
    assert report("noiseless-spectral-ruler", rel < 1e-8, f"rel err {rel:.2e}")


def test_noiseless_exact_recovery_greedy_sensor():
    shift = gc.build_shift(gc.sensor_graph(30, seed=7), "laplacian")
    basis = shift.basis()
    psi = gc.build_psi_spectral(basis)
    sampler = None
    for k in range(int(np.ceil(np.sqrt(30))), 31):
        candidate = gc.greedy_design(gc.DesignProblem(psi=psi, k=k)).sampler
        if gc.check_valid(psi, candidate).valid:
            sampler = candidate
            break
    assert sampler is not None
    h = gc.GraphFilter([1.0, 0.5, -0.2])
    p = np.abs(gc.frequency_response(basis.eigvals, h)) ** 2
    r_x = gc.true_covariance(shift, h).matrix
    r_y = r_x[np.ix_(sampler.selected, sampler.selected)]
    p_hat = gc.ls_estimate(gc.compress_model(psi, sampler), gc.vec(r_y)).theta
    rel = np.linalg.norm(p_hat - p) / np.linalg.norm(p)
    assert report(
        "noiseless-greedy-sensor", rel < 1e-6, f"smallest valid K={sampler.k}, rel err {rel:.2e}"
    )


def test_ma_exactness_and_structure():
    shift = gc.build_shift(gc.sensor_graph(30, seed=7), "laplacian")
    basis = shift.basis()
    h = gc.GraphFilter([1.0, 0.6, 0.25])
    q = 5
    b_true = gc.ma_b_from_h(h)
    assert b_true.size == q
    psi = gc.build_psi_ma(shift, q)
    sampler = gc.greedy_design(gc.DesignProblem(psi=psi, k=3)).sampler
    validity = gc.check_valid(psi, sampler)
    r_x = gc.true_covariance(shift, h).matrix
    r_y = r_x[np.ix_(sampler.selected, sampler.selected)]
    b_hat = gc.ls_estimate(gc.compress_model(psi, sampler), gc.vec(r_y)).theta
    b_err = np.abs(b_hat - b_true).max()
    p_from_b = gc.vandermonde(basis.eigvals, q) @ b_hat
    p_true = np.abs(gc.frequency_response(basis.eigvals, h)) ** 2
    p_err = np.abs(p_from_b - p_true).max()
    ok = validity.valid and b_err < 1e-8 and p_err < 1e-6
    assert report("ma-exactness", ok, f"valid={validity.valid}, |b err|={b_err:.2e}, |p err|={p_err:.2e}")


def test_greedy_near_optimality():
    bound = 1 - 1 / np.e
    worst = np.inf
    for inst in range(20):
        psi = gc.build_psi_spectral(random_orthogonal_basis(12, 100 + inst))
        eps = gc.default_epsilon(psi)
        greedy = gc.greedy_design(gc.DesignProblem(psi=psi, k=4)).sampler.selected
        f_greedy = gc.set_objective(psi, greedy, eps)
        f_opt = max(
            gc.set_objective(psi, subset, eps)
            for subset in itertools.combinations(range(12), 4)
        )
        worst = min(worst, f_greedy / f_opt)
        if f_greedy < bound * f_opt - 1e-9:
            break
    ok = worst >= bound
    assert report("greedy-near-optimality", ok, f"worst f(greedy)/f(opt) = {worst:.4f} >= {bound:.4f}")


def test_submodularity_suite():
    norm_ok = True
    mono_violations = 0
    dr_violations = 0
    worst_margin = 0.0
    triples = 0
    for inst in range(10):
        n = 8 + (inst % 5)
        psi = gc.build_psi_spectral(random_orthogonal_basis(n, 300 + inst))
        eps = gc.default_epsilon(psi)
        norm_ok &= gc.set_objective(psi, (), eps) == 0.0
        rng = np.random.default_rng(500 + inst)
        count = 0
        while count < 100:
            y = set(rng.choice(n, size=rng.integers(1, n - 1), replace=False).tolist())
            x = set(v for v in y if rng.random() < 0.5)
            rest = [s for s in range(n) if s not in y]
            if not rest:
                continue
            s = int(rest[rng.integers(len(rest))])
            f_x = gc.set_objective(psi, x, eps)
            f_y = gc.set_objective(psi, y, eps)
            if f_x > f_y + 1e-9:
                mono_violations += 1
            gain_x = gc.set_objective(psi, x | {s}, eps) - f_x
            gain_y = gc.set_objective(psi, y | {s}, eps) - f_y
            if gain_x < gain_y - 1e-9:
                dr_violations += 1
                worst_margin = max(worst_margin, gain_y - gain_x)
            count += 1
            triples += 1
    detail = (
        f"normalization={'ok' if norm_ok else 'broken'}, "
        f"monotonicity violations={mono_violations}/{triples}, "
        f"diminishing-returns violations={dr_violations}/{triples} "
        f"(worst margin {worst_margin:.2f}); the pair-structured objective is "
        f"monotone but not submodular"
    )
    ok = norm_ok and mono_violations == 0 and dr_violations == 0
    assert report("submodularity-suite", ok, detail)


def _spectral_mc_cells(n_trials, snapshot_grid, seed0):
    """LS squared errors per (sampler, N_s, trial) on the N=30 sensor setup."""
    shift = gc.build_shift(gc.sensor_graph(30, seed=7), "laplacian")
    basis = shift.basis()
    psi = gc.build_psi_spectral(basis)
    h = gc.GraphFilter([1.0, 0.5, -0.2])
    p = np.abs(gc.frequency_response(basis.eigvals, h)) ** 2
    samplers = {
        "full": gc.Subsampler.full(30),
        "half": gc.greedy_design(gc.DesignProblem(psi=psi, k=15)).sampler,
    }
    models = {name: gc.compress_model(psi, s) for name, s in samplers.items()}
    assert all(m.full_column_rank for m in models.values())
    sse = {(name, ns): [] for name in samplers for ns in snapshot_grid}
    for ns_idx, ns in enumerate(snapshot_grid):
        for trial in range(n_trials):
            seed = np.random.SeedSequence((seed0, ns_idx, trial))
            x = gc.generate_signals(shift, h, ns, seed)
            for name, sampler in samplers.items():
                cov = gc.sample_covariance(x[list(sampler.selected)])
                theta = gc.ls_estimate(models[name], gc.vec(cov.matrix)).theta
                err = theta - p
                sse[(name, ns)].append(float(err @ err))
    return shift, basis, psi, h, p, samplers, models, sse


def test_finite_sample_scaling():
    grid = (100, 1000)
    *_, p, samplers, models, sse = _spectral_mc_cells(200, grid, seed0=2024)
    norm = float(np.linalg.norm(p))
    nmse_db = {
        key: 10 * np.log10(np.sum(values) / (len(values) * norm)) for key, values in sse.items()
    }
    drops = {name: nmse_db[(name, 100)] - nmse_db[(name, 1000)] for name in samplers}
    ordering = all(nmse_db[("half", ns)] >= nmse_db[("full", ns)] for ns in grid)
    slope_ok = all(7.0 <= drop <= 13.0 for drop in drops.values())
    detail = ", ".join(
        f"{name}: {nmse_db[(name, 100)]:.1f} -> {nmse_db[(name, 1000)]:.1f} dB" for name in samplers
    )
    assert report("finite-sample-scaling", slope_ok and ordering, detail)


def test_crb_ordering_and_wls_stationarity():
    n_trials = 500
    ns = 1000
    shift, basis, psi, h, p, samplers, models, sse = _spectral_mc_cells(n_trials, (ns,), seed0=777)
    sampler, model = samplers["half"], models["half"]
    mse_emp = float(np.mean(sse[("half", ns)]))
    r_true = gc.true_covariance(shift, h).matrix[np.ix_(sampler.selected, sampler.selected)]
    info = gc.fisher_info(model, gc.CovarianceMatrix(r_true, kind="true"), ns)
    crb_trace = float(np.trace(info.crb))
    m = model.n_params
    crb_ok = mse_emp / m >= crb_trace / m

    x = gc.generate_signals(shift, h, ns, seed=31)
    cov = gc.sample_covariance(x[list(sampler.selected)])
    r_hat = gc.vec(cov.matrix)
    theta = gc.wls_estimate(model, r_hat, cov).theta
    resid = gc.wls_stationarity_residual(model, theta, r_hat, cov)
    ok = crb_ok and resid < 1e-8
    assert report(
        "crb-ordering",
        ok,
        f"MSE/M={mse_emp / m:.3e} >= CRB/M={crb_trace / m:.3e}, WLS residual={resid:.1e}",
    )


def test_ar_pipeline():
    shift = gc.build_shift(gc.cycle_graph(20), "adjacency")
    a_true = 0.2
    core = gc.core_by_degree(gc.cycle_graph(20))
    scheme = gc.build_ar_scheme(shift, core, 1)
    cov = gc.true_ar_covariance(shift, [a_true])
    model, r_y = gc.build_ar_model(shift, scheme, gc.true_ar_covariances(scheme, cov))
    a_hat = gc.estimate_ar(model, r_y).theta[0]

    # truth oracle: model matching over the stated grid recovers a exactly
    grid = np.round(np.arange(-0.4, 0.4 + 1e-12, 1e-4), 10)
    eye = np.eye(20)
    h_all = np.linalg.inv(eye[None, :, :] - grid[:, None, None] * shift.matrix[None, :, :])
    fits = np.linalg.norm(h_all @ np.swapaxes(h_all, 1, 2) - cov.matrix, axis=(1, 2))
    a_oracle = float(grid[np.argmin(fits)])
    oracle_ok = abs(a_oracle - a_true) < 1e-9

    # independent reference for the linear estimator: brute-force quadratic
    # scan of ||r_y - G a||^2 plus exact parabolic refinement
    g_col = model.matrix[:, 0]
    scan = np.arange(-1.0, 1.0 + 1e-12, 1e-3)
    obj = np.array([float(np.sum((r_y - g_col * a) ** 2)) for a in scan])
    i = int(np.argmin(obj))
    a0, a1, a2 = scan[i - 1], scan[i], scan[i + 1]
    f0, f1, f2 = obj[i - 1], obj[i], obj[i + 1]
    a_ref = a1 - 0.5 * ((a1 - a0) ** 2 * (f1 - f2) - (a1 - a2) ** 2 * (f1 - f0)) / (
        (a1 - a0) * (f1 - f2) - (a1 - a2) * (f1 - f0)
    )
    ref_ok = abs(a_hat - a_ref) < 1e-6
    bias = abs(a_hat - a_true)

    # sample-covariance estimates converge to the true-covariance value ~ 1/sqrt(N_s)
    errs = {}
    for ns in (4000, 64000):
        sq = []
        for trial in range(12):
            x = gc.generate_ar_signals(shift, [a_true], ns, seed=np.random.SeedSequence((9, ns, trial)))
            m_s, r_s = gc.build_ar_model(shift, scheme, gc.sample_ar_covariances(scheme, x))
            sq.append((gc.estimate_ar(m_s, r_s).theta[0] - a_hat) ** 2)
        errs[ns] = float(np.sqrt(np.mean(sq)))
    ratio = errs[4000] / errs[64000]  # expect ~ sqrt(16) = 4
    rate_ok = 4 / 3 <= ratio <= 12
    ok = oracle_ok and ref_ok and rate_ok
    assert report(
        "ar-pipeline",
        ok,
        f"a_hat={a_hat:.6f}, ref diff={abs(a_hat - a_ref):.1e}, bias vs oracle={bias:.3f}, "
        f"error ratio {ratio:.2f} for 16x snapshots",
    )


def test_appendix_rank_properties():
    rng = np.random.default_rng(8)
    self_kr_ok = True
    count = 0
    for inst in range(50):
        n = 3 + inst % 10
        psi = gc.build_psi_spectral(random_orthogonal_basis(n, 900 + inst))
        if np.linalg.matrix_rank(gc.compress_model(psi, gc.Subsampler.full(n)).matrix) != n:
            self_kr_ok = False
        count += 1
    bound_ok = True
    for inst in range(30):
        n = int(rng.integers(4, 11))
        psi = gc.build_psi_spectral(random_orthogonal_basis(n, 2000 + inst))
        k = int(rng.integers(1, n + 1))
        selected = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        sampler = gc.Subsampler(n, selected)
        verdict = gc.check_valid(psi, sampler)
        compressed = gc.compress_model(psi, sampler).matrix
        rank = np.linalg.matrix_rank(compressed)
        if rank > min(k * k, n):
            bound_ok = False
        if verdict.valid != (rank == n):
            bound_ok = False
    ok = self_kr_ok and count == 50 and bound_ok
    assert report("appendix-rank-properties", ok, f"{count} bases, rank bound and verdict agree")
