import math

import numpy as np
import pytest

from ridkit import backend
from ridkit.cli import main
from ridkit.evaluation import (
    EvalConfig,
    regularized_incomplete_beta,
    resimulation_error,
    student_t_sf,
    welch_t_test,
)
from ridkit.fileio import MODEL_FILE, REPORT_FILE, read_json, write_json
from ridkit.flow import build_flow, flow_to_jsonable
from ridkit.seeding import derive_seed
from ridkit.tasks import (
    NOISE_MODES,
    TASK_NAMES,
    NoiseSpec,
    apply_noise_batch,
    make_task,
    prior_sample,
    task_forward,
)


# Monte Carlo checks of the task noise models ---------------------------------------
#
# The expected squared loss L of a design against a target is R + B (see the
# ridkit.evaluation docstring). The estimators below draw the noisy response of
# one design from the task simulators and check the noise models against that
# identity and against their closed-form variances.


def _draws(task, noise, x_design, n, seed) -> np.ndarray:
    x = np.asarray(x_design, dtype=np.float64).reshape(1, task.d_x)
    rng = np.random.default_rng(seed)
    return apply_noise_batch(task, noise, np.repeat(x, n, axis=0), rng)


def mc_expected_loss(task, noise, x_design, y_target, n_draws, seed) -> float:
    """Unbiased Monte Carlo estimate of the expected squared loss at x'."""
    yt = np.asarray(y_target, dtype=np.float64).reshape(1, task.d_y)
    y = _draws(task, noise, x_design, n_draws, seed)
    return float(backend.row_sumsq_diff(y, np.repeat(yt, n_draws, axis=0)).mean())


def target_agnostic_robustness(task, noise, x_design, n_draws, seed):
    """(R, F_hat): spread of the noisy response around its own sample mean.

    R carries the n/(n-1) small-sample correction; F_hat is the plain mean.
    """
    y = _draws(task, noise, x_design, n_draws, seed)
    f_hat = y.mean(axis=0, keepdims=True)
    dev = float(backend.row_sumsq_diff(y, np.repeat(f_hat, n_draws, axis=0)).mean())
    return dev * n_draws / (n_draws - 1), f_hat[0]


def decomposition_check(task, noise, x_design, y_target, n_draws, seed, shared_draws=True):
    """Residual of L = R + B.

    On one shared draw set the identity holds exactly (R taken as the
    uncorrected second moment about the sample mean), so the residual is
    pure float rounding. With independent draw sets the residual is a Monte
    Carlo quantity that shrinks like 1/sqrt(n).
    """
    yt = np.asarray(y_target, dtype=np.float64).reshape(1, task.d_y)
    y = _draws(task, noise, x_design, n_draws, seed)
    loss = float(backend.row_sumsq_diff(y, np.repeat(yt, n_draws, axis=0)).mean())
    if not shared_draws:
        y = _draws(task, noise, x_design, n_draws, derive_seed(seed, "independent"))
    f_hat = y.mean(axis=0, keepdims=True)
    r_raw = float(backend.row_sumsq_diff(y, np.repeat(f_hat, n_draws, axis=0)).mean())
    bias = float(((f_hat - yt) ** 2).sum())
    return abs(loss - (r_raw + bias))


def test_mc_loss_zero_on_noiseless_match():
    task = make_task("kinematics")
    x = np.array([0.2, 0.1, -0.3, 0.4])
    yt = task_forward(task, x.reshape(1, -1))[0]
    assert mc_expected_loss(task, NoiseSpec(mode="none"), x, yt, 100, seed=0) == 0.0


def test_mc_loss_estimates_noise_variance():
    task = make_task("ballistics")
    noise = NoiseSpec(mode="n_y", y_sigma=0.1)
    x = np.array([0.0, 1.0, math.pi / 4, 4.0])
    clean = task_forward(task, x.reshape(1, -1))[0]
    sigma = 0.1 * (1 + abs(clean[0]))
    n = 20_000
    est = mc_expected_loss(task, noise, x, clean, n, seed=1)
    assert est == pytest.approx(sigma**2, abs=4 * sigma**2 * math.sqrt(2.0 / n))


def test_mc_loss_constant_offset():
    task = make_task("radius")
    x = np.array([0.0, 1.7])
    clean = task_forward(task, x.reshape(1, -1))[0]
    offset = clean + 0.3
    assert mc_expected_loss(task, NoiseSpec(mode="none"), x, offset, 50, seed=2) == pytest.approx(0.09)


def test_target_agnostic_robustness_noiseless():
    task = make_task("radian")
    x = np.array([1.0, 1.0])
    r, f_hat = target_agnostic_robustness(task, NoiseSpec(mode="none"), x, 100, seed=3)
    assert r == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(f_hat, task_forward(task, x.reshape(1, -1))[0])


def test_target_agnostic_robustness_matches_variance():
    task = make_task("ballistics")
    noise = NoiseSpec(mode="n_y", y_sigma=0.25)
    x = np.array([0.0, 1.0, math.pi / 4, 4.0])
    clean = task_forward(task, x.reshape(1, -1))[0, 0]
    sigma = 0.25 * (1 + abs(clean))
    r, _ = target_agnostic_robustness(task, noise, x, 40_000, seed=4)
    assert r == pytest.approx(sigma**2, rel=0.05)


@pytest.mark.parametrize("task_name", TASK_NAMES)
@pytest.mark.parametrize("mode", NOISE_MODES)
def test_decomposition_identity_all_tasks_and_modes(task_name, mode):
    task = make_task(task_name)
    noise = NoiseSpec(mode=mode)
    x = prior_sample(task, 1, np.random.default_rng(5))[0]
    yt = task_forward(task, x.reshape(1, -1))[0] + 0.25
    residual = decomposition_check(task, noise, x, yt, 10_000, seed=6)
    assert residual < 1e-10


def test_decomposition_noiseless_loss_equals_bias():
    task = make_task("kinematics")
    x = prior_sample(task, 1, np.random.default_rng(7))[0]
    yt = task_forward(task, x.reshape(1, -1))[0] + 0.5
    loss = mc_expected_loss(task, NoiseSpec(mode="none"), x, yt, 100, seed=8)
    assert loss == pytest.approx(0.5**2 * 2)


def test_decomposition_independent_draws_shrinks():
    task = make_task("ballistics")
    noise = NoiseSpec(mode="n_xy")
    x = prior_sample(task, 1, np.random.default_rng(9))[0]
    yt = task_forward(task, x.reshape(1, -1))[0]
    small = [
        decomposition_check(task, noise, x, yt, 200, seed=s, shared_draws=False)
        for s in range(8)
    ]
    large = [
        decomposition_check(task, noise, x, yt, 20_000, seed=s, shared_draws=False)
        for s in range(8)
    ]
    assert np.mean(large) < np.mean(small)


def test_mc_loss_at_sample_mean_equals_uncorrected_spread():
    task = make_task("ballistics")
    noise = NoiseSpec(mode="n_y")
    x = prior_sample(task, 1, np.random.default_rng(10))[0]
    n = 5000
    r, f_hat = target_agnostic_robustness(task, noise, x, n, seed=11)
    loss_at_mean = mc_expected_loss(task, noise, x, f_hat, n, seed=11)
    assert loss_at_mean == pytest.approx(r * (n - 1) / n, rel=1e-12)


# incomplete beta / t distribution ----------------------------------------------


def test_incomplete_beta_against_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = float(rng.uniform(0.3, 60.0))
        b = float(rng.uniform(0.3, 60.0))
        x = float(rng.uniform(0.0, 1.0))
        ours = regularized_incomplete_beta(a, b, x)
        ref = float(scipy_special.betainc(a, b, x))
        assert ours == pytest.approx(ref, abs=1e-8)


def test_t_sf_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for t in (-3.0, -0.5, 0.0, 0.7, 2.5, 10.0):
        for df in (1.0, 4.0, 17.3, 200.0):
            assert student_t_sf(t, df) == pytest.approx(
                float(scipy_stats.t.sf(t, df)), abs=1e-10
            )


def test_welch_identical_samples():
    a = np.full(10, 3.0)
    t, p = welch_t_test(a, a.copy())
    assert t == 0.0 and p == 1.0


def test_welch_strong_effect_detected():
    rng = np.random.default_rng(13)
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000) + 1.0
    t, p = welch_t_test(a, b)
    assert p < 1e-10
    assert t < 0


def test_welch_swap_negates_t_keeps_p():
    rng = np.random.default_rng(14)
    a = rng.standard_normal(50)
    b = 0.3 + rng.standard_normal(50)
    t1, p1 = welch_t_test(a, b)
    t2, p2 = welch_t_test(b, a)
    assert t1 == pytest.approx(-t2)
    assert p1 == pytest.approx(p2)


def test_welch_p_scale_invariant():
    rng = np.random.default_rng(15)
    a = rng.standard_normal(40) + 0.5
    b = rng.standard_normal(40)
    _, p1 = welch_t_test(a, b)
    _, p2 = welch_t_test(a * 123.0, b * 123.0)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_welch_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(16)
    a = rng.standard_normal(37) * 2.0 + 0.3
    b = rng.standard_normal(81)
    t, p = welch_t_test(a, b)
    ref = scipy_stats.ttest_ind(a, b, equal_var=False)
    assert t == pytest.approx(float(ref.statistic), rel=1e-12)
    assert p == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_welch_input_validation():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


# re-simulation reports -----------------------------------------------------------


def test_resimulation_identity_model_reproducible():
    task = make_task("radian")
    noise = NoiseSpec(mode="n_x")
    model = build_flow(2, 1, n_blocks=2, hidden=(8,), seed=0)
    targets = np.linspace(0.5, 5.5, 16).reshape(-1, 1)
    cfg = EvalConfig(n_targets=16, samples_per_target=8, seed=5)
    l1 = resimulation_error(model, task, noise, targets, cfg)
    l2 = resimulation_error(model, task, noise, targets, cfg)
    assert l1.shape == (16,)
    assert l1.dtype == np.float64
    np.testing.assert_array_equal(l1, l2)
    assert (l1 >= 0.0).all()


def test_resimulation_dim_mismatch():
    task = make_task("kinematics")
    model = build_flow(2, 1, n_blocks=2, hidden=(8,), seed=0)
    with pytest.raises(ValueError):
        resimulation_error(model, task, NoiseSpec(), np.zeros((4, 2)), EvalConfig(seed=0))


def test_report_serialization_excludes_timing_by_default(tmp_path, capsys):
    # report.json is built by `ridkit eval`: the wall-clock time of the
    # re-simulation is printed, never written
    model_path = tmp_path / MODEL_FILE
    model = build_flow(2, 1, n_blocks=2, hidden=(8,), seed=0)
    write_json(model_path, flow_to_jsonable(model, "0" * 64, None))
    out = tmp_path / "eval"
    assert main(["eval", "--model", str(model_path), "--task", "radian", "--noise", "none",
                 "--n-targets", "2", "--seed", "1", "--out", str(out)]) == 0
    doc = read_json(out / REPORT_FILE)
    assert "wall_clock_seconds" not in doc
    assert doc["format_version"] == 2
    assert len(doc["per_target_losses"]) == 2
    assert doc["config"] == {"n_targets": 2, "samples_per_target": 16,
                             "seed": derive_seed(1, "eval")}
    assert "wall_clock=" in capsys.readouterr().out  # measured, only printed
