import numpy as np
import pytest

from gibbsflow.cli import run
from gibbsflow.expr import compile_expr, parse
from gibbsflow.flow import (CorrelationSeries, InsufficientSignalError,
                            correlation, evolve_many, sample_flow_measure)
from gibbsflow.operator import eigendata
from gibbsflow.presets import make_preset
from gibbsflow.system import system_from_config


@pytest.fixture(scope="module")
def sys_a():
    return make_preset("SYS-A")


@pytest.fixture(scope="module")
def sys_b():
    return make_preset("SYS-B")


@pytest.fixture(scope="module")
def eig_a(sys_a):
    return eigendata(sys_a, 0.0, N=256)


@pytest.fixture(scope="module")
def eig_b(sys_b):
    return eigendata(sys_b, 0.0, N=256)


# -- evolution --------------------------------------------------------------------


def test_evolve_zero_time_is_identity(sys_b):
    x, u = evolve_many(sys_b, [0.37], [0.21], 0.0)
    assert (x[0], u[0]) == (0.37, 0.21)


def test_unit_roof_time_one_is_base_map(sys_a):
    for x0 in (0.1, 0.3, 0.7):
        x, u = evolve_many(sys_a, [x0], [0.0], 1.0)
        assert x[0] == pytest.approx((2 * x0) % 1.0, abs=1e-12)
        assert u[0] == pytest.approx(0.0, abs=1e-12)


def test_negative_time_rejected(sys_a):
    with pytest.raises(ValueError):
        evolve_many(sys_a, [0.2], [0.1], -1.0)


def test_height_stays_below_roof(sys_b):
    rng = np.random.default_rng(0)
    xs = rng.random(2000)
    us = rng.random(2000) * sys_b.roof_at(xs)
    ts = rng.random(2000) * 10
    ys, vs = evolve_many(sys_b, xs, us, ts)
    assert np.all(vs >= 0)
    assert np.all(vs < sys_b.roof_at(ys))


def test_semigroup_property(sys_b):
    rng = np.random.default_rng(1)
    xs = rng.random(1000)
    us = rng.random(1000) * sys_b.roof_at(xs)
    t1 = rng.random(1000) * 10
    t2 = rng.random(1000) * 10
    x_two, u_two = evolve_many(sys_b, *evolve_many(sys_b, xs, us, t1), t2)
    x_one, u_one = evolve_many(sys_b, xs, us, t1 + t2)
    assert np.max(np.abs(x_two - x_one)) < 1e-9
    assert np.max(np.abs(u_two - u_one)) < 1e-9


def _evolve_every_point(sys, xs, us, t):
    """evolve_many with the roof evaluated on every point at every crossing."""
    xs = np.array(xs, dtype=float, copy=True)
    s = np.array(us, dtype=float, copy=True) + np.asarray(t, dtype=float)
    while True:
        r = sys.roof_at(xs)
        mask = s >= r
        if not np.any(mask):
            break
        s[mask] -= r[mask]
        xs[mask] = sys.apply_T(xs[mask])
    return xs, np.maximum(s, 0.0)


@pytest.mark.parametrize("name", ["SYS-B", "NL-DOUBLING"])
def test_evolve_many_equals_every_point_loop(nl_doubling, name):
    sys = nl_doubling if name == "NL-DOUBLING" else make_preset(name)
    rng = np.random.default_rng(2)
    xs = rng.random(5000)
    us = rng.random(5000) * sys.roof_at(xs)
    got, want = (xs, us), (xs, us)
    for dt in (0.0, 0.4, 1.7, 5.0, rng.random(5000) * 8):
        got = evolve_many(sys, *got, dt)
        want = _evolve_every_point(sys, *want, dt)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("samples", [20_000, 30_001])
def test_batch_means_equal_boolean_masks(sys_b, eig_b, samples):
    ts = np.linspace(0.0, 3.0, 4)
    expr = "cos(2*pi*u)+x"
    got = correlation(sys_b, eig_b, expr, expr, ts, samples, seed=15)
    f = compile_expr(parse(expr, variables=("x", "u")))
    sample = sample_flow_measure(sys_b, eig_b, samples, 15)
    cx, cu = sample.xs, sample.us
    v0 = f(x=cx, u=cu) + 0.0 * cx
    idx = np.arange(samples) % 32
    prev = 0.0
    for t, est, se in zip(ts, got.estimates, got.stderrs):
        cx, cu = evolve_many(sys_b, cx, cu, t - prev)
        prev = t
        wt = f(x=cx, u=cu) + 0.0 * cx
        batch_est = np.array([
            np.mean(v0[idx == k] * wt[idx == k])
            - np.mean(v0[idx == k]) * np.mean(wt[idx == k])
            for k in range(32)])
        assert est == float(np.mean(batch_est))
        assert se == float(np.std(batch_est, ddof=1) / np.sqrt(32))


# -- invariant measure sampling -----------------------------------------------------


def test_unit_roof_gives_product_measure(sys_a, eig_a):
    s = sample_flow_measure(sys_a, eig_a, 30_000, seed=5)
    assert np.mean(s.us) == pytest.approx(0.5, abs=0.01)
    assert np.mean(s.xs) == pytest.approx(0.5, abs=0.01)
    assert s.mean_roof == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def sample_b(sys_b, eig_b):
    return sample_flow_measure(sys_b, eig_b, 40_000, seed=6)


def test_slab_stationarity_diagnostic(sample_b):
    s = sample_b
    assert abs(s.slab_mass - s.slab_expected) < 3 * s.slab_se


def test_base_marginal_proportional_to_roof(sys_b, eig_b, sample_b):
    s = sample_b
    nodes = np.concatenate([eig_b.f.nodes[e] for e in range(sys_b.m)])
    wq = eig_b.mu.reshape(-1)
    r = sys_b.roof_at(nodes)
    expected = float(np.sum(wq * r * (nodes < 0.5)) / np.sum(wq * r))
    got = float(np.mean(s.xs < 0.5))
    se = np.sqrt(expected * (1 - expected) / len(s))
    assert abs(got - expected) < 3 * se


def test_mean_roof_reads_each_node_row_with_its_own_roof():
    # roof 1/2 on [0, 1/2) and 1 on [1/2, 1), mu_0 Lebesgue: int r dmu is
    # 3/4; reading the right end of row 0, the node 1/2, with the roof of
    # element 1 gave 0.75198 at N = 64
    sys_ = system_from_config({
        "partition": [0.0, 0.5, 1.0],
        "branches": [{"expr": "2*x", "image": [0, 2]},
                     {"expr": "2*x-1", "image": [0, 2]}],
        "roof": ["0.5", "1"], "potential": ["0", "0"]})
    eig = eigendata(sys_, 0.0, N=64)
    s = sample_flow_measure(sys_, eig, 10, seed=0)
    assert s.mean_roof == pytest.approx(0.75, abs=1e-14)


def test_mean_roof_rows_equal_the_piecewise_read_on_one_roof(sys_b, eig_b):
    # SYS-B has one roof expression on both elements, so the element that
    # reads a row's right end does not move a bit
    rows = np.concatenate([sys_b.r[e].value(x=eig_b.f.nodes[e])
                           for e in range(sys_b.m)])
    assert np.array_equal(rows, sys_b.roof_at(eig_b.f.nodes.reshape(-1)))
    s = sample_flow_measure(sys_b, eig_b, 10, seed=0)
    assert s.mean_roof == float(np.sum(eig_b.mu.reshape(-1) * rows))


def test_sampler_deterministic_under_seed(sys_b, eig_b):
    s1 = sample_flow_measure(sys_b, eig_b, 2000, seed=11)
    s2 = sample_flow_measure(sys_b, eig_b, 2000, seed=11)
    assert np.array_equal(s1.xs, s2.xs)
    assert np.array_equal(s1.us, s2.us)


# -- correlation -------------------------------------------------------------------


def test_constant_observable_has_no_signal(sys_b, eig_b):
    with pytest.raises(InsufficientSignalError):
        correlation(sys_b, eig_b, "cos(2*pi*u)+x", "1",
                    np.linspace(0.0, 4.0, 9), 10_000, seed=8)


def test_fewer_samples_than_batches_refused(sys_b, eig_b):
    # with 10 samples 22 of the 32 batches are empty: their means are NaN,
    # and the run used to end in InsufficientSignalError
    with pytest.raises(ValueError, match="10 samples are fewer than the 32 "
                                         "batches"):
        correlation(sys_b, eig_b, "cos(2*pi*u)+x", "cos(2*pi*u)+x",
                    np.linspace(0.0, 4.0, 9), 10, seed=8)


def test_correlation_symmetric_at_time_zero(sys_b, eig_b):
    ts = np.linspace(0.0, 3.0, 7)
    a = correlation(sys_b, eig_b, "x", "cos(2*pi*u)+x", ts, 20_000, seed=9)
    b = correlation(sys_b, eig_b, "cos(2*pi*u)+x", "x", ts, 20_000, seed=9)
    assert a.estimates[0] == pytest.approx(b.estimates[0],
                                           abs=3 * (a.stderrs[0] + b.stderrs[0]))


def test_unit_roof_rigidity(sys_a, eig_a):
    # u(t) = u + t mod 1 exactly, so the height observable never decorrelates
    ts = np.arange(0.0, 21.0)
    cs = correlation(sys_a, eig_a, "cos(2*pi*u)", "cos(2*pi*u)", ts,
                     30_000, seed=10)
    assert np.all(np.abs(cs.estimates) >= np.abs(cs.estimates[0]) / 2)
    # integer times reproduce C(0) exactly
    assert np.allclose(cs.estimates, cs.estimates[0], atol=1e-12)
    assert abs(cs.rate) < 1e-6


def test_unit_roof_periodicity(sys_a, eig_a):
    ts = np.array([0.25, 1.25, 2.25, 5.25, 0.5, 1.5, 2.5, 3.5])
    cs = correlation(sys_a, eig_a, "cos(2*pi*u)", "cos(2*pi*u)",
                     np.sort(ts), 30_000, seed=12)
    est = dict(zip(cs.times, cs.estimates))
    assert est[1.25] == pytest.approx(est[0.25], abs=1e-12)
    assert est[5.25] == pytest.approx(est[2.25], abs=1e-12)
    assert est[3.5] == pytest.approx(est[0.5], abs=1e-12)


def test_sys_b_correlations_decay(sys_b, eig_b):
    ts = np.linspace(0.0, 8.0, 17)
    cs = correlation(sys_b, eig_b, "cos(2*pi*u)+x", "cos(2*pi*u)+x", ts,
                     50_000, seed=13)
    assert cs.rate > 0.1
    assert int(cs.used_in_fit.sum()) >= 4
    # magnitudes shrink by more than a factor five over the window
    assert abs(cs.estimates[-1]) < abs(cs.estimates[0]) / 5


def test_correlation_csv_round_shape(sys_b, eig_b, tmp_path, monkeypatch):
    # correlate.csv writes the series of the run (eigendata N = 256, the N
    # of eig_b) back to the bit, one row per time
    monkeypatch.setenv("GIBBSFLOW_SEED", "14")
    out = tmp_path / "out"
    assert run({"experiment": "correlate", "preset": "SYS-B",
                "params": {"v": "x", "t_max": 2.0, "t_points": 5,
                           "samples": 20_000}}, out_dir=str(out)) == 0
    lines = (out / "correlate.csv").read_text().strip().split("\n")
    assert lines[0] == "t,C_hat,stderr,used_in_fit"
    assert len(lines) == 6
    cs = correlation(sys_b, eig_b, "x", "x", np.linspace(0.0, 2.0, 5),
                     20_000, seed=14)
    t, c, s, u = (np.array(col, dtype=float)
                  for col in zip(*(ln.split(",") for ln in lines[1:])))
    assert np.array_equal(t, cs.times)
    assert np.array_equal(c, cs.estimates)
    assert np.array_equal(s, cs.stderrs)
    assert np.array_equal(u, cs.used_in_fit)
