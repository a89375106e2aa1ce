import numpy as np
import pytest

from conftest import system
from gibbsflow.cli import run
from gibbsflow.expr import compile_expr, parse
from gibbsflow.flow import (InsufficientSignalError, _batch_means, correlation,
                            evolve_many, sample_flow_measure)
from gibbsflow.operator import eigendata
from gibbsflow.system import system_from_config


@pytest.fixture(scope="module")
def eig_a(sys_a):
    return eigendata(sys_a, 0.0, N=256)


@pytest.fixture(scope="module")
def eig_b(sys_b):
    return eigendata(sys_b, 0.0, N=256)


# -- evolution --------------------------------------------------------------------


def test_evolve_zero_time_is_identity(sys_b):
    x, u, _ = evolve_many(sys_b, [0.37], [0.21], sys_b.roof_at([0.37]), 0.0)
    assert (x[0], u[0]) == (0.37, 0.21)


def test_unit_roof_time_one_is_base_map(sys_a):
    for x0 in (0.1, 0.3, 0.7):
        x, u, _ = evolve_many(sys_a, [x0], [0.0], sys_a.roof_at([x0]), 1.0)
        assert x[0] == pytest.approx((2 * x0) % 1.0, abs=1e-12)
        assert u[0] == pytest.approx(0.0, abs=1e-12)


def test_negative_time_rejected(sys_a):
    with pytest.raises(ValueError):
        evolve_many(sys_a, [0.2], [0.1], sys_a.roof_at([0.2]), -1.0)


def test_height_stays_below_roof(sys_b):
    rng = np.random.default_rng(0)
    xs = rng.random(2000)
    us = rng.random(2000) * sys_b.roof_at(xs)
    ts = rng.random(2000) * 10
    ys, vs, _ = evolve_many(sys_b, xs, us, sys_b.roof_at(xs), ts)
    assert np.all(vs >= 0)
    assert np.all(vs < sys_b.roof_at(ys))


def test_semigroup_property(sys_b):
    rng = np.random.default_rng(1)
    xs = rng.random(1000)
    rs = sys_b.roof_at(xs)
    us = rng.random(1000) * rs
    t1 = rng.random(1000) * 10
    t2 = rng.random(1000) * 10
    x_two, u_two, r_two = evolve_many(
        sys_b, *evolve_many(sys_b, xs, us, rs, t1), t2)
    x_one, u_one, r_one = evolve_many(sys_b, xs, us, rs, t1 + t2)
    assert np.max(np.abs(x_two - x_one)) < 1e-9
    assert np.max(np.abs(u_two - u_one)) < 1e-9
    # the carried roof values are the roof at the returned points, each way
    assert np.array_equal(r_two, sys_b.roof_at(x_two))
    assert np.array_equal(r_one, sys_b.roof_at(x_one))


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
def test_evolve_many_equals_every_point_loop(name):
    sys = system(name)
    rng = np.random.default_rng(2)
    xs = rng.random(5000)
    us = rng.random(5000) * sys.roof_at(xs)
    got, want = (xs, us, sys.roof_at(xs)), (xs, us)
    for dt in (0.0, 0.4, 1.7, 5.0, rng.random(5000) * 8):
        got = evolve_many(sys, *got, dt)
        want = _evolve_every_point(sys, *want, dt)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        # the carried roof values stay the roof at the current points
        assert np.array_equal(got[2], sys.roof_at(got[0]))


@pytest.mark.parametrize("samples", [20_000, 30_001])
def test_batch_means_equal_boolean_masks(sys_b, eig_b, samples):
    ts = np.linspace(0.0, 3.0, 4)
    expr = "cos(2*pi*u)+x"
    got = correlation(sys_b, eig_b, expr, expr, ts, samples, seed=15)
    f = compile_expr(parse(expr, variables=("x", "u")))
    sample = sample_flow_measure(sys_b, eig_b, samples, 15)
    cx, cu, cr = sample.xs, sample.us, sys_b.roof_at(sample.xs)
    v0 = f(x=cx, u=cu) + 0.0 * cx
    idx = np.arange(samples) % 32
    # the layout the batches had before they were strided slices: a stable
    # argsort of the labels, each batch a contiguous segment
    order = np.argsort(idx, kind="stable")
    ends = np.cumsum(np.bincount(idx, minlength=32))
    segments = [slice(a, b) for a, b in zip(np.r_[0, ends[:-1]], ends)]
    v0_sorted = v0[order]
    prev = 0.0
    for t, est, se in zip(ts, got.estimates, got.stderrs):
        cx, cu, cr = evolve_many(sys_b, cx, cu, cr, t - prev)
        prev = t
        wt = f(x=cx, u=cu) + 0.0 * cx
        batch_est = np.array([
            np.mean(v0[idx == k] * wt[idx == k])
            - np.mean(v0[idx == k]) * np.mean(wt[idx == k])
            for k in range(32)])
        ws = wt[order]
        vw = v0_sorted * ws
        assert np.array_equal(batch_est, [
            np.mean(vw[seg]) - np.mean(v0_sorted[seg]) * np.mean(ws[seg])
            for seg in segments])
        assert est == float(np.mean(batch_est))
        assert se == float(np.std(batch_est, ddof=1) / np.sqrt(32))


@pytest.mark.parametrize("n", [32, 1_000, 99_999, 100_000, 100_001])
def test_batch_means_equal_one_mean_per_segment(n):
    # the first n % 32 segments are one longer; values spread over many
    # binades, so a sum in another order would show in the last bits
    rng = np.random.default_rng(n)
    a = rng.normal(size=n) * np.exp(rng.normal(scale=5.0, size=n))
    q, r = divmod(n, 32)
    lengths = [q + 1] * r + [q] * (32 - r)
    ends = np.cumsum(lengths)
    want = [np.mean(a[e - k:e]) for e, k in zip(ends, lengths)]
    assert np.array_equal(_batch_means(a), want)
    # a constant observable is a broadcast view, with stride 0
    flat = np.broadcast_to(np.float64(0.1), (n,))
    assert np.array_equal(_batch_means(flat), [np.mean(flat[e - k:e])
                                               for e, k in zip(ends, lengths)])


def test_each_landing_reads_the_roof_once(sys_b, eig_b, monkeypatch):
    # the roof is read at each base point the sampler draws and at each
    # point the flow lands on, and nowhere else: no t-step reads it again
    # at the points that have not moved
    import gibbsflow.flow as fl
    from gibbsflow.system import MarkovSystem
    points = {"sample_mu": 0, "apply_T": 0, "roof_at": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            points[name] += np.size(out)
            return out
        return wrapper

    monkeypatch.setattr(fl, "sample_mu", counted("sample_mu", fl.sample_mu))
    for name in ("apply_T", "roof_at"):
        monkeypatch.setattr(MarkovSystem, name,
                            counted(name, getattr(MarkovSystem, name)))
    correlation(sys_b, eig_b, "cos(2*pi*u)+x", "cos(2*pi*u)+x",
                np.linspace(0.0, 3.0, 4), 20_000, seed=15)
    assert points["sample_mu"] >= 20_000
    assert points["apply_T"] > 0
    assert points["roof_at"] == points["sample_mu"] + points["apply_T"]


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
    se = np.sqrt(expected * (1 - expected) / len(s.xs))
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


def test_sample_carries_the_roof_at_its_base_points(sys_b, eig_b):
    s = sample_flow_measure(sys_b, eig_b, 2000, seed=11)
    assert len(s.rs) == len(s.xs) == 2000
    assert np.array_equal(s.rs, sys_b.roof_at(s.xs))
    assert np.all(s.us < s.rs)


def test_sampler_deterministic_under_seed(sys_b, eig_b):
    s1 = sample_flow_measure(sys_b, eig_b, 2000, seed=11)
    s2 = sample_flow_measure(sys_b, eig_b, 2000, seed=11)
    assert np.array_equal(s1.xs, s2.xs)
    assert np.array_equal(s1.us, s2.us)


def test_short_batch_draws_again_for_the_missing_points(sys_b, eig_b,
                                                        monkeypatch):
    # the first base batch sits where the roof is least, r = 1/3, so it
    # keeps about half the points asked for; another batch, from the next
    # seed, draws for the rest
    import gibbsflow.flow as fl
    calls, sample_mu = [], fl.sample_mu

    def first_at_roof_min(sys, eig, count, seed):
        calls.append((count, seed))
        if len(calls) == 1:
            return np.full(count, 0.5)
        return sample_mu(sys, eig, count, seed)

    monkeypatch.setattr(fl, "sample_mu", first_at_roof_min)
    s = sample_flow_measure(sys_b, eig_b, 2000, seed=11)
    assert len(calls) == 2 and calls[1][1] == 11 + 7919
    assert calls[1][0] < calls[0][0]
    assert len(s.xs) == len(s.us) == len(s.rs) == 2000
    assert np.array_equal(s.rs, sys_b.roof_at(s.xs))
    assert np.all(s.us < s.rs)


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
