import math

import numpy as np
import pytest
from scipy.stats import chi2

from gibbsflow.gibbs import (
    BracketFailureError, FrequencyTooSmallError, _burn_in, adapted_partition,
    cylinder_masses, federer_audit, gibbs_audit, measure_of_interval,
    normalize_flow_potential, sample_mu, transition_weights,
)
from gibbsflow.operator import eigendata
from gibbsflow.presets import make_preset
from gibbsflow.system import itineraries

N = 512


@pytest.fixture(scope="module")
def eig_a():
    return eigendata(make_preset("SYS-A"), 0.0, N=N)


@pytest.fixture(scope="module")
def eig_c():
    return eigendata(make_preset("SYS-C"), 0.0, N=N)


def test_sys_a_dyadic_masses(eig_a):
    table = cylinder_masses(eig_a.system, eig_a, 3)
    assert len(table.cylinders) == 8
    assert np.max(np.abs(table.masses - 0.125)) < 1e-8
    assert table.total == pytest.approx(1.0, abs=1e-9)


def test_bernoulli_masses():
    p = 0.3
    sys = make_preset("SYS-A-BERNOULLI")
    eig = eigendata(sys, 0.0, N=N)
    table = cylinder_masses(sys, eig, 3)
    for c, m in zip(table.cylinders, table.masses):
        expect = math.prod(p if s == 0 else 1 - p for s in c.word)
        assert m == pytest.approx(expect, rel=1e-8)


def test_mass_additivity(eig_c):
    t1 = cylinder_masses(eig_c.system, eig_c, 1)
    t2 = cylinder_masses(eig_c.system, eig_c, 2)
    assert t2.total == pytest.approx(1.0, abs=1e-10)
    for c1, m1 in zip(t1.cylinders, t1.masses):
        children = sum(m for c, m in zip(t2.cylinders, t2.masses)
                       if c.word[0] == c1.word[0])
        assert children == pytest.approx(m1, abs=5e-5)


def test_gibbs_audit_sys_a(eig_a):
    rep = gibbs_audit(eig_a.system, eig_a, 6)
    assert rep["C5_lower"] > 1 - 1e-6
    assert rep["C5_upper"] < 1 + 1e-6


def test_gibbs_audit_sigma_one_constant_roof():
    eig = eigendata(make_preset("SYS-A"), 1.0, N=N)
    rep = gibbs_audit(eig.system, eig, 5)
    assert rep["C5_lower"] > 1 - 1e-6
    assert rep["C5_upper"] < 1 + 1e-6


def test_gibbs_audit_bounded_sys_c(eig_c):
    rep = gibbs_audit(eig_c.system, eig_c, 8)
    assert rep["C5"] < 10.0
    # cumulative two-sided band grows with depth and stays bounded
    prev = 0.0
    band = 0.0
    for n in sorted(rep["per_depth"]):
        lo, hi = rep["per_depth"][n]
        band = max(band, hi, 1 / lo)
        assert band >= prev - 1e-12
        prev = band


def test_transition_weights_normalized(eig_c):
    for x in (0.1, 0.37, 0.62, 0.9):
        w = transition_weights(eig_c.system, eig_c, x)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-10)


def test_sampler_lebesgue(eig_a):
    xs = sample_mu(eig_a.system, eig_a, 100_000, seed=11)
    frac = float(np.mean(xs < 0.5))
    assert frac == pytest.approx(0.5, abs=0.01)


def test_sampler_matches_masses_depth2(eig_c):
    sys = eig_c.system
    xs = sample_mu(sys, eig_c, 50_000, seed=4)
    table = cylinder_masses(sys, eig_c, 2)
    words = itineraries(sys, xs, 2)
    n = len(words)
    for c, m in zip(table.cylinders, table.masses):
        freq = float(np.mean(np.all(words == np.array(c.word), axis=1)))
        se = math.sqrt(m * (1 - m) / n)
        assert abs(freq - m) < 3 * se + 1e-12


def test_sampler_seed_stability(eig_a):
    a = sample_mu(eig_a.system, eig_a, 1000, seed=5)
    b = sample_mu(eig_a.system, eig_a, 1000, seed=5)
    assert np.array_equal(a, b)
    c = sample_mu(eig_a.system, eig_a, 1000, seed=6)
    assert not np.array_equal(a, c)


def _per_branch_sampler(sys, eig, count, seed):
    """The sampler one branch at a time, f evaluated per branch, from the
    mu_N start with the certified burn-in."""
    chains = int(min(max(1, count // 64), 4096))
    per = -(-count // chains)
    rng = np.random.default_rng(seed)
    x = rng.choice(eig.f.nodes.reshape(-1), size=chains, p=eig.mu.reshape(-1))
    f = eig.f.eval

    def step(x):
        elem = sys.element_of(x)
        weights = np.zeros((sys.m, len(x)))
        ys = np.zeros((sys.m, len(x)))
        for i in range(sys.m):
            mask = sys.transition[i, elem]
            if not np.any(mask):
                continue
            y = sys.inverse_branch(i, x[mask])
            ys[i, mask] = y
            weights[i, mask] = (
                np.exp(sys._phi[i](x=y) - eig.sigma * sys._r[i](x=y))
                * f(y).real)
        weights /= weights.sum(axis=0)
        u = rng.random(len(x))
        choice = (np.cumsum(weights, axis=0) < u[None, :]).sum(axis=0)
        choice = np.minimum(choice, sys.m - 1)
        return ys[choice, np.arange(len(x))]

    for _ in range(_burn_in(sys, eig)):
        x = step(x)
    out = np.empty((per, chains))
    for k in range(per):
        for _ in range(10):
            x = step(x)
        out[k] = x
    return out.reshape(-1)[:count]


def test_burn_in_certifies_double_precision(nl_doubling):
    # ceil(53 / log2 inf|T'|): inf|T'| = 2 on SYS-B, 2 - 0.24 pi on NL-DOUBLING
    sys_b = make_preset("SYS-B")
    assert _burn_in(sys_b, eigendata(sys_b, 0.0, N=256)) == 53
    assert _burn_in(nl_doubling, eigendata(nl_doubling, 0.0, N=256)) == 168


@pytest.mark.parametrize("count", [40, 3000])
def test_sampler_equals_per_branch_steps(eig_c, nl_doubling, count):
    eig_nl = eigendata(nl_doubling, 0.0, N=256)
    for eig in (eig_c, eig_nl):
        got = sample_mu(eig.system, eig, count, seed=7)
        want = _per_branch_sampler(eig.system, eig, count, seed=7)
        assert np.array_equal(got, want)


def test_transition_weights_values():
    # SYS-C-NLROOF at sigma = 1: the weights vary with the preimage
    eig = eigendata(make_preset("SYS-C-NLROOF"), 1.0, N=N)
    sys = eig.system
    for x in (0.1, 0.37, 0.62, 0.9):
        w = transition_weights(sys, eig, x)
        assert sorted(w) == sys.admissible_branches(x)
        raw = {}
        for i in w:
            y = sys.inverse_branch(i, np.array([x]))
            raw[i] = float((np.exp(-sys._r[i](x=y)) * eig.f.eval(y).real)[0])
        total = sum(raw.values())
        for i in w:
            assert w[i] == pytest.approx(raw[i] / total, rel=1e-14)


@pytest.mark.parametrize("name,sigma", [("NL-DOUBLING", 0.0),
                                        ("SYS-C-NLROOF", 1.0)])
def test_sampler_depth6_frequencies_chi_square(nl_doubling, name, sigma):
    # phi - sigma r is not constant here, so the law of a depth-k word seen
    # from a fixed start point differs from its mu-mass
    sys = nl_doubling if name == "NL-DOUBLING" else make_preset(name)
    eig = eigendata(sys, sigma, N=512)
    count = 100_000
    xs = sample_mu(sys, eig, count, seed=21)
    table = cylinder_masses(sys, eig, 6)
    words = itineraries(sys, xs, 6)
    row = {c.word: k for k, c in enumerate(table.cylinders)}
    observed = np.bincount([row[tuple(w)] for w in words.tolist()],
                           minlength=len(table.cylinders))
    expected = count * table.masses
    assert expected.min() > 5
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert stat < chi2.isf(1e-4, len(expected) - 1)


def test_adapted_partition_sys_a_b64():
    sys = make_preset("SYS-A")
    part = adapted_partition(sys, 64.0, 1.0)
    assert all(c.depth == 5 for c in part.elements)
    assert part.count == 32
    for q in part.elements:
        assert 2 / 64 - 1e-12 <= q.diam <= 2 * 2 / 64 + 1e-12
    # deterministic
    part2 = adapted_partition(sys, 64.0, 1.0)
    assert [c.word for c in part2.elements] == [c.word for c in part.elements]


def test_adapted_partition_bounds_sys_c():
    sys = make_preset("SYS-C")
    rho = 3.0
    for b in (128.0, 512.0):
        part = adapted_partition(sys, b, 1.0)
        covered = 0.0
        for q in part.elements:
            assert 2 / b - 1e-12 <= q.diam <= 2 * rho / b + 1e-12
            covered += q.diam
        assert covered == pytest.approx(1.0, abs=1e-9)
        assert part.count <= b / 2 + 1


def test_adapted_partition_precondition():
    with pytest.raises(FrequencyTooSmallError):
        adapted_partition(make_preset("SYS-A"), 1.0, 1.0)


def test_measure_of_interval_lebesgue(eig_a):
    for lo, hi in ((0.0, 0.25), (0.1, 0.35), (0.7, 0.93)):
        assert measure_of_interval(eig_a.system, eig_a, lo, hi) == pytest.approx(
            hi - lo, abs=2e-3 * (hi - lo) + 1e-6)


def test_federer_audit_sys_a(eig_a):
    b, Delta, delta = 64.0, 1.0, 0.5
    rep = federer_audit(eig_a.system, eig_a, b, Delta, delta, K=1.0)
    # Lebesgue: gamma is the worst length ratio (2 delta/b) / diam(Q)
    part = adapted_partition(eig_a.system, b, Delta)
    expect = min((2 * delta / b) / q.diam for q in part.elements)
    assert rep["gamma"] == pytest.approx(expect, rel=0.02)
    assert rep["gamma"] >= delta / (Delta * 2.0) * 0.98  # >= delta/(Delta rho)
    assert rep["gamma"] <= 1.0
    assert rep["delta_prime"] == pytest.approx(
        rep["gamma"] * math.exp(-1.0 * (2 * Delta * 2.0)), rel=1e-12)


def test_federer_positive_sys_c(eig_c):
    rep = federer_audit(eig_c.system, eig_c, 256.0, 1.0, 0.5, K=1.0)
    assert 0 < rep["gamma"] <= 1.0
    assert 0 < rep["gamma_left"] <= 1.0


def test_normalize_flow_potential_sys_a():
    p_star, norm = normalize_flow_potential(make_preset("SYS-A"), N=128)
    assert p_star == pytest.approx(math.log(2.0), abs=1e-9)
    assert eigendata(norm, 0.0, N=128).lam == pytest.approx(1.0, abs=1e-9)


def test_normalize_flow_potential_sys_b_bracket():
    p_star, norm = normalize_flow_potential(make_preset("SYS-B"), N=128)
    assert math.log(2.0) < p_star < 3 * math.log(2.0)
    assert eigendata(norm, 0.0, N=128).lam == pytest.approx(1.0, abs=1e-8)
