import math

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import (NL_DOUBLING, cylinder_list, cylinder_masses,
                      itineraries, mass_tables_loop, partition_walk)
from gibbsflow.gibbs import (FrequencyTooSmallError, _backward_step, _burn_in,
                             _mass_tables, adapted_partition, gibbs_audit,
                             sample_mu)
from gibbsflow.operator import eigendata, node_grid
from gibbsflow.presets import PRESETS, make_preset
from gibbsflow.system import (branch_chain, pullbacks, symbol_pullbacks,
                              system_from_config, word_array)

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
    assert table.masses.sum() == pytest.approx(1.0, abs=1e-9)


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
    assert t2.masses.sum() == pytest.approx(1.0, abs=1e-10)
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


def test_gibbs_audit_reference_point(nl_doubling):
    # S_n(phi - sigma r) at x_omega = h_omega(midpoint of its domain),
    # summed along the forward orbit of x_omega; on these nonlinear branches
    # x_omega is not the cylinder midpoint, and the sums vary with omega, so
    # a sum paired with another cylinder's mass fails too
    sys = nl_doubling
    eig = eigendata(sys, 0.5, N=256)
    rep = gibbs_audit(sys, eig, 4)
    for n in range(1, 5):
        table = cylinder_masses(sys, eig, n)
        ratios = []
        for c, mass in zip(table.cylinders, table.masses):
            y = 0.5 * sum(sys.image_interval(c.word[-1]))
            z = branch_chain(sys, c.word, y)["x"]
            s = 0.0
            for _ in range(n):
                s += float(sys._piecewise(sys.phi, z)[0]
                           - eig.sigma * sys.roof_at(z)[0])
                z = sys.apply_T(z)
            ratios.append(mass / math.exp(-eig.pressure * n + s))
        assert rep["per_depth"][n] == pytest.approx((min(ratios), max(ratios)),
                                                    rel=1e-9)


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


def _audit_by_sorted_x(sys, eig, max_depth):
    """The Gibbs audit laid out by cylinders: at every depth the masses are
    written into the rows of ``cylinder_list(sys, n)`` through a word -> row
    dict, and the orbit sums are lined up with them by sorting the
    reference points x_omega, which lie one in each cylinder."""
    nodes = node_grid(sys, eig.N)
    words = word_array(sys, max_depth)
    images = [slice(*image) for image in sys.images]
    mass_engines = [pullbacks(sys, words[words[:, -1] == s],
                              nodes[img].reshape(-1), ("J",), eig, True)
                    for s, img in enumerate(images)]
    point_engines = [pullbacks(sys, words[words[:, -1] == s],
                               [0.5 * sum(sys.image_interval(s))],
                               ("x", "Snr", "Snphi"), None, True)
                     for s in range(sys.m)]
    lo, hi, per_depth = np.inf, 0.0, {}
    for n, (levels, points) in enumerate(zip(zip(*mass_engines),
                                             zip(*point_engines)), start=1):
        cyls = cylinder_list(sys, n)
        norm = np.zeros((sys.m, eig.N))
        for img, pb in zip(images, levels):
            norm[img] += pb.J.sum(axis=0).reshape(-1, eig.N)
        row = {c.word: k for k, c in enumerate(cyls)}
        masses = np.zeros(len(cyls))
        for img, pb in zip(images, levels):
            per_word = pb.J @ (eig.mu[img] / norm[img]).reshape(-1)
            masses[[row[tuple(w)] for w in pb.words.tolist()]] = per_word
        x = np.concatenate([pb.x[:, 0] for pb in points])
        sn = np.concatenate([(pb.Snphi - eig.sigma * pb.Snr)[:, 0]
                             for pb in points])
        ratios = masses / np.exp(-eig.pressure * n + sn[np.argsort(x)])
        per_depth[n] = (float(ratios.min()), float(ratios.max()))
        lo, hi = min(lo, per_depth[n][0]), max(hi, per_depth[n][1])
    return {"C5_lower": lo, "C5_upper": hi, "C5": float(max(hi, 1.0 / lo)),
            "per_depth": per_depth}


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", sorted(PRESETS) + ["NL-DOUBLING"])
def test_gibbs_audit_equals_the_audit_by_sorted_x(name, sigma, nl_doubling):
    sys = nl_doubling if name == "NL-DOUBLING" else make_preset(name)
    eig = eigendata(sys, sigma, N=128)
    assert gibbs_audit(sys, eig, 6) == _audit_by_sorted_x(sys, eig, 6)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", ["SYS-B", "SYS-C", "SYS-C-NLROOF",
                                  "NL-DOUBLING"])
def test_mass_tables_equal_the_per_symbol_loop(name, sigma, nl_doubling):
    # symbol_pullbacks gives the words, the normaliser and the masses of one
    # engine per symbol zipped by depth, bit for bit
    sys = nl_doubling if name == "NL-DOUBLING" else make_preset(name)
    eig = eigendata(sys, sigma, N=128)
    words = word_array(sys, 6)
    elements = np.repeat(np.arange(sys.m), eig.N)
    norms = symbol_pullbacks(sys, words, node_grid(sys, eig.N).reshape(-1),
                             sys.transition[:, elements], ("J",), eig,
                             every_depth=True)
    depths = 0
    for (got_words, masses), (_, norm), (want_words, want, want_norm) in zip(
            _mass_tables(sys, eig, words), norms,
            mass_tables_loop(sys, eig, words)):
        assert np.array_equal(got_words, want_words)
        assert np.array_equal(norm, want_norm.reshape(-1))
        assert np.array_equal(masses, want)
        depths += 1
    assert depths == 6


def test_gibbs_audit_matches_the_benchmark_reference():
    # the CLI sizes (depth 11, N = 512, sigma 0) of the gibbs-audit steps in
    # perfbench/workloads.py, against perfbench/reference.json at the 1e-12
    # tolerance of its correctness gate
    import json
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    for name in ("SYS-A", "SYS-C-NLROOF"):
        sys = make_preset(name)
        rep = gibbs_audit(sys, eigendata(sys, 0.0, N=512), 11)
        want = ref[f"gibbs-audit:{name}:depth=11"]
        for key in ("C5", "C5_lower", "C5_upper"):
            assert abs(rep[key] - want[key]) <= 1e-12


def test_gibbs_audit_builds_no_cylinders(eig_c, monkeypatch):
    # every cylinder end, of ``cylinders`` and of the partition walk alike,
    # comes from system._cylinder_ends
    import gibbsflow.gibbs as gibbs_mod
    import gibbsflow.system as system_mod
    ends = system_mod._cylinder_ends
    calls = []

    def counted(*args):
        calls.append(args)
        return ends(*args)

    monkeypatch.setattr(gibbs_mod, "_cylinder_ends", counted)
    monkeypatch.setattr(system_mod, "_cylinder_ends", counted)
    system_mod.cylinders(eig_c.system, 2)
    adapted_partition(eig_c.system, 64.0, 1.0)
    assert len(calls) > 1
    calls.clear()
    gibbs_audit(eig_c.system, eig_c, 4)
    assert not calls


def test_transition_weights_normalized(eig_c):
    for x in (0.1, 0.37, 0.62, 0.9):
        _, w = _backward_step(eig_c.system, eig_c, np.array([x]))
        assert w[:, 0].sum() == pytest.approx(1.0, abs=1e-10)


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
                np.exp(sys.phi[i].value(x=y) - eig.sigma * sys.r[i].value(x=y))
                * f(y).real)
        weights /= weights.sum(axis=0)
        u = rng.random(len(x))
        choice = (np.cumsum(weights, axis=0) < u[None, :]).sum(axis=0)
        choice = np.minimum(choice, sys.m - 1)
        return ys[choice, np.arange(len(x))]

    for _ in range(_burn_in(sys)):
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
    assert _burn_in(sys_b) == 53
    assert _burn_in(nl_doubling) == 168


# the tent map: a decreasing branch, so a row of preimages taken in the
# order of x runs downwards
TENT = {"partition": [0.0, 0.5, 1.0],
        "branches": [{"expr": "2*x", "image": [0, 2]},
                     {"expr": "2-2*x", "image": [0, 2]}],
        "roof": ["(2+cos(2*pi*x))/3"] * 2,
        "potential": ["0.3*sin(2*pi*x)"] * 2}


@pytest.mark.parametrize("count", [40, 3000])
def test_sampler_equals_per_branch_steps(eig_c, nl_doubling, count):
    # SYS-B: full-branch with constant f; SYS-C: not full-branch; at
    # sigma != 0 the roof enters the weights, on SYS-C-NLROOF not
    # full-branch either
    eigs = [eigendata(sys, sigma, N=256)
            for sys, sigma in ((make_preset("SYS-B"), 0.0), (nl_doubling, 0.0),
                               (system_from_config(TENT), 0.0),
                               (make_preset("SYS-C-NLROOF"), 1.0),
                               (system_from_config(TENT), 0.5))]
    for eig in [eig_c] + eigs:
        got = sample_mu(eig.system, eig, count, seed=7)
        want = _per_branch_sampler(eig.system, eig, count, seed=7)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["SYS-B", "SYS-C-NLROOF"])
def test_backward_step_reads_the_roof_only_at_nonzero_sigma(name, expr_calls):
    sys = make_preset(name)
    x = np.linspace(0.0, 1.0, 101, endpoint=False)
    for sigma, expected in ((0.0, 0), (1.0, sys.m)):
        eig = eigendata(sys, sigma, N=64)
        expr_calls.clear()
        _backward_step(sys, eig, x)
        assert expr_calls.of([p.expr for p in sys.r]) == expected


def test_transition_weights_values():
    # SYS-C-NLROOF at sigma = 1: the weights vary with the preimage
    eig = eigendata(make_preset("SYS-C-NLROOF"), 1.0, N=N)
    sys = eig.system
    for x in (0.1, 0.37, 0.62, 0.9):
        _, w = _backward_step(sys, eig, np.array([x]))
        # nonzero exactly on the branches admissible at x
        admissible = np.flatnonzero(sys.transition[:, sys.element_of(x)])
        assert np.flatnonzero(w[:, 0]).tolist() == admissible.tolist()
        raw = {}
        for i in admissible:
            y = sys.inverse_branch(i, np.array([x]))
            raw[i] = float((np.exp(-sys.r[i].value(x=y)) * eig.f.eval(y).real)[0])
        total = sum(raw.values())
        for i in admissible:
            assert w[i, 0] == pytest.approx(raw[i] / total, rel=1e-14)


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
    assert np.array_equal(part.depth, np.full(32, 5))
    assert np.array_equal(part.left, np.arange(32) / 32)
    assert np.array_equal(part.right, np.arange(1, 33) / 32)


def test_adapted_partition_bounds_sys_c():
    sys = make_preset("SYS-C")
    rho = 3.0
    for b in (128.0, 512.0):
        part = adapted_partition(sys, b, 1.0)
        diam = part.right - part.left
        assert np.all(2 / b - 1e-12 <= diam)
        assert np.all(diam <= 2 * rho / b + 1e-12)
        assert diam.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(diam) <= b / 2 + 1


def test_adapted_partition_precondition():
    with pytest.raises(FrequencyTooSmallError):
        adapted_partition(make_preset("SYS-A"), 1.0, 1.0)


@pytest.mark.parametrize("b,Delta", [(256.0, 1.0), (1024.0, 1.0),
                                     (1024.0, 0.05)])
@pytest.mark.parametrize("name", sorted(PRESETS) + ["NL-DOUBLING"])
def test_adapted_partition_equals_the_walk_over_whole_levels(name, b, Delta):
    # the level walk pulls back only the children of cylinders still too
    # long; its ends and depths keep the bits of the walk over every
    # cylinder of every level it visits
    sys = (system_from_config(NL_DOUBLING) if name == "NL-DOUBLING"
           else make_preset(name))
    part = adapted_partition(sys, b, Delta)
    want = partition_walk(sys, b, Delta)
    assert np.array_equal(part.left, [q.left for q in want])
    assert np.array_equal(part.right, [q.right for q in want])
    assert np.array_equal(part.depth, [q.depth for q in want])


def test_adapted_partition_past_a_full_level_cap():
    # all 3,015,168 depth-18 words of SYS-C exceed the word cap, but the
    # cylinders still >= t at depth 17 have few children: the walk over
    # whole levels raised CapExceededError here after 13 s and 1.3 GB
    b, Delta = 4096.0, 0.01
    t = 2 * Delta / b
    part = adapted_partition(make_preset("SYS-C-NLROOF"), b, Delta)
    diam = part.right - part.left
    assert diam.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(diam >= t - t * 1e-9)
    # consecutive elements tile [0, 1] up to rounding
    assert np.max(np.abs(part.left[1:] - part.right[:-1])) <= 1e-15
    assert part.depth.max() == 17
