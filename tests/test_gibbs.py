import math

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import (SYSTEMS, cylinder_list, cylinder_masses, engine,
                      itineraries, mass_layout, mass_levels, mass_tables_loop,
                      partition_walk, suffixes, system, tree_order)
import gibbsflow.system as system_mod
from gibbsflow import gibbs
from gibbsflow.gibbs import (FrequencyTooSmallError, _backward_step, _burn_in,
                             _mass_tables, adapted_partition, gibbs_audit,
                             sample_mu)
from gibbsflow.operator import eigendata, node_grid
from gibbsflow.system import (branch_chain, column_blocks, symbol_trees,
                              validate, word_array)

N = 512


@pytest.fixture(scope="module")
def eig_a():
    return eigendata(system("SYS-A"), 0.0, N=N)


@pytest.fixture(scope="module")
def eig_c():
    return eigendata(system("SYS-C"), 0.0, N=N)


def test_sys_a_dyadic_masses(eig_a):
    table = cylinder_masses(eig_a.system, eig_a, 3)
    assert len(table.cylinders) == 8
    assert np.max(np.abs(table.masses - 0.125)) < 1e-8
    assert table.masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_bernoulli_masses():
    p = 0.3
    sys = system("SYS-A-BERNOULLI")
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


def test_gibbs_audit_sigma_one_constant_roof():
    eig = eigendata(system("SYS-A"), 1.0, N=N)
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
    mass_engines = [engine(sys, words[words[:, -1] == s],
                              nodes[img].reshape(-1), ("J",), eig, True)
                    for s, img in enumerate(images)]
    point_engines = [engine(sys, words[words[:, -1] == s],
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
@pytest.mark.parametrize("name", SYSTEMS)
def test_gibbs_audit_equals_the_audit_by_sorted_x(name, sigma):
    # the mass tables are one column block at these sizes
    sys = system(name)
    eig = eigendata(sys, sigma, N=128)
    assert len(word_array(sys, 6)) * sys.m * eig.N <= system_mod._BUDGET
    assert gibbs_audit(sys, eig, 6) == _audit_by_sorted_x(sys, eig, 6)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", ["SYS-B", "SYS-C", "SYS-C-NLROOF",
                                  "NL-DOUBLING"])
def test_mass_tables_equal_the_per_symbol_loop(name, sigma):
    # column_blocks gives the normaliser and the masses of one engine per
    # symbol zipped by depth, bit for bit, when every depth is shared
    sys = system(name)
    eig = eigendata(sys, sigma, N=128)
    words = word_array(sys, 6)
    assert len(words) * sys.m * eig.N <= system_mod._BUDGET
    elements = np.repeat(np.arange(sys.m), eig.N)
    trees = symbol_trees(sys, words)
    norms = column_blocks(sys, trees, node_grid(sys, eig.N).reshape(-1),
                          sys.transition[:, elements], ("J",), eig,
                          every_depth=True)
    depths = 0
    for k, (masses, (*_, norm), (want_words, want, want_norm)) in enumerate(
            zip(_mass_tables(sys, eig, trees), norms,
                mass_tables_loop(sys, eig, words)), start=1):
        # the tables' rows are the distinct suffixes in tree order
        assert np.array_equal(tree_order(sys, suffixes(words, k)),
                              want_words)
        assert np.array_equal(norm, want_norm.reshape(-1))
        assert np.array_equal(masses, want)
        depths += 1
    assert depths == 6


def _blocked_tables(sys, eig, words, budget, monkeypatch):
    """The mass tables of ``words`` under a budget of ``budget`` values:
    the masses of each depth, the normaliser of each depth over the node
    grid, the blocks' own put side by side in column order, the number of
    shared depths (those yielded before the first column block is cut)
    and the number of column blocks."""
    norms = {}  # depth -> [(block, norm)]
    cut = []    # the depths yielded before each column block
    run, columns = gibbs.column_blocks, system_mod._Run.columns

    def recorded(*args, **kwargs):
        for k, block, blocks, norm in run(*args, **kwargs):
            norms.setdefault(k, []).append((block, norm))
            yield k, block, blocks, norm

    def counted(self, i, j):
        if not cut or cut[-1] != len(norms):
            cut.append(len(norms))
        return columns(self, i, j)

    monkeypatch.setattr(system_mod, "_BUDGET", budget)
    monkeypatch.setattr(gibbs, "column_blocks", recorded)
    monkeypatch.setattr(system_mod._Run, "columns", counted)
    tables = list(_mass_tables(sys, eig, symbol_trees(sys, words)))
    for parts in norms.values():
        assert [b.start for b, _ in parts[1:]] == [b.stop for b, _ in
                                                   parts[:-1]]
    shared = cut[0] if cut else len(norms)
    return (tables, [np.concatenate([n for _, n in norms[k]])
                     for k in sorted(norms)],
            shared, len(norms[max(norms)]) if cut else 0)


@pytest.mark.parametrize("width,boundary", [
    pytest.param(51, None, id="51"), pytest.param(100, None, id="100"),
    pytest.param(None, 1, id="shared-1"), pytest.param(None, 3, id="shared-3"),
    pytest.param(None, 5, id="shared-5")])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", ["SYS-B", "SYS-C", "SYS-C-NLROOF"])
def test_mass_tables_over_column_blocks_equal_the_per_symbol_loop(
        name, sigma, width, boundary, monkeypatch):
    # a budget of ``width`` nodes of the last depth's words runs the deeper
    # depths on 3 to 6 column blocks of the 256 or 384 nodes; a budget of
    # twice the whole level at depth ``boundary`` shares depths
    # 1..boundary over the whole grid and runs the deeper ones on column
    # blocks (one, on SYS-B's full shift at 5, whose next level is twice
    # that one).  The shared depths and the blocks are exactly those of
    # the layout (``mass_layout``), so no block is cut narrower than the
    # budget lets it be.  A node's normaliser is a sum down its column, so
    # it keeps its bits, and so do the words; each mass is a sum over the
    # nodes split into one sum per block, so it moves by rounding alone.
    # At width 51 a block ends one node into a symbol's image, and a lone
    # column is summed row after row, as among others
    sys = system(name)
    eig = eigendata(sys, sigma, N=128)
    words = word_array(sys, 6)
    trees = symbol_trees(sys, words)
    if width is not None:
        budget = width * len(words)
    else:
        budget = 2 * mass_levels(sys, eig, trees)[boundary - 1]
    tables, norms, shared, blocks = _blocked_tables(sys, eig, words, budget,
                                                    monkeypatch)
    assert (shared, blocks) == mass_layout(sys, eig, trees, budget)
    if width is not None:
        assert blocks >= 3 and shared < 6
    else:
        assert shared == boundary and blocks >= 1
    depths = 0
    for masses, norm, (_, want, want_norm) in zip(
            tables, norms, mass_tables_loop(sys, eig, words)):
        assert np.array_equal(norm, want_norm.reshape(-1))
        assert np.max(np.abs(masses - want) / want) <= 1e-14
        depths += 1
    assert depths == 6


def test_shared_depths_run_the_engine_once_per_tree_and_symbol(monkeypatch):
    # a shared depth costs one _prepend call per (tree, first symbol),
    # however many column blocks the deeper depths take; a deeper depth
    # costs one call per block at least
    sys = system("SYS-C-NLROOF")
    eig = eigendata(sys, 0.0, N=64)
    trees = symbol_trees(sys, word_array(sys, 7))
    groups = [sum(len(np.unique(levels[k][0])) for _, levels in trees)
              for k in range(7)]
    level = mass_levels(sys, eig, trees)
    prepend = system_mod._prepend
    calls = {}

    def counted(sys_, i, prev, rows, out, k, *rest):
        calls[k] = calls.get(k, 0) + 1
        return prepend(sys_, i, prev, rows, out, k, *rest)

    monkeypatch.setattr(system_mod, "_prepend", counted)
    blocks = []
    for budget in (2 * level[3], level[3] + level[4]):
        monkeypatch.setattr(system_mod, "_BUDGET", budget)
        calls.clear()
        widths = [block.stop - block.start for k, block, _, _ in
                  system_mod.column_blocks(
                      sys, trees, eig.f.nodes.reshape(-1),
                      sys.transition[:, np.repeat(np.arange(sys.m), eig.N)],
                      ("J",), eig, every_depth=True) if k == 7]
        assert mass_layout(sys, eig, trees, budget) == (4, len(widths))
        blocks.append(len(widths))
        assert [calls[k] for k in range(1, 5)] == groups[:4]
        assert all(calls[k] >= max(groups[k - 1], len(widths))
                   for k in range(5, 8))
    assert blocks[0] > blocks[1] >= 2


def test_gibbs_audit_matches_the_benchmark_reference():
    # the CLI sizes (depth 11, N = 512, sigma 0) of the gibbs-audit steps in
    # perfbench/workloads.py, against perfbench/reference.json at the 1e-12
    # tolerance of its correctness gate
    import json
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    for name in ("SYS-A", "SYS-C-NLROOF"):
        sys = system(name)
        rep = gibbs_audit(sys, eigendata(sys, 0.0, N=512), 11)
        want = ref[f"gibbs-audit:{name}:depth=11"]
        for key in ("C5", "C5_lower", "C5_upper"):
            assert abs(rep[key] - want[key]) <= 1e-12


def test_gibbs_audit_builds_no_cylinders(eig_c, monkeypatch):
    # every cylinder end, of ``cylinders`` and of the partition walk alike,
    # comes from system.cylinder_ends
    import gibbsflow.gibbs as gibbs_mod
    ends = system_mod.cylinder_ends
    calls = []

    def counted(*args):
        calls.append(args)
        return ends(*args)

    monkeypatch.setattr(gibbs_mod, "cylinder_ends", counted)
    monkeypatch.setattr(system_mod, "cylinder_ends", counted)
    system_mod.cylinders(eig_c.system, 2)
    adapted_partition(eig_c.system, 64.0, 1.0)
    assert len(calls) > 1
    calls.clear()
    gibbs_audit(eig_c.system, eig_c, 4)
    assert not calls


def _audit_peak(sys, eig, n):
    """The tracemalloc peak of a depth-n audit, above what was held before."""
    import tracemalloc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gibbs_audit(sys, eig, n)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _block_bytes(sys, eig, n):
    """What the mass tables' engine may hold at once under ``system._BUDGET``
    at depth n, 8 bytes a (word, node) pair: the last shared depth's x over
    the whole node grid, and a column block's last J, at most _BUDGET
    pairs, and its previous x, at most the previous depth's share of them
    (the largest over the symbols).  SYS-C-NLROOF's and SYS-A's potentials
    are constant on each element, so the log weight is a column per word."""
    trees = symbol_trees(sys, word_array(sys, n))
    level = mass_levels(sys, eig, trees)
    shared, blocks = mass_layout(sys, eig, trees, system_mod._BUDGET)
    assert blocks  # the deeper depths run on column blocks
    previous = max(len(levels[-2][0]) / len(levels[-1][0])
                   for _, levels in trees)
    return 8 * (level[shared - 1] + system_mod._BUDGET * (1 + previous))


def _word_bytes(sys, n):
    """One copy of the depth-n words, and per depth the trees' two index
    arrays and the masses: 8 bytes a number."""
    K = [len(word_array(sys, k)) for k in range(1, n + 1)]
    return 8 * (n * K[-1] + 3 * sum(K))


def test_gibbs_audit_holds_the_last_J_and_the_previous_x():
    # the whole-level bound, tightened to one column block: a depth-9 audit
    # holds no more than the last shared depth's x and a block's last J
    # and previous x (``_block_bytes``, 7.4 MiB here, against 26.2 MiB for
    # the last depth's J and the previous x over the whole grid), plus 1
    # MiB for a block's temporaries (2^16 pairs, 0.5 MiB an array) and the
    # word arrays (measured 8.3 MiB against a bound of 8.6 MiB)
    sys = system("SYS-C-NLROOF")
    eig = eigendata(sys, 0.0, N=N)
    gibbs_audit(sys, eig, 2)  # lazily built caches are not the audit's
    peak = _audit_peak(sys, eig, 9)
    bound = _block_bytes(sys, eig, 9) + 2 ** 20 + _word_bytes(sys, 9)
    assert peak <= bound, (peak, bound)


def test_gibbs_audit_peak_is_set_by_a_column_block(monkeypatch):
    # with a budget of 2^17 values, 1 MiB a float64 array, depths 9 and 10
    # of 768 nodes run their deeper depths on column blocks; each peaks
    # below one block (``_block_bytes``) plus 1 MiB of temporaries and the
    # arrays of words and masses, and depth 10 within 1 MiB of depth 9: its
    # words grow, its block does not (measured 2.7 and 2.7 MiB against
    # bounds of 3.0 and 3.4 MiB; 3.1 and 4.0 MiB before the shared depths
    # and with every depth's words kept)
    sys = system("SYS-C-NLROOF")
    eig = eigendata(sys, 0.0, N=256)
    gibbs_audit(sys, eig, 2)  # lazily built caches are not the audit's
    monkeypatch.setattr(system_mod, "_BUDGET", 1 << 17)
    peaks = {}
    for n in (9, 10):
        peaks[n] = _audit_peak(sys, eig, n)
        bound = _block_bytes(sys, eig, n) + 2 ** 20 + _word_bytes(sys, n)
        assert peaks[n] <= bound, (n, peaks[n], bound)
    assert peaks[10] - peaks[9] <= 2 ** 20, peaks


def test_deep_sys_a_audit_holds_one_block_and_one_copy_of_the_words():
    # depth 14 on SYS-A: 16,384 words of 14 symbols.  The trees hold no
    # words and the tables keep masses alone, so past one block the audit
    # holds one copy of the words, the trees' index arrays and the masses
    # (measured 9.4 MiB against a bound of 11.5 MiB; a second copy of the
    # words, or every depth's words, would add 1.75 and 3.25 MiB)
    sys = system("SYS-A")
    eig = eigendata(sys, 0.0, N=N)
    gibbs_audit(sys, eig, 2)  # lazily built caches are not the audit's
    peak = _audit_peak(sys, eig, 14)
    bound = _block_bytes(sys, eig, 14) + 2 ** 20 + _word_bytes(sys, 14)
    assert peak <= bound, (peak, bound)


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
    chains = -(-count // 32)
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


def test_burn_in_certifies_double_precision(sys_b, nl_doubling):
    # inf |T'| = 2 on SYS-B; on NL-DOUBLING Lambda_d^(1/d) = 1.2460, 1.6635,
    # 1.6286, 1.6995 for d = 1..4, and d = 4 certifies 18 runs of 4 steps,
    # 72 steps (d = 1 alone, ceil(53 / log2(2 - 0.24 pi)), needs 168)
    assert _burn_in(sys_b) == 53
    assert [round(big ** (1 / d), 4) for d, big in
            enumerate(nl_doubling.expansion, start=1)] == [
                1.2460, 1.6635, 1.6286, 1.6995]
    assert _burn_in(nl_doubling) == 72


@pytest.mark.parametrize("name", SYSTEMS)
def test_burn_in_is_at_most_the_one_step_bound(name):
    # d = 1 alone gives ceil(53 / log2 lam); every preset's branches are
    # affine with |slope| >= 2 on every element, so no run of steps does
    # better there
    sys = system(name)
    one_step = math.ceil(53 / math.log2(sys.constants.lam))
    assert sys.expansion[0] == sys.constants.lam
    assert _burn_in(sys) <= one_step
    if all(piece.slope is not None for piece in sys.T):
        assert _burn_in(sys) == one_step


@pytest.mark.parametrize("name", ["NL-DOUBLING", "THREE"])
def test_burn_in_orbits_expand_past_double_precision(name):
    # independently of the scan: along the forward orbits of 10^4 random
    # points, prod_{j<k} |T'(T^j x)| >= 2^53 at k = _burn_in
    sys = system(name)
    x = np.random.default_rng(43).random(10_000)
    log2_jacobian = np.zeros_like(x)
    for _ in range(_burn_in(sys)):
        elem = sys.element_of(x)
        for i in range(sys.m):
            at = elem == i
            log2_jacobian[at] += np.log2(np.abs(sys.T[i].deriv(x=x[at])))
        x = sys.apply_T(x)
    assert log2_jacobian.min() >= 53, log2_jacobian.min()


@pytest.fixture(scope="module")
def sampler_eigs(eig_c, nl_doubling):
    """Eigendata of the systems the sampler tests run on, by id: SYS-B,
    full-branch with constant f; SYS-C, not full-branch; at sigma != 0 the
    roof enters the weights, on SYS-C-NLROOF not full-branch either; TENT
    and THREE have a decreasing branch, THREE's non-full."""
    eigs = {name: eigendata(sys, sigma, N=256) for name, sys, sigma in (
        ("SYS-B", system("SYS-B"), 0.0),
        ("NL-DOUBLING", nl_doubling, 0.0),
        ("TENT", system("TENT"), 0.0),
        ("SYS-C-NLROOF-1", system("SYS-C-NLROOF"), 1.0),
        ("TENT-0.5", system("TENT"), 0.5),
        ("THREE", system("THREE"), 0.0),
        ("THREE-0.5", system("THREE"), 0.5))}
    return {"SYS-C": eig_c, **eigs}


def test_three_element_system_validates(sampler_eigs):
    sys = sampler_eigs["THREE"].system
    assert validate(sys).ok
    assert sys.increasing.tolist() == [True, False, True]
    assert not sys.transition[1].all()


@pytest.mark.parametrize("count", [40, 3000])
def test_sampler_equals_per_branch_steps(sampler_eigs, count):
    for eig in sampler_eigs.values():
        got = sample_mu(eig.system, eig, count, seed=7)
        want = _per_branch_sampler(eig.system, eig, count, seed=7)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [1, 32, 33, 1000, 3000])
def test_sampler_emits_at_most_32_states_per_chain(sampler_eigs, count,
                                                   monkeypatch):
    # ceil(count / 32) chains, each stepped burn-in + 10 * emits times
    eig = sampler_eigs["NL-DOUBLING"]
    widths = []

    def recording_step(sys, eig, x):
        widths.append(len(x))
        return _backward_step(sys, eig, x)

    monkeypatch.setattr(gibbs, "_backward_step", recording_step)
    xs = sample_mu(eig.system, eig, count, seed=7)
    chains = math.ceil(count / 32)
    emits, rest = divmod(len(widths) - _burn_in(eig.system), 10)
    assert len(xs) == count and set(widths) == {chains}
    assert rest == 0 and emits == math.ceil(count / chains) <= 32


@pytest.mark.parametrize("name", ["SYS-B", "NL-DOUBLING", "TENT-0.5", "SYS-C",
                                  "SYS-C-NLROOF-1", "THREE"])
def test_sampler_hands_each_step_ascending_states(sampler_eigs, name,
                                                  monkeypatch):
    # no value depends on the order, so only this test sees it
    eig = sampler_eigs[name]
    steps = []

    def recording_step(sys, eig, x):
        steps.append(bool(np.all(np.diff(x) >= 0)))
        return _backward_step(sys, eig, x)

    monkeypatch.setattr(gibbs, "_backward_step", recording_step)
    sample_mu(eig.system, eig, count=3000, seed=7)
    assert steps and all(steps)


@pytest.mark.parametrize("name", ["SYS-B", "SYS-C-NLROOF"])
def test_backward_step_reads_the_roof_only_at_nonzero_sigma(name, expr_calls):
    sys = system(name)
    x = np.linspace(0.0, 1.0, 101, endpoint=False)
    for sigma, expected in ((0.0, 0), (1.0, sys.m)):
        eig = eigendata(sys, sigma, N=64)
        expr_calls.clear()
        _backward_step(sys, eig, x)
        assert expr_calls.of([p.expr for p in sys.r]) == expected


def test_transition_weights_values():
    # SYS-C-NLROOF at sigma = 1: the weights vary with the preimage
    eig = eigendata(system("SYS-C-NLROOF"), 1.0, N=N)
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
def test_sampler_depth6_frequencies_chi_square(name, sigma):
    # phi - sigma r is not constant here, so the law of a depth-k word seen
    # from a fixed start point differs from its mu-mass
    sys = system(name)
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
    sys = system("SYS-A")
    part = adapted_partition(sys, 64.0, 1.0)
    assert np.array_equal(part.left, np.arange(32) / 32)
    assert np.array_equal(part.right, np.arange(1, 33) / 32)


def test_adapted_partition_precondition():
    with pytest.raises(FrequencyTooSmallError):
        adapted_partition(system("SYS-A"), 1.0, 1.0)


# adapted_partition reads a system's map alone, and SYS-B, SYS-A-BERNOULLI
# and SYS-A-LINROOF share SYS-A's, so of these four the dearest case,
# (1024, 1), runs on SYS-A alone.  Every mutation of adapted_partition that
# a left-out case caught (a chunk's slice end off by one either way,
# ``small = ~big``) fails every kept case, and ``refined`` indexed by the
# global parent fails the NL-DOUBLING cases alone.  On SYS-C at b = 96 a
# child's length, its ends out of root solves, falls within the slack below
# t = 1/48: without the slack the partition has 35 elements, not 36
WALK_CASES = [(name, b, Delta)
              for name in SYSTEMS
              for b, Delta in [(256.0, 1.0), (1024.0, 1.0), (1024.0, 0.05)]
              if (b, Delta) != (1024.0, 1.0)
              or name not in ("SYS-B", "SYS-A-BERNOULLI", "SYS-A-LINROOF")
              ] + [("SYS-C", 96.0, 1.0)]


@pytest.mark.parametrize("name,b,Delta", WALK_CASES)
def test_adapted_partition_equals_the_walk_over_whole_levels(name, b, Delta,
                                                             monkeypatch):
    # the level walk pulls back only the children of cylinders still too
    # long, a chunk of open cylinders at a time; its ends keep the bits of
    # the walk over every cylinder of every level it visits, which
    # determine the depths, at the default chunk (every level here is one
    # chunk) and at smaller ones (at Delta = 0.05 the levels reach 8,192
    # open cylinders, so 1,000 splits them), since a root does not depend
    # on what else its solve holds
    import gibbsflow.gibbs as gibbs_mod
    sys = system(name)
    want = partition_walk(sys, b, Delta)
    left = np.array([q.left for q in want])
    right = np.array([q.right for q in want])
    for chunk in (gibbs_mod._CHUNK, 1, 3) if Delta == 1.0 else (
            gibbs_mod._CHUNK, 1000):
        monkeypatch.setattr(gibbs_mod, "_CHUNK", chunk)
        part = adapted_partition(sys, b, Delta)
        assert np.array_equal(part.left, left)
        assert np.array_equal(part.right, right)


def test_adapted_partition_past_a_full_level_cap():
    # all 3,015,168 depth-18 words of SYS-C exceed the word cap, but the
    # cylinders still >= t at depth 17 have few children: the walk over
    # whole levels raised CapExceededError here after 13 s and 1.3 GB
    b, Delta = 4096.0, 0.01
    t = 2 * Delta / b
    part = adapted_partition(system("SYS-C-NLROOF"), b, Delta)
    diam = part.right - part.left
    assert diam.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(diam >= t - t * 1e-9)
    # consecutive elements tile [0, 1] up to rounding
    assert np.max(np.abs(part.left[1:] - part.right[:-1])) <= 1e-15
    # the deepest elements have depth 17: T^k along an element's own
    # branches maps a depth-d cylinder onto an element first at k = d - 1
    sys = system("SYS-C")
    lo, hi = part.left.copy(), part.right.copy()
    depth = np.zeros(len(lo), dtype=int)
    for d in range(1, 19):
        e = sys.element_of((lo + hi) / 2)
        onto = (np.abs(lo - sys.partition[e]) < 1e-6) \
            & (np.abs(hi - sys.partition[e + 1]) < 1e-6)
        depth[onto & (depth == 0)] = d
        for i in range(sys.m):
            lo[e == i] = sys.T[i].value(x=lo[e == i])
            hi[e == i] = sys.T[i].value(x=hi[e == i])
    assert depth.min() >= 1 and depth.max() == 17
