import importlib
import itertools
import math

import numpy as np
import pytest

from conftest import (SYSTEMS, column_layout, cylinder_list,
                      cylinder_masses, element_sets, engine, jacobian_weight,
                      mass_layout, preset_config, suffixes, system)
from gibbsflow.gibbs import gibbs_audit
from gibbsflow.operator import (BranchPlan, deep_apply, eigendata,
                                lagrange_step, node_grid)
from gibbsflow.presets import preset_names
from gibbsflow.gibbs import _mass_tables
from gibbsflow.system import (
    FIELDS, CapExceededError, MarkovSystem, NoConvergenceError,
    NotCoveringError, NotMarkovError, OutsideImageError, _suffix_tree,
    branch_chain, column_blocks, cylinders, pullback, sampled_seminorm,
    symbol_trees, system_from_config, validate, word_array,
)
from gibbsflow.uni import check_uni

def test_presets_validate():
    for name in preset_names():
        sys = system(name)
        assert validate(sys).ok
        c = sys.constants
        assert c.lam > 1
        assert c.roof_inf > 0 and c.roof_sup <= 1 + 1e-12


def test_sys_a_constants():
    sys = system("SYS-A")
    c = sys.constants
    assert c.lam == pytest.approx(2.0, abs=1e-12)
    assert c.rho == pytest.approx(2.0, abs=1e-12)
    assert c.c4 == pytest.approx(0.0, abs=1e-14)
    assert validate(sys).c2 == pytest.approx(0.0, abs=1e-10)


def test_sys_b_c4():
    # sup |D(r o h)| = sup |r'| / inf |T'| = (2 pi / 3) / 2 = pi / 3
    assert system("SYS-B").constants.c4 == pytest.approx(math.pi / 3,
                                                              rel=1e-5)


def test_sys_c_structure():
    sys = system("SYS-C")
    assert validate(sys).ok
    assert sys.constants.lam == pytest.approx(2.0, abs=1e-12)
    assert sys.constants.rho == pytest.approx(3.0, abs=1e-12)
    # depth-2 words: 11,12,13 from symbol 0; 22,23 from symbol 1; 31,32 from 2
    words = cylinders(sys, 2)[0].tolist()
    assert words == [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 0], [2, 1]]


def test_system_constants_sys_b_closed_forms():
    # |T'| = 2, r = (2 + cos 2 pi x)/3: C4 = sup |r'| / 2 = pi/3, C7 =
    # max{2 C4 rho / (1 - 1/lam), (1 - 1/lam) C4} = 8 pi/3, r in [1/3, 1]
    c = system("SYS-B").constants
    assert c.lam == 2.0 and c.rho == 2.0
    assert c.c4 == pytest.approx(math.pi / 3, abs=1e-6)
    assert c.c7 == pytest.approx(8 * math.pi / 3, rel=1e-6)
    assert c.roof_inf == pytest.approx(1 / 3, abs=1e-15)
    assert c.roof_sup == pytest.approx(1.0, abs=1e-15)
    assert c.monotone == (True, True)


def test_system_constants_nl_doubling_closed_forms(nl_doubling):
    # T' = 2 + 0.24 pi cos(2 pi x), extreme at the partition points 0, 1/2, 1
    c = nl_doubling.constants
    assert c.lam == pytest.approx(2 - 0.24 * math.pi, abs=1e-14)
    assert c.rho == pytest.approx(2 + 0.24 * math.pi, abs=1e-14)


def test_system_constants_constant_roof():
    c = system("SYS-A").constants
    assert c.c4 == 0.0 and c.c7 == 0.0
    assert c.semi_r == 0.0


def test_system_constants_seminorm_below_one_sees_long_pairs():
    # r(0) = 1 and r(1/2) = 1/3 on one element of SYS-B, so at alpha = 1/2
    # |r|_alpha >= (2/3) / sqrt(1/2); adjacent pairs alone give 0.033
    cfg = preset_config("SYS-B")
    cfg["alpha"] = 0.5
    c = system_from_config(cfg).constants
    assert c.semi_r >= (2 / 3) / math.sqrt(0.5)


def _brute_force_seminorm(xs, vals, alpha):
    i, j = np.triu_indices(len(xs), 1)
    return float(np.max(np.abs(vals[j] - vals[i])
                        / np.abs(xs[j] - xs[i]) ** alpha))


@pytest.mark.parametrize("n", [2, 3, 17, 64, 65, 66, 130, 200])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_sampled_seminorm_against_all_pairs(n, kind):
    rng = np.random.default_rng(n)
    xs = np.sort(rng.uniform(0.0, 1.0, n))
    vals = rng.normal(size=n)
    if kind == "complex":
        vals = vals + 1j * rng.normal(size=n)
    # at alpha = 1 the adjacent pairs already give the maximum over all pairs
    brute = _brute_force_seminorm(xs, vals, 1.0)
    assert sampled_seminorm(xs, vals, 1.0) == pytest.approx(brute, rel=1e-12)
    adjacent = float(np.max(np.abs(np.diff(vals)) / np.diff(xs) ** 0.5))
    half = sampled_seminorm(xs, vals, 0.5)
    assert adjacent <= half <= _brute_force_seminorm(xs, vals, 0.5)


def test_system_constants_are_cached():
    sys = system("SYS-B")
    c = sys.constants
    assert sys.constants is c
    # validate reads the same scan
    validate(sys)
    assert sys.constants is c


@pytest.mark.parametrize("name", ["cli", "dolgopyat", "expr", "flow", "gibbs",
                                  "operator", "presets", "system", "uni"])
def test_every_export_resolves(name):
    mod = importlib.import_module(f"gibbsflow.{name}")
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


@pytest.mark.parametrize("name", SYSTEMS + ["HOELDER", "THREE", "TENT"])
def test_validate_c2_equals_per_word_chains(name):
    # the distortion scan, one branch_chain per word of depths 1-3 at 64
    # points of the word's domain, a word at a time
    sys = system(name)
    c2 = 0.0
    for depth in (1, 2, 3):
        for word in word_array(sys, depth).tolist():
            ys = np.linspace(*sys.image_interval(word[-1]), 64)
            dh = 1.0 / branch_chain(sys, tuple(word), ys)["dTn"]
            d = np.abs(dh[:, None] - dh[None, :])
            scale = (np.abs(dh)[:, None]
                     * np.abs(ys[:, None] - ys[None, :]) ** sys.alpha)
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.where(scale > 0, d / scale, 0.0)
            c2 = max(c2, float(np.nanmax(q)))
    assert validate(sys).c2 == c2


def test_not_expanding_rejected():
    rep = validate(_bad_system("x/2+1/4", (0, 2)))
    assert not rep.ok
    assert "inf |T'| = 0.5 <= 1" in rep.messages


def test_not_markov_rejected():
    rep = validate(_bad_system("2*x+1/10", (0, 2)))
    assert not rep.ok
    assert rep.messages == [
        "branch images miss declared breakpoints by 1.000e-01"]
    assert math.isnan(rep.c2)  # h_0 is not defined on the declared image


def test_non_monotone_branch_reported():
    rep = validate(_bad_system("8*x*(1-2*x)", (0, 2)))
    assert not rep.ok
    assert "branch 0 is not monotone" in rep.messages
    assert math.isnan(rep.c2)


def _bad_system(expr0, image0):
    return system_from_config({
        "partition": [0, 0.5, 1],
        "branches": [{"expr": expr0, "image": list(image0)},
                     {"expr": "2*x-1", "image": [0, 2]}],
        "roof": ["1", "1"],
        "potential": ["0", "0"],
    })


def test_unknown_config_key_rejected():
    cfg = preset_config("SYS-A")
    cfg["extra"] = 1
    with pytest.raises(NotMarkovError):
        system_from_config(cfg)


def test_cylinders_partition_unit_interval():
    for name in ("SYS-A", "SYS-C"):
        sys = system(name)
        for n in (1, 2, 3, 5):
            _, left, right = cylinders(sys, n)
            order = np.argsort(left)
            left, right = left[order], right[order]
            # consecutive cylinders tile [0,1]
            assert left[0] == pytest.approx(0.0, abs=1e-12)
            assert right[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(right[:-1], left[1:], rtol=0, atol=1e-12)


def test_cylinder_count_sys_a():
    sys = system("SYS-A")
    words, left, right = cylinders(sys, 8)
    assert words.shape == (256, 8) and left.shape == right.shape == (256,)
    with pytest.raises(CapExceededError):
        cylinders(sys, 25)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("name", SYSTEMS)
def test_cylinders_equal_the_cylinder_objects(name, n):
    # the arrays in word order hold the bits of one object per cylinder
    sys = system(name)
    words, left, right = cylinders(sys, n)
    want = sorted(cylinder_list(sys, n), key=lambda c: c.word)
    assert words.tolist() == [list(c.word) for c in want]
    assert np.array_equal(left, [c.left for c in want])
    assert np.array_equal(right, [c.right for c in want])


def test_inverse_branch_residual():
    sys = system("SYS-C")
    for i in range(3):
        lo, hi = sys.image_interval(i)
        ys = np.linspace(lo, hi, 57)
        zs = sys.inverse_branch(i, ys)
        assert np.max(np.abs(sys.T[i].value(x=zs) - ys)) < 1e-12
        a, b = sys.element_interval(i)
        assert np.all(zs >= a - 1e-12) and np.all(zs <= b + 1e-12)


def test_branch_chain_consistency():
    sys = system("SYS-B")
    word = (0, 1, 1, 0)
    ys = np.linspace(0.05, 0.95, 11)
    ch = branch_chain(sys, word, ys)
    x = ch["x"]
    # forward orbit of x reproduces y and the itinerary, and S_n r is the
    # sum of r along it
    z = x.copy()
    snr = np.zeros_like(x)
    for sym in word:
        assert np.all(sys.element_of(z) == sym)
        snr += sys.roof_at(z)
        z = sys.apply_T(z)
    assert np.allclose(z, ys, atol=1e-10)
    assert np.allclose(ch["Snr"], snr, atol=1e-10)
    # derivative matches finite differences
    h = 1e-6
    chp = branch_chain(sys, word, ys + h)
    chm = branch_chain(sys, word, ys - h)
    fd = (chp["Snr"] - chm["Snr"]) / (2 * h)
    assert np.allclose(ch["DSnr_h"], fd, rtol=1e-5, atol=1e-7)


def test_pullback_orbit_sums_doubling():
    sys = system("SYS-A")
    # orbit 0.1 -> 0.2 -> 0.4 -> 0.8 -> 0.6 -> 0.2: symbols 0, 0, 0, 1, 1
    ch = branch_chain(sys, (0, 0, 0, 1, 1), 0.2)
    assert ch["x"][0] == pytest.approx(0.1, abs=1e-15)
    assert ch["Snr"][0] == pytest.approx(5.0)
    # potential log p / log (1-p): S_3 phi counts symbols
    sysb = system("SYS-A-BERNOULLI")
    # orbit 0.3 -> 0.6 -> 0.2 -> 0.4: symbols 0, 1, 0
    ch = branch_chain(sysb, (0, 1, 0), 0.4)
    assert ch["x"][0] == pytest.approx(0.3, abs=1e-15)
    expect = math.log(0.3) + math.log(0.7) + math.log(0.3)
    assert ch["Snphi"][0] == pytest.approx(expect, rel=1e-9)


def test_inverse_branch_refuses_point_outside_image():
    sys = system("SYS-B")
    with pytest.raises(OutsideImageError):
        sys.inverse_branch(0, np.array([0.2, 1.5]))
    # within 1e-12 of the element width the point is accepted
    z = sys.inverse_branch(0, np.array([1.0 + 1e-13]))
    assert z[0] == pytest.approx(0.5, abs=1e-12)


def test_inverse_branch_refuses_unconverged_newton():
    # the +1e5-1e5 round trip leaves a residual far above the 1e-13 tolerance
    sys = system_from_config({
        "partition": [0, 0.5, 1],
        "branches": [{"expr": "2*x+100000-100000", "image": [0, 2]},
                     {"expr": "2*x-1", "image": [0, 2]}],
        "roof": ["1", "1"],
        "potential": ["0", "0"],
    })
    with pytest.raises(NoConvergenceError):
        sys.inverse_branch(0, np.array([0.3]))


# -- the pullback engine against a per-word loop ---------------------------------


def _chain_oracle(sys, word, y):
    """Solve the n levels of one word from y, then sum forward from x."""
    n = len(word)
    z = [None] * n + [y]
    for j in range(n - 1, -1, -1):
        z[j] = sys.inverse_branch(word[j], z[j + 1])
    zero = np.zeros_like(y)
    dTj, snr, snphi, dsnr = zero + 1.0, zero, zero, zero
    for j, i in enumerate(word):
        dsnr = dsnr + sys.r[i].deriv(x=z[j]) * dTj
        snr = snr + sys.r[i].value(x=z[j])
        snphi = snphi + sys.phi[i].value(x=z[j])
        dTj = dTj * sys.T[i].deriv(x=z[j])
    return {"x": z[0], "dTn": dTj, "Snr": snr, "Snphi": snphi,
            "DSnr_h": dsnr / dTj}


def _close(got, want, rel=1e-13):
    scale = max(float(np.max(np.abs(want))), 1.0)
    assert np.max(np.abs(got - want)) <= rel * scale


@pytest.mark.parametrize("name", SYSTEMS)
def test_pullback_engine_matches_per_word_chains(name):
    sys = system(name)
    for n in range(1, 7):
        words = word_array(sys, n)
        # every admissible word once, in lexicographic order
        want = [w for w in itertools.product(range(sys.m), repeat=n)
                if all(sys.transition[a, b] for a, b in zip(w, w[1:]))]
        assert [tuple(w) for w in words.tolist()] == want
        for s in range(sys.m):
            ws = words[words[:, -1] == s]
            ys = np.linspace(*sys.image_interval(s), 7)
            pb = pullback(sys, ws, ys)
            for a, w in enumerate(ws.tolist()):
                want = _chain_oracle(sys, tuple(w), ys)
                for field, value in want.items():
                    _close(getattr(pb, field)[a], value)


def _element_of_oracle(sys, x):
    """element_of as searchsorted over all breakpoints, clipped."""
    idx = np.searchsorted(sys.partition, x, side="right") - 1
    return np.clip(idx, 0, sys.m - 1)


def _piecewise_oracle(sys, pieces, x):
    """pieces[element_of(x)].value at x, one boolean mask and scatter per
    element."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    idx = _element_of_oracle(sys, x)
    for i in range(sys.m):
        mask = idx == i
        if np.any(mask):
            out[mask] = pieces[i].value(x=x[mask])
    return out


def _edge_points(sys):
    """The breakpoints, their neighbouring doubles and out-of-range points."""
    p = sys.partition
    return np.concatenate([p, np.nextafter(p, -np.inf),
                           np.nextafter(p, np.inf),
                           [-0.5, 1.5, np.inf, -np.inf, np.nan, -0.0]])


@pytest.mark.parametrize("name", SYSTEMS)
def test_element_of_matches_searchsorted(name):
    sys = system(name)
    edges = _edge_points(sys)
    got = sys.element_of(edges)
    assert got.dtype == np.intp
    assert np.array_equal(got, _element_of_oracle(sys, edges))
    for v in edges:
        want = _element_of_oracle(sys, v)
        for x in (v, float(v), np.array(v)):
            got = sys.element_of(x)
            assert got == want and int(got) == want and np.ndim(got) == 0
    block = np.random.default_rng(0).uniform(-0.25, 1.25, (16, 64))
    block[0, :len(edges)] = edges
    assert np.array_equal(sys.element_of(block), _element_of_oracle(sys, block))


@pytest.mark.parametrize("name", SYSTEMS)
def test_piecewise_matches_boolean_masks(name):
    # the split by element index gives each point the bits of the
    # per-element mask loop
    sys = system(name)
    edges = _edge_points(sys)
    x = np.random.default_rng(1).random(100_000)
    x[:len(edges)] = edges
    block = x[-4096:].reshape(64, 64)
    with np.errstate(invalid="ignore"):
        for method, pieces in ((sys.apply_T, sys.T), (sys.roof_at, sys.r),
                               (lambda p: sys._piecewise(sys.phi, p), sys.phi)):
            for pts in (x, block, block.T):
                got = method(pts)
                assert got.shape == pts.shape
                assert np.array_equal(got, _piecewise_oracle(sys, pieces, pts),
                                      equal_nan=True)


def test_column_blocks_contract(nl_doubling, monkeypatch):
    import weakref
    import gibbsflow.system as system_mod
    sys = system("SYS-C")
    eig = eigendata(sys, 0.5, N=32)
    words = word_array(sys, 3)
    words = words[words[:, -1] != 1]  # symbol 1 ends no word
    ys = np.linspace(0.0, 1.0, 13)
    holds = np.array([ys < 0.5, ys >= 0.0, np.zeros(13, dtype=bool)])
    ending = words[words[:, -1] == 0]
    ref = weakref.ref(words)
    trees = symbol_trees(sys, words)
    del words
    assert ref() is None  # the trees hold no words
    assert [s for s, _ in trees] == [0, 2]
    # every depth fits the budget: one block over all of ys a depth
    assert column_layout(trees, holds, system_mod._BUDGET, 2) == (3, 0)
    whole = list(column_blocks(sys, trees, ys, holds, ("x", "J"), eig,
                               every_depth=True))
    assert [(k, block) for k, block, _, _ in whole] == [
        (k, slice(0, 13)) for k in (1, 2, 3)]
    for k, _, blocks, norm in whole:
        # symbol 1 ends no word and symbol 2 holds no point: one block
        [(s, cols, pb)] = blocks
        assert s == 0 and np.array_equal(cols, np.flatnonzero(ys < 0.5))
        # its rows are the distinct length-k suffixes of the words ending
        # in 0, in lexicographic order
        want = pullback(sys, suffixes(ending, k), ys[cols], ("x",))
        assert np.array_equal(pb.x, want.x)
        total = np.zeros(len(ys))
        total[cols] = pb.J.sum(axis=0)
        assert np.array_equal(norm, total)
    # without "J" no normaliser and no EigenData; the last depth alone by
    # default
    [(k, block, blocks, norm)] = column_blocks(
        nl_doubling, symbol_trees(nl_doubling, word_array(nl_doubling, 2)),
        ys, np.ones((2, 13), dtype=bool), ("x",))
    assert k == 2 and norm is None
    assert [s for s, _, _ in blocks] == [0, 1]
    assert all(pb.J is None and pb.x.shape == (2, 13) for _, _, pb in blocks)
    # cut into column blocks, each depth has the bits of its one block,
    # and the blocks are those of the layout (``conftest.column_layout``):
    # 24 values share depth 1 (6 pairs) and cut 2 blocks of 12 pairs a
    # field; 2 values, one pair a field, cut a block per point of symbol 0
    # (4 words deep) and one of the points it does not hold
    for budget, layout in ((24, (1, 2)), (2, (0, 7))):
        monkeypatch.setattr(system_mod, "_BUDGET", budget)
        assert column_layout(trees, holds, budget, 2) == layout
        shared, count = layout
        x = {k: np.full((len(pb.x), 13), np.nan) for k, _, [(_, _, pb)], _
             in whole}
        norm = {k: np.full(13, np.nan) for k in x}
        cuts = {k: [] for k in x}
        for k, block, blocks, part in column_blocks(
                sys, trees, ys, holds, ("x", "J"), eig, every_depth=True):
            cuts[k].append(block)
            for s, cols, pb in blocks:
                x[k][:, cols + block.start] = pb.x
            norm[k][block] = part
        for k, _, [(_, cols, pb)], total in whole:
            assert x[k][:, cols].tobytes() == pb.x.tobytes()
            assert norm[k].tobytes() == total.tobytes()
            blocks = cuts[k]
            assert [b.start for b in blocks] == [0] + [b.stop for b in
                                                       blocks[:-1]]
            assert blocks[-1].stop == 13
            assert len(blocks) == (1 if k <= shared else count)
        if budget == 2:
            assert all(b.stop - b.start == 1 for b in cuts[3][:6])


def _checked_layouts(monkeypatch) -> list:
    """Route every caller's ``column_blocks`` through a recorder, and return
    the list it fills: per pass, the (shared depths, column blocks) it ran,
    the layout ``conftest.column_layout`` walks for it, and the widths of
    its last depth's blocks.  A pass is shared where no run resumes a copy
    (``_Run.columns``)."""
    import gibbsflow.gibbs as gibbs_mod
    import gibbsflow.operator as op
    import gibbsflow.system as system_mod
    import gibbsflow.uni as uni_mod
    seen, resumed = [], []
    run, columns = system_mod.column_blocks, system_mod._Run.columns

    def counted(self, i, j):
        resumed.append(self.k)
        return columns(self, i, j)

    def recorded(sys, trees, ys, holds, fields, eig=None, every_depth=False):
        n = len(trees[0][1])
        resumed.clear()
        widths = []
        for k, block, blocks, norm in run(sys, trees, ys, holds, fields, eig,
                                          every_depth):
            if k == n:
                widths.append(block.stop - block.start)
            yield k, block, blocks, norm
        got = (resumed[0], len(widths)) if resumed else (n, 0)
        assert len(set(resumed)) <= 1 and (resumed or widths == [len(ys)])
        seen.append((got, column_layout(trees, holds, system_mod._BUDGET,
                                        len(fields)), widths))

    monkeypatch.setattr(system_mod._Run, "columns", counted)
    for module in (op, uni_mod, gibbs_mod):
        monkeypatch.setattr(module, "column_blocks", recorded)
    return seen


@pytest.mark.parametrize("budget", [pytest.param(120, id="blocks"),
                                    pytest.param(48, id="shared"),
                                    pytest.param(3, id="one-column")])
def test_callers_keep_their_bits_on_column_blocks(budget, monkeypatch):
    # every caller of column_blocks gives the bits it gives under the
    # default budget when its passes are cut into column blocks: a
    # BranchPlan's normaliser and sums and deep_apply's, v's step matrix,
    # check_uni, and gibbs_audit's C5 and per-depth bounds.  The audit's
    # mass tables are kept from the default budget, since a mass is a sum
    # over the nodes and moves by rounding when split into one sum per
    # block (see test_gibbs); its reference sums are cut.  120 values cut
    # every pass into blocks of several columns (the reference sums into
    # one, after 3 shared depths), 48 share 2 depths of the reference sums
    # and cut the plans into blocks of one column, and 3, one pair a field
    # for the three fields of the plans and of v's step, cut every pass
    # into blocks of one column
    import gibbsflow.gibbs as gibbs_mod
    import gibbsflow.system as system_mod
    import gibbsflow.uni as uni_mod
    sys = system("SYS-C")
    eig = eigendata(sys, 0.5, N=64)
    nodes = [np.linspace(*sys.element_interval(e), 17) for e in range(sys.m)]
    fns = {"one": np.ones_like, "wave": lambda x: np.exp(3j * x)}
    tables = list(_mass_tables(sys, eig, symbol_trees(sys, word_array(sys,
                                                                      4))))
    monkeypatch.setattr(gibbs_mod, "_mass_tables", lambda *args: iter(tables))
    monkeypatch.setattr(uni_mod, "_GRID", 96)

    def outputs():
        plan = BranchPlan(sys, eig, 256.0, 3, nodes)
        M = lagrange_step(sys, eig, 256.0, node_grid(sys, 64))
        return [plan.norm, plan.apply(fns["wave"], False),
                plan.apply(fns["wave"], True),
                *deep_apply(sys, eig, 0.0, 3, nodes, fns).values(),
                M.data, M.indices, M.indptr, check_uni(sys, 3, 0.1),
                gibbs_audit(sys, eig, 4)]

    seen = _checked_layouts(monkeypatch)
    want = outputs()
    assert all(got == layout == (n, 0) for (got, layout, _), n in
               zip(seen, (3, 1, 3, 3, 4)))
    seen.clear()
    monkeypatch.setattr(system_mod, "_BUDGET", budget)
    got = outputs()
    for g, w in zip(got[:-2], want[:-2]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got[-2:] == want[-2:]
    # the plan, v's step, deep_apply's plan, check_uni, the reference sums:
    # each ran its last depth on column blocks, as the layout walks them
    assert len(seen) == 5
    for ran, layout, widths in seen:
        assert ran == layout and ran[1] >= 1
        if budget == 3:
            assert max(widths) == 1


def _parents_split(words) -> bool:
    """Whether some depth of ``words``' suffix tree has a symbol whose
    parent rows are not one run, so the engine gathers them by index."""
    for sym, parent in _suffix_tree(words):
        for s in np.unique(sym):
            up = parent[sym == s]
            if up[-1] - up[0] != len(up) - 1:
                return True
    return False


def _points(sys, s):
    """Three points of the image of symbol s, both ends included."""
    lo, hi = sys.image_interval(s)
    return lo + (hi - lo) * np.array([0.0, 0.37, 1.0])


@pytest.fixture(scope="module")
def references():
    """``_one_at_a_time``'s references by (system, sigma), each built once
    for all block sizes."""
    return {}


def _one_at_a_time(references, name, sys, eig, fields):
    """{(suffix, b): {field: value}} over every suffix of every depth-5 word
    and each point b of ``_points``, each (word, point) pulled back by an
    engine run of its own."""
    key = (name, eig.sigma)
    if key not in references:
        ref = {}
        for w in word_array(sys, 5):
            ys = _points(sys, w[-1])
            for b in range(len(ys)):
                for level in engine(sys, w[None, :], ys[b:b + 1], fields,
                                    eig, every_depth=True):
                    ref[tuple(level.words[0].tolist()), b] = {
                        f: getattr(level, f)[0, 0] for f in fields}
        references[key] = ref
    return references[key]


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
@pytest.mark.parametrize("name", SYSTEMS)
def test_pullback_engine_keeps_the_bits_of_the_old_engine(name, block,
                                                          references,
                                                          monkeypatch):
    # every (word, point) of a batched run has the bytes of that (word,
    # point) pulled back on its own, whether blocks split symbol runs (3
    # points: 1 and 7 give blocks of 1 and 2 rows), whether parents are
    # sliced or gathered, and whether the points hold an image end whose
    # affine step rounds out of its element (SYS-C's branch 1 at 1/3)
    import gibbsflow.system as system_mod
    monkeypatch.setattr(system_mod, "_BLOCK", block)
    sys = system(name)
    whole = word_array(sys, 4)
    # every third word: on two symbols every other word is the words
    # ending in 0, whose parents are whole runs again
    sparse = word_array(sys, 5)[::3]
    assert _parents_split(sparse) and not _parents_split(whole)
    fields = FIELDS + ("J",)
    for sigma in (0.0, 0.5):
        eig = eigendata(sys, sigma, N=32)
        ref = _one_at_a_time(references, name, sys, eig, fields)
        for words, every_depth, s in itertools.product(
                (whole, sparse), (True, False), range(sys.m)):
            ws = words[words[:, -1] == s]
            if not len(ws):
                continue
            ys = _points(sys, s)
            got = list(engine(sys, ws, ys, fields, eig, every_depth))
            assert len(got) == (ws.shape[1] if every_depth else 1)
            for level in got:
                if sigma == 0.0:
                    # the log weight is then S_k phi, so J has the bits of
                    # the plain expression lam^-k exp(lw) f(x) / f(y)
                    plain = (eig.lam ** (-level.words.shape[1])
                             * np.exp(level.Snphi) * eig.f.eval(level.x).real
                             / eig.f.eval(ys).real)
                    assert plain.tobytes() == level.J.tobytes()
                for r, w in enumerate(level.words.tolist()):
                    for b in range(3):
                        want = ref[tuple(w), b]
                        for f in fields:
                            value = getattr(level, f)[r, b]
                            assert value.tobytes() == want[f].tobytes(), \
                                (f, sigma, w, b)


def test_a_yielded_J_is_gone_before_the_next_depth_is_built(monkeypatch):
    # the engine keeps x and the running sums of the previous depth, not
    # its J: once the caller has let a depth go, no block of the next
    # depth is computed while any J of it is still alive.  The mass tables
    # are the caller in the second half, their deeper depths over column
    # blocks: no J of an earlier depth, or of an earlier column block,
    # lives while a depth is built
    import weakref
    import gibbsflow.system as system_mod
    sys = system("SYS-C-NLROOF")
    eig = eigendata(sys, 0.5, N=32)
    words = word_array(sys, 4)
    yielded = []  # ((batch, depth), weakref to J) of every J yielded
    building = {"batch": 0, "asked": False, "at": None}
    alive = []    # per block computed: how many J of another depth live

    class Recorded(system_mod._Run):
        """The engine's runs, each J recorded on the way.  The runs resumed
        on one column block (``columns``) form one batch."""

        def columns(self, i, j):
            if building["asked"]:
                building["batch"] += 1
                building["asked"] = False
            return super().columns(i, j)

        def step(self, returned):
            building["asked"] = True
            building["at"] = (building["batch"], self.k + 1)
            level = super().step(returned)
            if level is not None:
                yielded.append((building["at"], weakref.ref(level.J)))
            return level

    monkeypatch.setattr(system_mod, "_Run", Recorded)
    solve = MarkovSystem.inverse_branch

    def checked(self, *args, **kwargs):
        alive.append(sum(ref() is not None for at, ref in yielded
                         if at != building["at"]))
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(MarkovSystem, "inverse_branch", checked)
    ys = np.linspace(0.0, 1.0, 17)
    holds = np.array([(ys >= lo) & (ys <= hi) for lo, hi in
                      map(sys.image_interval, range(sys.m))])
    depths = 0
    trees = symbol_trees(sys, words)
    for _, _, blocks, norm in column_blocks(sys, trees, ys, holds, ("J",),
                                            eig, every_depth=True):
        depths += 1
        del blocks, norm
    assert len(yielded) == 4 * sys.m
    # 96 nodes: the first depth shared, the last three on 4 column blocks,
    # each a batch after the shared one's
    building["batch"] += 1
    monkeypatch.setattr(system_mod, "_BUDGET", 24 * len(words))
    assert mass_layout(sys, eig, trees, system_mod._BUDGET) == (1, 4)
    for _ in _mass_tables(sys, eig, trees):
        depths += 1
    assert depths == 8 and building["batch"] == 1 + 4
    assert len(alive) > 8 * sys.m and max(alive) == 0


def test_pullback_engine_rejects_unsorted_words():
    sys = system("SYS-B")
    with pytest.raises(ValueError):
        pullback(sys, [(1, 0), (0, 0)], np.array([0.5]))


@pytest.mark.parametrize("name,sigma", [("SYS-C-NLROOF", 0.5),
                                        ("SYS-A-BERNOULLI", 0.0),
                                        ("NL-DOUBLING", 0.0)])
def test_cylinder_masses_match_per_word_jacobians(name, sigma):
    sys = system(name)
    eig = eigendata(sys, sigma, N=64)
    nodes = node_grid(sys, eig.N)
    table = cylinder_masses(sys, eig, 6)
    raw = {}
    norm = np.zeros((sys.m, eig.N))
    for c in table.cylinders:
        lo, hi = sys.images[c.word[-1]]
        raw[c.word] = {e: jacobian_weight(sys, eig, c.word, nodes[e])[0]
                       for e in range(lo, hi)}
        for e, u in raw[c.word].items():
            norm[e] += u
    want = np.array([sum(float(np.dot(eig.mu[e], u / norm[e]))
                         for e, u in raw[c.word].items())
                     for c in table.cylinders])
    _close(table.masses, want)
    assert table.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_cylinder_masses_refuse_symbol_without_predecessor():
    # every branch maps onto [0, 2/3): no word continues into [2/3, 1)
    sys = system_from_config({
        "partition": [0, 1 / 3, 2 / 3, 1],
        "branches": [{"expr": "2*x", "image": [0, 2]},
                     {"expr": "2*x-2/3", "image": [0, 2]},
                     {"expr": "2*x-4/3", "image": [0, 2]}],
        "roof": ["1"] * 3,
        "potential": ["0"] * 3,
    })
    with pytest.raises(NotCoveringError):
        cylinder_masses(sys, eigendata(sys, 0.0, N=32), 3)


@pytest.mark.parametrize("name,sigma,b", [("SYS-C-NLROOF", 0.5, 7.0),
                                          ("NL-DOUBLING", 0.0, 30.0)])
def test_deep_apply_matches_per_word_jacobians(name, sigma, b):
    sys = system(name)
    eig = eigendata(sys, sigma, N=64)
    n = 5
    xs = np.linspace(0.0, 1.0, 41)
    fn = lambda z: np.cos(3 * z) + 1j * z
    idx = sys.element_of(xs)
    Lv = deep_apply(sys, eig, b, n, element_sets(sys, xs), {"Lv": fn})["Lv"]
    plan = BranchPlan(sys, eig, b, n, element_sets(sys, xs))
    one = plan.apply(np.ones_like, False)
    for k, x in enumerate(xs):
        total, norm = 0.0, 0.0
        for w in word_array(sys, n).tolist():
            if not sys.transition[w[-1], idx[k]]:
                continue
            u, ch = jacobian_weight(sys, eig, w, np.array([x]))
            total += u[0] * np.exp(-1j * b * ch["Snr"][0]) * fn(ch["x"][0])
            norm += u[0]
        _close(Lv[k], total / norm, rel=1e-12)
        assert one[k] == pytest.approx(1.0, abs=1e-14)
        _close(plan.norm[k], norm, rel=1e-12)
