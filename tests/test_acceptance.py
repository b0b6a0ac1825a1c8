"""Acceptance gate: ten desk-scale criteria, one printed pass/fail line each.

The lines are written to the real stdout so they appear even under pytest's
default capture.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
from click.testing import CliRunner

from poisson_matching.assignment import max_cardinality_min_cost, min_cost_perfect
from poisson_matching.cli import main as cli_main
from poisson_matching.geometry import Disk, Domain
from poisson_matching.matching import Matching
from poisson_matching.hierarchy import (BlockSystem, ChernoffParams, aligned_window,
                                        build_block_system, chernoff_bound, chernoff_tail,
                                        init_state, run_hierarchical)
from poisson_matching.sampling import (ColoredPointSet, SampleConfig,
                                       derived_rng, sample)
from poisson_matching.verify import (box_rematch_experiment,
                                     check_arc_disjointness, check_planarity,
                                     crossing_stats, estimate_eta,
                                     minimality_certificate, minimality_certificate_d1)
from poisson_matching.walks import (build_walk, cut_times,
                                    cut_time_matching, excursion_matching,
                                    polygonal_arcs, zero_block_matching)
from oracles import brute_force_min, least_line_cost, scalar_is_parallel_free


def _line(capfd, num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capfd.disabled():
        print(f"criterion {num:2d} [{name}]: {status}{suffix}", flush=True)


def test_criterion_01_oracle_equivalence(capfd):
    # the budget is CPU time, which other load on the host does not spend
    t0 = time.process_time()
    failures = []
    for n in range(2, 8):
        for trial in range(200):
            rng = derived_rng(100, n, trial)
            reds = rng.uniform(0, 1, size=(n, 2))
            blues = rng.uniform(0, 1, size=(n, 2))
            fast = min_cost_perfect(reds, blues)
            edges, least = brute_force_min(reds, blues)
            if fast.edges != edges or abs(fast.total_length - least) > 1e-9:
                failures.append((n, trial))
    elapsed = time.process_time() - t0
    ok = not failures and elapsed < 10.0
    _line(capfd, 1, "assignment oracle equivalence", ok,
          f"1200 instances, {elapsed:.1f}s")
    assert ok, (failures, elapsed)


def test_criterion_02_min_cost_planarity(capfd):
    # each matching is first certified min-cost by the cycle search, which
    # shares no code with the solver, then tested for crossings
    t0 = time.perf_counter()
    failures = []
    certified = 0
    for n in (5, 20, 100):
        for seed in range(100):
            rng = derived_rng(200, n, seed)
            reds = rng.uniform(0, 1, size=(n, 2))
            blues = rng.uniform(0, 1, size=(n, 2))
            # in general position, as the claim needs: no two point pairs
            # span parallel vectors (checked on the first 20 points)
            if n <= 20 and not scalar_is_parallel_free(np.concatenate([reds, blues])[:20]):
                failures.append((n, seed, "parallel pairs"))
            m = min_cost_perfect(reds, blues)
            cert = minimality_certificate(m)
            certified += cert.passed
            for rep in (cert, check_planarity(m)):
                if not rep.passed:
                    failures.append((n, seed, rep.property_name, rep.violations))
    elapsed = time.perf_counter() - t0
    ok = not failures and certified == 300 and elapsed < 60.0
    _line(capfd, 2, "min-cost matchings are non-crossing", ok,
          f"300 instances, {certified} certified min-cost, {elapsed:.1f}s")
    assert ok, (failures, elapsed)


def test_criterion_03_line_minimality_and_length_identity(capfd):
    # the certificate is exact: coverage equals |S| on every gap. The
    # identity is the least cost itself: the length equals the integral of
    # |S|, which only a min-cost matching's does
    failures = []
    worst_gap = 0.0
    gaps = 0
    for seed in range(20):
        ps = sample(SampleConfig(1.0, 1.0, Domain.line(0.0, 100.0), 300 + seed))
        m = excursion_matching(ps)
        rep = minimality_certificate_d1(m)
        gaps += rep.trials
        if not rep.passed:
            failures.append((seed, rep.violations))
        gap = abs(m.total_length - least_line_cost(*m.endpoint_arrays()))
        worst_gap = max(worst_gap, gap)
        if gap >= 1e-9:
            failures.append((seed, "length identity", gap))
    ok = not failures
    _line(capfd, 3, "line minimality + length/least-cost identity", ok,
          f"{gaps} gaps certified, worst identity gap {worst_gap:.2e}")
    assert ok, failures


def test_criterion_04_strip_constructions(capfd):
    failures = []
    for seed in range(50):
        ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0.0, 50.0), 400 + seed))
        zb = zero_block_matching(ps)
        if not check_planarity(zb).passed:
            failures.append((seed, "zero_block planarity"))
        ex = excursion_matching(ps)
        arcs = polygonal_arcs(ex, ps)
        if not check_planarity(ex, arcs=arcs).passed:
            failures.append((seed, "excursion planarity (arcs)"))
        if not check_arc_disjointness(arcs).passed:
            failures.append((seed, "arc disjointness"))
        # drifted sample: every blue between the first and last cut-time matched
        ps2 = sample(SampleConfig(2.0, 1.0, Domain.strip(0.0, 50.0), 450 + seed))
        cm = cut_time_matching(ps2)
        cuts = cut_times(build_walk(ps2))
        if len(cuts) >= 2:
            lo, hi = cuts[0], cuts[-1]
            matched_blues = {j for _, j in cm.edges}
            for j, (x, _) in enumerate(ps2.blues):
                if lo < x <= hi and j not in matched_blues:
                    failures.append((seed, "cut_time unmatched interior blue", j))
    ok = not failures
    _line(capfd, 4, "strip constructions planar / cut-time coverage", ok,
          "50 seeds each")
    assert ok, failures


def _hierarchical_failures(tag, ps, m, diag, state, N):
    """Criterion 5's invariants on one window. Returns the failures and
    whether the window was bad-free, so that its total-unmatched check ran."""
    failures = []
    window = ps.domain.window_rect()
    for i, j in m.edges:
        if not (window.contains(ps.reds[i]) and window.contains(ps.blues[j])):
            failures.append((tag, f"edge leaves level-{N} block", (i, j)))
    for n in range(1, N + 1):
        lv = state.levels[n]
        n_red, n_blue = (np.bincount(t.row[t.row >= 0], minlength=len(lv.cells))
                         for t in (lv.red, lv.blue))
        wrong = {"unmatched != |excess|": lv.unmatched != np.abs(n_red - n_blue)}
        if n >= 2:
            wrong["unmatched outside heir"] = ~lv.bad & ~lv.unmatched_in_heir
        if n >= 3:
            wrong["new edges outside heirs"] = ~lv.bad & ~lv.dodgy & ~lv.new_edges_in_heirs
        for what, rows in wrong.items():
            failures += [(tag, n, (n, ix, iy), what) for ix, iy in lv.cells[rows].tolist()]
    bad_free = sum(diag["levels"][n]["bad_count"] for n in diag["levels"]) == 0
    if bad_free and (len(m.unmatched_reds) + len(m.unmatched_blues)
                     != abs(ps.n_red - ps.n_blue)):
        failures.append((tag, "bad-free total unmatched != excess"))
    return failures, bad_free


def test_criterion_05_hierarchical_invariants(capfd):
    failures = []
    bad_free_checked = 0
    for seed in range(50):
        system = build_block_system(500 + seed, 4)
        ps = sample(SampleConfig(1.0, 1.0, aligned_window(system), 500 + seed))
        m, diag, state = run_hierarchical(ps, 500 + seed, 4, system=system)
        found, bad_free = _hierarchical_failures(seed, ps, m, diag, state, 4)
        failures += found
        bad_free_checked += bad_free
    ok = not failures
    _line(capfd, 5, "hierarchical stage invariants", ok,
          f"50 seeds, {bad_free_checked} bad-free")
    assert ok, failures


def test_criterion_05_bad_free_window_with_excess():
    # Random windows are almost never bad-free, so the total-unmatched check
    # above rarely runs; here it runs on a level-3 window (2 x 6, zero
    # offsets) with one red and one blue in every unit square plus an extra
    # red outside every heir, which stages 2 and 3 must carry into the heirs.
    system = BlockSystem(N=3, a=[1, 1, 2, 6], r=[0] * 4, t=[0] * 4)
    cells = [(x, y) for x in range(2) for y in range(6)]
    reds = [[x + 0.25, y + 0.5] for x, y in cells] + [[1.5, 3.25]]
    blues = [[x + 0.75, y + 0.5] for x, y in cells]
    ps = ColoredPointSet(aligned_window(system), reds, blues, seed=0)
    m, diag, state = run_hierarchical(ps, 0, 3, system=system)
    failures, bad_free = _hierarchical_failures("handcrafted", ps, m, diag, state, 3)
    assert bad_free and not failures, failures
    assert len(m.unmatched_reds) == 1 and not m.unmatched_blues
    assert len(state.levels[3].new_edges)  # stage 3 rematched


def _heir_share(n):
    """The share of the offset vectors r, 0 <= r[m] < m(m-1) for m = 2..n+1,
    under which the unit cell [0, 1)^2 lies in the heir of its level-(n+1)
    block, counted exactly: per vector, one point in that cell, in the
    window of that block, and the level tables' heir flag."""
    vectors = list(itertools.product(*(range(m * (m - 1)) for m in range(2, n + 2))))
    hits = 0
    for tail in vectors:
        system = BlockSystem.from_offsets([0, 0, *tail])
        window = system.rects(n + 1, system.locate(n + 1, [[0, 0]]))[0].tolist()
        ps = ColoredPointSet(Domain.plane(*window), [[0.5, 0.5]], [], seed=0)
        hits += bool(init_state(ps, system).levels[n + 1].red.in_heir[0])
    return Fraction(hits, len(vectors))


def test_criterion_06_heir_probability(capfd):
    t0 = time.perf_counter()
    # a level-(n+1) block has n(n+1) children, one of them its heir
    shares = {n: _heir_share(n) for n in (1, 2, 3)}
    failures = [(n, share) for n, share in shares.items() if share != Fraction(1, n * (n + 1))]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _line(capfd, 6, "heir probability 1/(n(n+1))", ok, f"{elapsed:.1f}s")
    assert ok, (failures, elapsed)


def test_criterion_07_poisson_tail_bound(capfd):
    failures = []
    for lam in (1.0, 5.0, 10.0, 20.0):
        for mu in (lam / 4, lam / 2, lam):
            p = ChernoffParams(lam, mu)
            tail, bound = chernoff_tail(p), chernoff_bound(p)
            if not tail <= bound:
                failures.append((lam, mu, tail, bound))
    if abs(chernoff_bound(ChernoffParams(6, 6)) - math.exp(-1)) > 1e-6:
        failures.append(("spot", 6, 6))
    if abs(chernoff_bound(ChernoffParams(10, 5)) - math.exp(-25.0 / 60.0)) > 1e-6:
        failures.append(("spot", 10, 5))
    ok = not failures
    _line(capfd, 7, "Poisson difference tail bound", ok, "exact tails, 12-point grid + spot values")
    assert ok, failures


def test_criterion_08_box_rematch(capfd):
    failures = []
    # handcrafted crossed square: improvement exactly 2*sqrt(2) - 2
    dom = Domain.plane(0.0, 2.0, 0.0, 2.0)
    ps = ColoredPointSet(dom, [[0.0, 0.0], [1.0, 0.0]],
                         [[1.0, 1.0], [0.0, 1.0]], seed=0)
    # both diagonals (blues are canonically sorted: blue 0 = (0,1), blue 1 = (1,1));
    # the rematch leaves the two unit sides, planar
    m = Matching(ps.reds, ps.blues, [(0, 1), (1, 0)])
    res = box_rematch_experiment(ps, m, t=2.0)
    if abs(res.improvement - (2 * math.sqrt(2) - 2)) > 1e-9 \
            or abs(res.length_after - 2.0) > 1e-9 or not check_planarity(res.matching).passed:
        failures.append(("crossed square", res.improvement, res.length_after))
    # boundary-crossing edges come back unchanged
    dom = Domain.plane(0.0, 4.0, 0.0, 4.0)
    ps = ColoredPointSet(dom, [[0.5, 0.5], [1.5, 1.5]],
                         [[3.5, 0.5], [1.5, 0.5]], seed=0)
    m = Matching(ps.reds, ps.blues, [(0, 0), (1, 1)])
    res = box_rematch_experiment(ps, m, t=2.0)
    if (0, 0) not in res.matching.edges or res.improvement != 0.0:
        failures.append(("boundary edge rewired", res.improvement))
    # total length never increases on random suboptimal matchings
    for seed in range(10):
        full = sample(SampleConfig(1.0, 1.0, Domain.plane(0, 10, 0, 10),
                                   800 + seed))
        n = min(full.n_red, full.n_blue)
        if n == 0:
            continue
        ps = ColoredPointSet(full.domain, full.reds[:n], full.blues[:n], seed=0)
        m = Matching(ps.reds, ps.blues, [(i, i) for i in range(n)])
        for t in (1.0, 2.5, 5.0):
            res = box_rematch_experiment(ps, m, t)
            if res.length_after > res.length_before + 1e-9:
                failures.append((seed, t, "length increased"))
    ok = not failures
    _line(capfd, 8, "box rematch improvement", ok)
    assert ok, failures


def test_criterion_09_cli_determinism_and_round_trips(capfd, tmp_path):
    runner = CliRunner()
    failures = []

    def run_twice(args, out_name):
        blobs = []
        for rep in range(2):
            out = tmp_path / f"{rep}_{out_name}"
            res = runner.invoke(cli_main, args + ["--out", str(out)],
                                catch_exceptions=False)
            if res.exit_code != 0:
                failures.append((args, res.output))
                return None
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            failures.append((args, "not byte-identical"))
        return tmp_path / f"0_{out_name}"

    pts = run_twice(["sample", "--seed", "9", "--domain", "strip",
                     "--window", "0,40"], "pts.json")
    match = None
    if pts:
        match = run_twice(["match", "--in", str(pts),
                           "--construction", "excursion"], "m.json")
    if match:
        run_twice(["render", "--in", str(match), "--walk"], "r.svg")
        run_twice(["verify", "--in", str(match), "--property", "planarity"],
                  "v.json")
        run_twice(["stats", "--in", str(match), "--kind", "eta"], "s.json")
    run_twice(["match", "--construction", "hierarchical", "--seed", "9",
               "--stages", "3"], "h.json")
    sweep = run_twice(["sweep", "--lambdas", "2,8", "--ratios", "0.5,1.0"], "sweep.csv")
    if sweep:
        # csv.writer's excel dialect: every row, the last too, ends in CRLF
        lines = sweep.read_bytes().split(b"\r\n")
        if lines[0] != b"lambda,mu,tail,bound,pass" or len(lines) != 6 \
                or lines[-1] != b"" or b"\n" in b"".join(lines):
            failures.append(("sweep csv", lines))
    # JSON round trips reproduce the stored documents exactly
    if pts:
        d = json.loads(pts.read_text())
        if ColoredPointSet.from_json(d).to_json() != d or d["format"] != 1:
            failures.append("point-set round trip")
    if match:
        d = json.loads(match.read_text())
        ps = ColoredPointSet.from_json(d["points"])
        m2 = Matching.from_json(d["matching"], ps.reds, ps.blues)
        if m2.to_json() != d["matching"]:
            failures.append("matching round trip")
    ok = not failures
    _line(capfd, 9, "CLI determinism + JSON round trips", ok)
    assert ok, failures


def test_criterion_10_eta_growth_and_crossing_tail(capfd):
    small_side = 10.0             # window area 1e2
    big_side = math.sqrt(1000.0)  # window area 1e3
    pairs = 25
    windows_per_arm = 8  # averages out per-window edge-length noise
    increased = 0
    disk_counts = []
    for seed in range(pairs):
        etas = []
        for tag, side in ((0, small_side), (1, big_side)):
            dom = Domain.plane(0.0, side, 0.0, side)
            batch = []
            for w in range(windows_per_arm):
                ps = sample(SampleConfig(1.0, 1.0, dom,
                                         1000 + 100 * seed + 10 * tag + w))
                m = max_cardinality_min_cost(ps.reds, ps.blues)
                batch.append((ps, m))
            rep = estimate_eta(batch, fraction=0.7)
            etas.append(rep.payload["eta_per_matched_red"])
            if tag == 1 and seed < 10:
                ps, m = batch[0]
                cr = crossing_stats(m, [Disk(side / 2, side / 2, 1.0)])
                disk_counts.append(cr.payload["counts"][0])
        increased += etas[1] > etas[0]
    frac = increased / pairs
    arr = np.asarray(disk_counts, dtype=float)
    ok = frac >= 0.8
    _line(capfd, 10, "eta grows with window + crossing tail", ok,
          f"eta up in {increased}/{pairs}; unit-disk crossings "
          f"mean={arr.mean():.2f} max={int(arr.max())} "
          f"tail>=10: {int((arr >= 10).sum())}")
    assert ok, frac
