import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import poisson_matching
from poisson_matching import cli, hierarchy, render, walks
from poisson_matching.arcs import ArcTable
from poisson_matching.cli import main
from poisson_matching.geometry import Domain
from poisson_matching.matching import Matching
from poisson_matching.render import render_scene
from poisson_matching.sampling import ColoredPointSet, SampleConfig, sample


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def sample_file(runner, tmp_path, name="pts.json", domain="strip",
                window="0,30", seed=7, lam=1.0):
    path = tmp_path / name
    res = invoke(runner, "sample", "--seed", str(seed), "--domain", domain,
                 "--window", window, "--lambda-red", str(lam),
                 "--lambda-blue", str(lam), "--out", str(path))
    assert res.exit_code == 0, res.output
    return path


class TestDeterminism:
    def test_sample_byte_identical(self, runner, tmp_path):
        a = sample_file(runner, tmp_path, "a.json")
        b = sample_file(runner, tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("construction", ["zero_block", "one_color",
                                              "cut_time", "excursion"])
    def test_match_byte_identical(self, runner, tmp_path, construction):
        pts = sample_file(runner, tmp_path)
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            res = invoke(runner, "match", "--in", str(pts),
                         "--construction", construction, "--seed", "3",
                         "--out", str(out))
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_hierarchical_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("h1.json", "h2.json"):
            out = tmp_path / name
            res = invoke(runner, "match", "--construction", "hierarchical",
                         "--seed", "2", "--stages", "3", "--out", str(out))
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_laminate_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("l1.json", "l2.json"):
            out = tmp_path / name
            res = invoke(runner, "match", "--construction", "laminate",
                         "--seed", "4", "--bands", "2", "--window", "0,20",
                         "--out", str(out))
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_render_byte_identical(self, runner, tmp_path):
        pts = sample_file(runner, tmp_path)
        match = tmp_path / "m.json"
        invoke(runner, "match", "--in", str(pts), "--construction", "excursion",
               "--out", str(match))
        svgs = []
        for name in ("r1.svg", "r2.svg"):
            out = tmp_path / name
            res = invoke(runner, "render", "--in", str(match), "--walk",
                         "--out", str(out))
            assert res.exit_code == 0, res.output
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1]
        assert svgs[0].startswith(b"<svg")

    def test_sweep_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            res = invoke(runner, "sweep", "--lambdas", "2,4", "--ratios",
                         "0.5,1.0", "--out", str(out))
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header == "lambda,mu,tail,bound,pass"


class TestRoundTrips:
    def test_sample_json_round_trip(self, runner, tmp_path):
        pts = sample_file(runner, tmp_path)
        d = json.loads(pts.read_text())
        ps = ColoredPointSet.from_json(d)
        assert ps.to_json() == d
        assert d["format"] == 1

    def test_match_output_reloads_identically(self, runner, tmp_path):
        pts = sample_file(runner, tmp_path)
        match = tmp_path / "m.json"
        invoke(runner, "match", "--in", str(pts), "--construction", "zero_block",
               "--out", str(match))
        d = json.loads(match.read_text())
        ps = ColoredPointSet.from_json(d["points"])
        assert np.array_equal(ps.reds, np.asarray(d["points"]["reds"]))
        assert d["matching"]["edges"] == sorted(map(list, map(tuple, d["matching"]["edges"])))


class TestExitCodes:
    def test_verify_passes_on_planar_matching(self, runner, tmp_path):
        pts = sample_file(runner, tmp_path)
        match = tmp_path / "m.json"
        invoke(runner, "match", "--in", str(pts), "--construction", "zero_block",
               "--out", str(match))
        res = invoke(runner, "verify", "--in", str(match), "--property", "planarity")
        assert res.exit_code == 0, res.output
        out = json.loads(res.output)
        assert out["pass"] is True

    def test_excursion_planarity_uses_arc_geometry(self, runner, tmp_path):
        pts = sample_file(runner, tmp_path)
        match = tmp_path / "m.json"
        invoke(runner, "match", "--in", str(pts), "--construction", "excursion",
               "--out", str(match))
        res = invoke(runner, "verify", "--in", str(match), "--property", "planarity")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["pass"] is True

    def test_verify_exits_one_on_violation(self, runner, tmp_path):
        # handcraft a crossing pair and feed it through the verify command
        result = {
            "format": 1,
            "points": {
                "format": 1, "seed": 0,
                "domain": {"kind": "plane", "x0": 0.0, "x1": 2.0,
                           "y0": 0.0, "y1": 2.0},
                "reds": [[0.0, 0.0], [1.0, 0.0]],
                "blues": [[0.0, 1.0], [1.0, 1.0]],
            },
            "matching": {"format": 1, "kind": "perfect",
                         "color_mode": "two_color",
                         "edges": [[0, 1], [1, 0]],
                         "unmatched_reds": [], "unmatched_blues": []},
        }
        path = tmp_path / "crossed.json"
        path.write_text(json.dumps(result))
        res = invoke(runner, "verify", "--in", str(path), "--property", "planarity")
        assert res.exit_code == 1
        out = json.loads(res.output)
        assert out["pass"] is False
        assert out["violations"]

    def test_wrong_domain_is_usage_error(self, runner, tmp_path):
        pts = sample_file(runner, tmp_path, domain="line", window="0,30")
        res = invoke(runner, "match", "--in", str(pts),
                     "--construction", "zero_block")
        assert res.exit_code == 2
        assert "strip" in res.output

    def test_zero_area_window_is_usage_error(self, runner):
        res = invoke(runner, "sample", "--seed", "1", "--domain", "plane",
                     "--window", "0,10,5,5")
        assert res.exit_code == 2

    def test_malformed_window_is_usage_error(self, runner):
        res = invoke(runner, "sample", "--seed", "1", "--window", "0,10,20")
        assert res.exit_code == 2

    def test_missing_in_file_is_usage_error(self, runner, tmp_path):
        res = invoke(runner, "match", "--construction", "excursion",
                     "--in", str(tmp_path / "nope.json"))
        assert res.exit_code == 2

    def test_min_cost_oracle_is_a_usage_error(self, runner, tmp_path):
        # verify --property minimality is the one min-cost check: --oracle
        # is no option, as a flag or as a config key
        pts = sample_file(runner, tmp_path, domain="plane", window="0,2,0,2", seed=2)
        res = invoke(runner, "match", "--in", str(pts), "--construction", "min_cost", "--oracle")
        assert res.exit_code == 2 and "No such option" in res.output and "--oracle" in res.output
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"in": str(pts), "construction": "min_cost", "oracle": True}))
        res = invoke(runner, "match", "--config", str(cfg))
        assert res.exit_code == 2 and "unknown key 'oracle'" in res.output

    @pytest.mark.parametrize("seed", [0, 2])
    def test_min_cost_unequal_counts_is_partial(self, runner, tmp_path, seed):
        # the smaller color fully matched, the excess of the other left over,
        # and the result certified min-cost for its endpoints
        pts = sample_file(runner, tmp_path, domain="plane", window="0,3,0,3", seed=seed)
        d = json.loads(pts.read_text())
        n_r, n_b = len(d["reds"]), len(d["blues"])
        assert n_r != n_b
        out = tmp_path / "mc.json"
        res = invoke(runner, "match", "--in", str(pts), "--construction", "min_cost",
                     "--out", str(out))
        assert res.exit_code == 0, res.output
        r = json.loads(out.read_text())
        assert r["matching"]["kind"] == "partial"
        assert len(r["matching"]["edges"]) == min(n_r, n_b)
        unmatched = r["matching"]["unmatched_reds"] + r["matching"]["unmatched_blues"]
        assert len(unmatched) == abs(n_r - n_b)
        assert r["matching"]["unmatched_reds" if n_r > n_b else "unmatched_blues"] == unmatched
        res = invoke(runner, "verify", "--in", str(out), "--property", "minimality")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["property"] == "minimality_cycles"

    def test_sweep_bound_missed_exits_one(self, runner, monkeypatch):
        # no tail lies below a negative bound
        monkeypatch.setattr(hierarchy, "chernoff_bound", lambda p: -1.0)
        res = invoke(runner, "sweep", "--lambdas", "2", "--ratios", "0.5")
        assert res.exit_code == 1
        assert res.output.splitlines()[-1].endswith(",-1.0,False")

    @pytest.mark.parametrize("lambdas", ["inf", "nan", "1e12", "0"])
    def test_sweep_lambda_without_exact_tail_exits_two(self, runner, lambdas):
        # not finite, a window of over MAX_TAIL_COUNTS counts, or no mean
        res = invoke(runner, "sweep", "--lambdas", lambdas, "--ratios", "0.5")
        assert res.exit_code == 2, res.output

    def test_sweep_takes_no_trials_or_seed(self, runner):
        for option in ("--trials", "--seed"):
            assert invoke(runner, "sweep", option, "5").exit_code == 2

    def test_sweep_at_a_million_is_quick(self, runner):
        # O(sqrt(lambda)) work: two windows of about 24,000 counts
        t0 = time.perf_counter()
        res = invoke(runner, "sweep", "--lambdas", "1000000", "--ratios", "0.5")
        assert time.perf_counter() - t0 < 1.0
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1] == "1000000.0,500000.0,0.0,0.0,True"


ONE_EDGE_RESULT = {
    "format": 1,
    "points": {"format": 1, "seed": 0, "reds": [[0.0, 0.5]], "blues": [[1.0, 0.5]],
               "domain": {"kind": "strip", "x0": 0.0, "x1": 2.0, "y0": 0.0, "y1": 1.0}},
    "matching": {"format": 1, "kind": "perfect", "edges": [[0, 0]]},
}
NO_DOMAIN_RESULT = {**ONE_EDGE_RESULT, "points": {
    k: v for k, v in ONE_EDGE_RESULT["points"].items() if k != "domain"}}
VERIFY = ["verify", "--property", "planarity", "--in"]
VERIFY_ARCS = ["verify", "--property", "arcs", "--in"]


def _with_arc(vertices, **fields):
    """The one-edge result carrying one arc with the given vertices, and any
    other arc fields overridden."""
    arc = {"edge": [0, 0], "height": 0.25, "lowest": 0.5, "depth": 1,
           "vertices": vertices, **fields}
    return json.dumps({**ONE_EDGE_RESULT, "arcs": [arc]})


ARC_VERTICES = [[0.0, 0.5], [0.0, 0.25], [1.0, 0.25], [1.0, 0.5]]
ARC_RESULT = _with_arc(ARC_VERTICES)
THREE_VERTEX_ARC = _with_arc([[0.0, 0.5], [0.0, 0.25], [1.0, 0.5]])
NAN_VERTEX_ARC = _with_arc([[0.0, 0.5], [0.0, float("nan")], [1.0, 0.25], [1.0, 0.5]])
DICT_COORDINATE_ARC = _with_arc([[0.0, 0.5], [{"y": 0.25}, 0.25], [1.0, 0.25], [1.0, 0.5]])
NULL_ARCS = json.dumps({**ONE_EDGE_RESULT, "arcs": None})
NULL_EDGE_ARC = _with_arc(ARC_VERTICES, edge=None)
NULL_EDGES = json.dumps({**ONE_EDGE_RESULT, "matching": {
    **ONE_EDGE_RESULT["matching"], "edges": None}})
TOP_LEVEL_LIST = json.dumps([ONE_EDGE_RESULT])
RENDER = ["render", "--out", os.devnull, "--in"]
STATS_ETA = ["stats", "--kind", "eta", "--in"]
LINE_RESULT = json.dumps({**ONE_EDGE_RESULT, "points": {
    **ONE_EDGE_RESULT["points"], "reds": [[0.0, 0.0]], "blues": [[1.0, 0.0]],
    "domain": {"kind": "line", "x0": 0.0, "x1": 2.0, "y0": 0.0, "y1": 0.0}}})
MINIMALITY = ["verify", "--property", "minimality"]
# red 1 in two one-color edges, though neither column repeats an index
ONE_COLOR_REUSE = json.dumps({**ONE_EDGE_RESULT, "points": {
    **ONE_EDGE_RESULT["points"], "reds": [[0.0, 0.5], [0.5, 0.2], [1.5, 0.5]]},
    "matching": {"format": 1, "kind": "partial", "color_mode": "one_color",
                 "edges": [[0, 1], [1, 2]]}})
# edge (0, 1) is in range only if its second index names a red
UNKNOWN_COLOR_MODE = json.dumps({**ONE_EDGE_RESULT, "points": {
    **ONE_EDGE_RESULT["points"], "reds": [[0.0, 0.5], [0.5, 0.2]]},
    "matching": {"format": 1, "kind": "partial", "color_mode": "three_color",
                 "edges": [[0, 1]]}})

# a strip result at x = 1e300 that states the block system of offsets r = [0, 0, 1]
BEYOND_INT64 = json.dumps({**ONE_EDGE_RESULT, "points": {
    **ONE_EDGE_RESULT["points"], "reds": [[1.2e300, 0.5]], "blues": [[1.5e300, 0.5]],
    "domain": {"kind": "strip", "x0": 1e300, "x1": 2e300, "y0": 0.0, "y1": 1.0}},
    "diagnostics": {"offsets": {"r": [0, 0, 1], "t": [0, 0, 1]}}})

POINT_SET = json.dumps(ONE_EDGE_RESULT["points"])
LINE_POINTS = json.dumps(json.loads(LINE_RESULT)["points"])
PLANE_POINTS = json.dumps({**ONE_EDGE_RESULT["points"], "domain": {
    "kind": "plane", "x0": 0.0, "x1": 2.0, "y0": 0.0, "y1": 1.0}})

# bounds stored as strings compare as strings, so the window looked valid;
# render and stats then crashed, and match wrote the strings back out
STRING_BOUNDS = json.dumps({**ONE_EDGE_RESULT, "points": {
    **ONE_EDGE_RESULT["points"], "domain": {
        **ONE_EDGE_RESULT["points"]["domain"], "x0": "0", "x1": "20"}}})
STRING_BOUNDS_POINTS = json.dumps(json.loads(STRING_BOUNDS)["points"])
STRING_BOUND = "domain bound x0 must be a number, got '0'"
# a bound that Python reads as an int but no float holds
HUGE_BOUND = json.dumps({**ONE_EDGE_RESULT, "points": {
    **ONE_EDGE_RESULT["points"], "domain": {
        **ONE_EDGE_RESULT["points"]["domain"], "x1": 10 ** 400}}})


def _with_points(**fields):
    """The one-edge result's point set with ``fields`` overridden."""
    return json.dumps({**ONE_EDGE_RESULT["points"], **fields})


def _match(construction):
    return ["match", "--construction", construction, "--out", os.devnull, "--in"]


# command line, the text of the file appended as its last argument, and a
# part of the error message that names the cause
BAD_INPUTS = {
    "window_not_numbers": (["sample", "--seed", "1", "--window", "a,b"], None,
                           "could not convert"),
    "one_stage_hierarchy": (["match", "--construction", "hierarchical",
                             "--stages", "1"], None, "'--stages'"),
    "no_laminate_bands": (["match", "--construction", "laminate", "--bands", "0"],
                          None, "strip result"),
    # a --disk that is not three numbers used to report only Python's
    # unpacking or float conversion error
    "disk_without_radius": (["stats", "--kind", "crossings", "--disk", "1,2", "--in"],
                            json.dumps(ONE_EDGE_RESULT), "--disk cx,cy,r"),
    "disk_of_four_values": (["stats", "--kind", "crossings", "--disk", "1,2,3,4", "--in"],
                            json.dumps(ONE_EDGE_RESULT), "--disk cx,cy,r"),
    "disk_not_numbers": (["stats", "--kind", "crossings", "--disk", "a,b,c", "--in"],
                         json.dumps(ONE_EDGE_RESULT), "--disk cx,cy,r"),
    # NaN passes a plain `<= 0` test, and numpy's Poisson draw rejected NaN
    # and inf intensities only with messages of its own
    "sample_lambda_nan": (["sample", "--seed", "1", "--lambda-red", "nan"], None,
                          "intensities must be positive and finite"),
    "sample_lambda_inf": (["sample", "--seed", "1", "--lambda-blue", "inf"], None,
                          "intensities must be positive and finite"),
    "hierarchical_lambda_nan": (["match", "--construction", "hierarchical", "--stages", "2",
                                 "--lambda-blue", "nan"], None,
                                "intensities must be positive and finite"),
    "hierarchical_lambda_inf": (["match", "--construction", "hierarchical", "--stages", "2",
                                 "--lambda-red", "inf"], None,
                                "intensities must be positive and finite"),
    # NaN passes a plain `<= 0` test, so these used to exit 0 with 0 cells / mean 0
    "disk_nan_centre": (["stats", "--kind", "crossings", "--disk", "nan,1,1", "--in"],
                        json.dumps(ONE_EDGE_RESULT), "must be finite"),
    "disk_nan_radius": (["stats", "--kind", "crossings", "--disk", "1,1,nan", "--in"],
                        json.dumps(ONE_EDGE_RESULT), "must be finite"),
    "disk_inf_centre": (["stats", "--kind", "crossings", "--disk", "1,inf,1", "--in"],
                        json.dumps(ONE_EDGE_RESULT), "must be finite"),
    "box_side_nan": (["stats", "--kind", "box-rematch", "--box-side", "nan", "--in"],
                     json.dumps(ONE_EDGE_RESULT), "square side"),
    "box_side_inf": (["stats", "--kind", "box-rematch", "--box-side", "inf", "--in"],
                     json.dumps(ONE_EDGE_RESULT), "square side"),
    # cells of side 5e-324 overflow to inf, and the edge's two ends shared one
    "box_side_too_small": (["stats", "--kind", "box-rematch", "--box-side", "5e-324", "--in"],
                           json.dumps(ONE_EDGE_RESULT), "square side"),
    # every edge lies on the line; this used to exit 0, or 2 naming collinear overlaps
    "planarity_on_line": (VERIFY, LINE_RESULT, "strip or plane domain"),
    "no_domain_key": (VERIFY, json.dumps(NO_DOMAIN_RESULT), "'domain'"),
    "truncated_json": (VERIFY, json.dumps(ONE_EDGE_RESULT)[:40], "Unterminated string"),
    "unknown_format": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "format": 99}),
                       "unsupported format"),
    # the nested versions used to go unchecked, so these exited 0
    "unknown_points_format": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "points": {
        **ONE_EDGE_RESULT["points"], "format": 99}}), "unsupported points format"),
    "unknown_matching_format": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "format": 99}}), "unsupported matching format"),
    "three_vertex_arc_planarity": (VERIFY, THREE_VERTEX_ARC, "four finite 2-D vertices"),
    "three_vertex_arc_arcs": (VERIFY_ARCS, THREE_VERTEX_ARC, "four finite 2-D vertices"),
    "nan_vertex_planarity": (VERIFY, NAN_VERTEX_ARC, "four finite 2-D vertices"),
    "nan_vertex_arcs": (VERIFY_ARCS, NAN_VERTEX_ARC, "four finite 2-D vertices"),
    "dict_coordinate_planarity": (VERIFY, DICT_COORDINATE_ARC, "four finite 2-D vertices"),
    "dict_coordinate_arcs": (VERIFY_ARCS, DICT_COORDINATE_ARC, "four finite 2-D vertices"),
    "arcs_without_arcs_key": (VERIFY_ARCS, json.dumps(ONE_EDGE_RESULT), "has no arcs"),
    # wrongly typed fields, caught where the file is loaded
    "null_arcs_planarity": (VERIFY, NULL_ARCS, "malformed input"),
    "null_arcs_arcs": (VERIFY_ARCS, NULL_ARCS, "malformed input"),
    "null_arcs_render": (RENDER, NULL_ARCS, "malformed input"),
    "null_arc_edge_planarity": (VERIFY, NULL_EDGE_ARC, "edge of two indices"),
    "null_arc_edge_arcs": (VERIFY_ARCS, NULL_EDGE_ARC, "edge of two indices"),
    "null_edges_planarity": (VERIFY, NULL_EDGES, "rows of two"),
    "null_edges_arcs": (VERIFY_ARCS, NULL_EDGES, "rows of two"),
    "top_level_list_planarity": (VERIFY, TOP_LEVEL_LIST, "not a JSON object"),
    "top_level_list_arcs": (VERIFY_ARCS, TOP_LEVEL_LIST, "not a JSON object"),
    "top_level_list_stats": (STATS_ETA, TOP_LEVEL_LIST, "not a JSON object"),
    "config_top_level_list": (["sample", "--seed", "1", "--config"], "[1, 2]",
                              "not a JSON object"),
    # stated kind and unmatched lists must be those the edges give; these
    # used to pass, and the false list reached the output
    "unmatched_reds_disagree": (STATS_ETA, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "unmatched_reds": [0]}}), "unmatched_reds"),
    "kind_disagrees": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "kind": "partial"}}), "stated kind"),
    "unknown_color_mode": (VERIFY, UNKNOWN_COLOR_MODE, "color_mode"),
    "one_color_red_in_two_edges": (VERIFY, ONE_COLOR_REUSE, "two edges"),
    # the cells would pair reds with the blues of the same indices
    "box_rematch_one_color": (["stats", "--kind", "box-rematch", "--in"], json.dumps({
        **json.loads(ONE_COLOR_REUSE), "matching": {
            "format": 1, "kind": "partial", "color_mode": "one_color", "edges": [[0, 1]]}}),
        "two-color matching"),
    # the exact certificate samples nothing: the subset size, trial count and
    # seed of the sampled one are no options, whatever their value
    "minimality_k_0": ([*MINIMALITY, "--k", "0", "--in"], LINE_RESULT, "No such option '--k'"),
    "minimality_k_9": ([*MINIMALITY, "--k", "9", "--in"], LINE_RESULT, "No such option '--k'"),
    "minimality_trials_0": ([*MINIMALITY, "--trials", "0", "--in"], LINE_RESULT,
                            "No such option '--trials'"),
    "minimality_trials_negative": ([*MINIMALITY, "--trials", "-3", "--in"], LINE_RESULT,
                                   "No such option '--trials'"),
    "minimality_seed": ([*MINIMALITY, "--seed", "0", "--in"], LINE_RESULT,
                        "No such option '--seed'"),
    # improvable is no property: minimality is exact on every domain
    "property_improvable": (["verify", "--property", "improvable", "--in"],
                            json.dumps(ONE_EDGE_RESULT), "Invalid value for '--property'"),
    # the window's corner cell does not fit the int64 block lookup; this
    # used to exit 1 with an OverflowError traceback. The file states a
    # valid block system, so the lookup is what fails
    "blocks_window_beyond_int64": (
        ["render", "--blocks", "2", "--out", os.devnull, "--in"], BEYOND_INT64, "2**53"),
    # edges are read as one array: each malformed shape or type is an input error
    "ragged_edges": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "edges": [[0, 0], [0]]}}), "sequence"),
    "float_edge": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "edges": [[0.0, 0]]}}), "must be integers"),
    "string_edge": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "edges": [["0", 0]]}}), "must be integers"),
    "three_index_edge": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "edges": [[0, 0, 0]]}}), "rows of two"),
    "object_edges": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "edges": {"0": 0}}}), "rows of two"),
    # arc columns are checked whole when the file is read, for every command
    "negative_arc_edge_arcs": (VERIFY_ARCS, _with_arc(ARC_VERTICES, edge=[0, -1]),
                               "edge of two indices"),
    "float_arc_depth_planarity": (VERIFY, _with_arc(ARC_VERTICES, depth=1.5),
                                  "integer depth"),
    "arc_without_height_arcs": (VERIFY_ARCS, json.dumps({**ONE_EDGE_RESULT, "arcs": [
        {"edge": [0, 0], "lowest": 0.5, "depth": 1, "vertices": ARC_VERTICES}]}),
        "'height'"),
    "three_vertex_arc_render": (RENDER, THREE_VERTEX_ARC, "four finite 2-D vertices"),
    "nan_vertex_render": (RENDER, NAN_VERTEX_ARC, "four finite 2-D vertices"),
    # points, edges and y-ranges of the wrong shape; each of these used to
    # be read as something else and exit 0
    "reds_one_flat_row": (["match", "--construction", "excursion", "--out", os.devnull,
                           "--in"], json.dumps({**ONE_EDGE_RESULT["points"], "reds": [
                               [0.1, 0.5, 0.3, 0.5, 0.5, 0.5, 0.7, 0.5, 0.9, 0.5]]}),
                          "rows of two"),
    "reds_flat_list": (STATS_ETA, json.dumps({**ONE_EDGE_RESULT, "points": {
        **ONE_EDGE_RESULT["points"], "reds": [0.0, 0.5]}}), "rows of two"),
    "edges_nested_too_deep": (VERIFY, json.dumps({**ONE_EDGE_RESULT, "matching": {
        **ONE_EDGE_RESULT["matching"], "edges": [[[0, 0]]]}}), "rows of two"),
    "strip_y1_not_1": (STATS_ETA, json.dumps({**ONE_EDGE_RESULT, "points": {
        **ONE_EDGE_RESULT["points"], "domain": {
            "kind": "strip", "x0": 0.0, "x1": 2.0, "y0": 0.0, "y1": 7.0}}}),
        "strip domain"),
    "line_y1_not_0": (STATS_ETA, json.dumps({**json.loads(LINE_RESULT), "points": {
        **json.loads(LINE_RESULT)["points"], "domain": {
            "kind": "line", "x0": 0.0, "x1": 2.0, "y0": 0.0, "y1": 1.0}}}), "line domain"),
    # the walk counts a red left of the window, the zero blocks do not; it
    # failed as an unbalanced zero block, and is now refused as it is read
    "zero_block_point_left_of_window": (
        ["match", "--construction", "zero_block", "--out", os.devnull, "--in"],
        json.dumps({**ONE_EDGE_RESULT["points"], "reds": [[-1.0, 0.5]],
                    "blues": [[1.0, 0.5]]}), "lies outside its window"),
    # each command's own checks of its flags and of the kind of file it reads
    "plane_window_of_two_numbers": (["sample", "--seed", "1", "--domain", "plane",
                                     "--window", "0,10"], None, "x0,x1,y0,y1"),
    "strip_window_of_four_numbers": (["sample", "--seed", "1", "--domain", "strip",
                                      "--window", "0,5,3,9"], None,
                                     "a strip window is x0,x1, got 4 numbers"),
    "line_window_of_four_numbers": (["sample", "--seed", "1", "--domain", "line",
                                     "--window", "0,5,3,9"], None,
                                    "a line window is x0,x1, got 4 numbers"),
    "laminate_window_of_four_numbers": (["match", "--construction", "laminate",
                                         "--window", "0,5,3,9"], None,
                                        "a strip window is x0,x1, got 4 numbers"),
    "construction_without_in": (["match", "--construction", "excursion"], None,
                                "--in is required"),
    "one_color_on_line": (_match("one_color"), LINE_POINTS, "one_color requires a strip"),
    "cut_time_on_line": (_match("cut_time"), LINE_POINTS, "cut_time requires a strip"),
    "excursion_on_plane": (_match("excursion"), PLANE_POINTS,
                           "walk requires a line or strip domain"),
    "verify_point_set": (VERIFY, POINT_SET, "has no matching"),
    "stats_point_set": (STATS_ETA, POINT_SET, "has no matching"),
    "render_walk_on_plane": (["render", "--walk", "--out", os.devnull, "--in"],
                             PLANE_POINTS, "walk requires a line or strip domain"),
    # domain bounds and seeds of the wrong type, caught where the file is read
    "string_bounds_render": (RENDER, STRING_BOUNDS, STRING_BOUND),
    "string_bounds_stats_eta": (STATS_ETA, STRING_BOUNDS, STRING_BOUND),
    "string_bounds_stats_crossings": (["stats", "--kind", "crossings", "--in"],
                                      STRING_BOUNDS, STRING_BOUND),
    "string_bounds_stats_box_rematch": (["stats", "--kind", "box-rematch", "--in"],
                                        STRING_BOUNDS, STRING_BOUND),
    "string_bounds_match": (_match("excursion"), STRING_BOUNDS_POINTS, STRING_BOUND),
    "bool_bound_match": (_match("excursion"), _with_points(domain={
        **ONE_EDGE_RESULT["points"]["domain"], "x1": True}),
        "domain bound x1 must be a number, got True"),
    "infinite_bound_match": (_match("excursion"), _with_points(domain={
        **ONE_EDGE_RESULT["points"]["domain"], "x1": float("inf")}),
        "domain bounds must be finite"),
    # numbers too large for a float; each used to exit 1 with an
    # OverflowError traceback
    "huge_bound_stats_eta": (STATS_ETA, HUGE_BOUND, "domain bound x1 is too large"),
    "huge_bound_stats_crossings": (["stats", "--kind", "crossings", "--in"], HUGE_BOUND,
                                   "domain bound x1 is too large"),
    "huge_bound_render": (RENDER, HUGE_BOUND, "domain bound x1 is too large"),
    "huge_coordinate_match": (_match("excursion"), _with_points(reds=[[10 ** 400, 0.5]]),
                              "malformed input"),
    "huge_arc_height_arcs": (VERIFY_ARCS, _with_arc(ARC_VERTICES, height=10 ** 400),
                             "malformed input"),
    "plane_string_bound_match": (_match("min_cost"), _with_points(domain={
        "kind": "plane", "x0": 0.0, "x1": 2.0, "y0": 0.0, "y1": "1"}),
        "domain bound y1 must be a number, got '1'"),
    "string_seed_match": (_match("excursion"), _with_points(seed="3"),
                          "seed must be an integer, got '3'"),
    "float_seed_match": (_match("excursion"), _with_points(seed=3.0),
                         "seed must be an integer, got 3.0"),
    # a window of positive sides whose area underflows to 0.0
    "plane_window_of_zero_measure": (["sample", "--seed", "1", "--domain", "plane",
                                      "--window", "0,1e-200,0,1e-200"], None,
                                     "window has zero measure"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_usage_error(runner, tmp_path, name):
    args, text, cause = BAD_INPUTS[name]
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        args = [*args, str(path)]
    res = invoke(runner, *args)
    assert res.exit_code == 2, res.output
    assert "Error:" in res.output and "Traceback" not in res.output
    assert cause in res.output


# files whose points lie outside their window, and the first such point: a
# strip (0, 2) edge at x = 1e300 made box rematch print overflow warnings
# and exit 2 with "cost matrix is infeasible"
OUTSIDE_THE_WINDOW = {
    "far_edge_box_rematch": (["stats", "--kind", "box-rematch", "--box-side", "1e-10", "--in"],
                             json.dumps({**ONE_EDGE_RESULT, "points": {
                                 **ONE_EDGE_RESULT["points"], "reds": [[1e300, 0.5]],
                                 "blues": [[1.5e300, 0.5]]}}),
                             "(1e+300, 0.5)"),
    "blue_left_of_a_point_set": (_match("excursion"), _with_points(blues=[[-0.5, 0.5]]),
                                 "(-0.5, 0.5)"),
    "off_the_line": (STATS_ETA, json.dumps({**json.loads(LINE_RESULT), "points": {
        **json.loads(LINE_RESULT)["points"], "blues": [[1.0, 0.5]]}}), "(1.0, 0.5)"),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_THE_WINDOW))
def test_points_outside_the_window_are_usage_errors(runner, tmp_path, name):
    args, text, point = OUTSIDE_THE_WINDOW[name]
    path = tmp_path / "input.json"
    path.write_text(text)
    res = invoke(runner, *args, str(path))
    assert res.exit_code == 2, res.output
    assert f"Error: the point {point} in {path} lies outside its window" in res.output
    assert "Warning" not in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("args,text", [
    (["stats", "--kind", "box-rematch", "--box-side", "5e-324", "--in"],
     json.dumps(ONE_EDGE_RESULT)),
    (["sample", "--seed", "1", "--config"], "{"),
], ids=["raised_while_running", "raised_reading_flags"])
def test_value_error_in_a_command_prints_the_commands_usage(runner, tmp_path, args, text):
    # it used to print the group's line, "Usage: main [OPTIONS] COMMAND [ARGS]..."
    path = tmp_path / "input.json"
    path.write_text(text)
    res = invoke(runner, *args, str(path))
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"Usage: main {args[0]} [OPTIONS]\n")


@pytest.mark.parametrize("stages", ["7", "12"])
def test_stages_out_of_reach_are_usage_errors(runner, monkeypatch, stages):
    # N=7 needs a dense solve of over 56 GB and N=12 an array numpy refuses:
    # the bound must stop both before anything is sampled or built
    def unreachable(*args, **kwargs):
        raise AssertionError("--stages passed its bound")
    monkeypatch.setattr(cli, "sample", unreachable)
    monkeypatch.setattr(hierarchy, "build_block_system", unreachable)
    res = invoke(runner, "match", "--construction", "hierarchical", "--stages", stages)
    assert res.exit_code == 2, res.output
    assert "--stages" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("blocks", ["7", "8"])
def test_blocks_out_of_reach_are_usage_errors(runner, monkeypatch, tmp_path, blocks):
    # level 7 has 3.6M level-1 cells and level 8 would allocate 3.2 GB in
    # ``grids``: the bound must stop both before a block system is built
    def unreachable(*args, **kwargs):
        raise AssertionError("--blocks passed its bound")
    monkeypatch.setattr(hierarchy.BlockSystem, "from_offsets", unreachable)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(ONE_EDGE_RESULT))
    out = tmp_path / "out.svg"
    res = invoke(runner, "render", "--in", str(path), "--blocks", blocks, "--out", str(out))
    assert res.exit_code == 2, res.output
    assert "--blocks" in res.output and "Traceback" not in res.output and not out.exists()


def _with_offsets(**offsets):
    return json.dumps({**ONE_EDGE_RESULT, "diagnostics": {"offsets": offsets}})


# render --blocks draws the block system the file states: --blocks, the
# file's text, and a part of the error message
BAD_BLOCKS = {
    "no_diagnostics": ("1", json.dumps(ONE_EDGE_RESULT), "'diagnostics'"),
    "no_r": ("1", _with_offsets(t=[0, 0, 1]), "'r'"),
    "r_not_a_list": ("1", _with_offsets(r=12), "malformed input"),
    "r_one_level": ("1", _with_offsets(r=[0, 0]), "malformed block offsets"),
    "r_out_of_range": ("1", _with_offsets(r=[0, 0, 2]), "malformed block offsets"),
    "r_negative": ("1", _with_offsets(r=[0, 0, 1, -1]), "malformed block offsets"),
    "r_float": ("1", _with_offsets(r=[0, 0, 1.0]), "malformed block offsets"),
    "r_first_not_0": ("1", _with_offsets(r=[1, 0, 1]), "malformed block offsets"),
    "t_disagrees": ("1", _with_offsets(r=[0, 0, 1], t=[0, 0, 0]), "disagree"),
    "above_the_files_level": ("3", _with_offsets(r=[0, 0, 1], t=[0, 0, 1]), "N=2"),
    "window_beyond_int64": ("2", BEYOND_INT64, "2**53"),
}


@pytest.mark.parametrize("name", sorted(BAD_BLOCKS))
def test_render_blocks_of_a_bad_block_system_is_usage_error(runner, tmp_path, name):
    blocks, text, message = BAD_BLOCKS[name]
    path, out = tmp_path / "input.json", tmp_path / "out.svg"
    path.write_text(text)
    res = invoke(runner, "render", "--in", str(path), "--blocks", blocks, "--out", str(out))
    assert res.exit_code == 2, res.output
    assert message in res.output and "Traceback" not in res.output and not out.exists()


def test_render_blocks_draw_the_files_own_system(runner, tmp_path):
    # a seed-3 file rendered with no seed draws seed 3's blocks; it used to
    # draw seed 0's unless --seed 3 was given again
    path, out = tmp_path / "h.json", tmp_path / "h.svg"
    invoke(runner, "match", "--construction", "hierarchical", "--seed", "3", "--stages", "3",
           "--out", str(path))
    res = invoke(runner, "render", "--in", str(path), "--blocks", "3", "--out", str(out))
    assert res.exit_code == 0, res.output
    ps, m, _, _ = cli._load_result(str(path))

    def drawn(seed):
        system = hierarchy.build_block_system(seed, 3)
        cells = hierarchy.window_grids(system, 3, ps.domain.window_rect())
        return "".join(render_scene(ps, m, blocks=[(n, system.rects(n, cells[n]))
                                                   for n in (3, 2, 1)]))

    assert out.read_text() == drawn(3) != drawn(0)


@pytest.mark.parametrize("seed,N", [(2, 3), (1, 5)])
def test_render_blocks_draw_every_block_of_the_window(runner, tmp_path, seed, N):
    # --blocks b < N used to draw only the level-b block at the window's
    # lower-left corner and the blocks inside it
    path, out = tmp_path / "h.json", tmp_path / "h.svg"
    invoke(runner, "match", "--construction", "hierarchical", "--seed", str(seed),
           "--stages", str(N), "--out", str(path))
    levels = json.loads(path.read_text())["diagnostics"]["levels"]
    for b in range(1, N + 1):
        res = invoke(runner, "render", "--in", str(path), "--blocks", str(b), "--out", str(out))
        assert res.exit_code == 0, res.output
        rects = [line for line in out.read_text().splitlines() if 'class="block"' in line]
        drawn = {n: sum(f'stroke="{render.BLOCK_COLORS[n]}"' in line for line in rects)
                 for n in range(1, N + 1)}
        assert drawn == {n: levels[str(n)]["blocks"] if n <= b else 0 for n in drawn}


def test_edges_read_as_tuples_of_plain_ints(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**ONE_EDGE_RESULT, "points": {
        **ONE_EDGE_RESULT["points"], "reds": [[0.0, 0.5], [0.5, 0.2]],
        "blues": [[1.0, 0.5], [1.5, 0.1]]},
        "matching": {"format": 1, "kind": "perfect", "edges": [[1, 0], [0, 1]]}}))
    _, m, _, _ = cli._load_result(str(path))
    assert m.edges == [(1, 0), (0, 1)]
    assert all(type(i) is int and type(j) is int for i, j in m.edges)
    assert m._edge_array().dtype == np.int64


def _moved(arcs):
    return [{**a, "vertices": [[x + 1000.0, y] for x, y in a["vertices"]]} for a in arcs]


# arcs that do not draw the file's matching; planarity used to read each of
# the first two as a planar drawing and exit 0
UNDRAWN_ARCS = {
    "emptied": lambda arcs: [],
    "moved_off_their_points": _moved,
    "pair_not_an_edge": lambda arcs: [
        {**arcs[0], "edge": [arcs[0]["edge"][0], arcs[1]["edge"][1]]}, *arcs[1:]],
    "edge_drawn_twice": lambda arcs: [arcs[0], arcs[0], *arcs[2:]],
}


@pytest.mark.parametrize("name", sorted(UNDRAWN_ARCS))
def test_planarity_on_arcs_that_do_not_draw_the_matching_is_usage_error(
        runner, pinned_inputs, tmp_path, name):
    d = json.loads(pinned_inputs["excursion"].read_text())
    assert len(d["arcs"]) >= 2
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({**d, "arcs": UNDRAWN_ARCS[name](d["arcs"])}))
    res = invoke(runner, *VERIFY, str(path))
    assert res.exit_code == 2, res.output
    assert "arc" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("command", [VERIFY_ARCS, RENDER], ids=["arcs", "render"])
@pytest.mark.parametrize("name", sorted(UNDRAWN_ARCS))
def test_every_command_reading_arcs_rejects_arcs_that_do_not_draw_the_matching(
        runner, pinned_inputs, tmp_path, command, name):
    # arcs are read once, as the drawing of the matching: verify --property
    # arcs used to pass the first two (the emptied list with trials 0), and
    # render drew them
    d = json.loads(pinned_inputs["excursion"].read_text())
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({**d, "arcs": UNDRAWN_ARCS[name](d["arcs"])}))
    res = invoke(runner, *command, str(path))
    assert res.exit_code == 2, res.output
    assert "arc" in res.output and "Traceback" not in res.output


def test_laminate_arcs_draw_the_matching_out_of_edge_order(runner, tmp_path):
    path = tmp_path / "lam.json"
    invoke(runner, "match", "--construction", "laminate", "--seed", "4", "--bands", "2",
           "--window", "0,20", "--out", str(path))
    d = json.loads(path.read_text())
    edges = d["matching"]["edges"]
    assert [a["edge"] for a in d["arcs"]] != edges
    res = invoke(runner, *VERIFY, str(path))
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["trials"] == len(edges) * (len(edges) - 1) // 2


@pytest.mark.parametrize("construction", ["hierarchical", "laminate"])
def test_match_in_where_it_is_not_read_is_usage_error(runner, tmp_path, construction):
    pts = sample_file(runner, tmp_path)
    res = invoke(runner, "match", "--in", str(pts), "--construction", construction,
                 "--stages", "2", "--seed", "1")
    assert res.exit_code == 2
    assert "--in" in res.output


def test_one_edge_result_is_valid(runner, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(ONE_EDGE_RESULT))
    assert invoke(runner, *VERIFY, str(path)).exit_code == 0
    # a strip, so the cycle search, which has no arc to try
    res = invoke(runner, *MINIMALITY, "--in", str(path))
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["property"] == "minimality_cycles"
    assert json.loads(res.output)["trials"] == 0


def test_minimality_reports_gaps_checked(runner, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(LINE_RESULT)
    res = invoke(runner, *MINIMALITY, "--in", str(path))
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["trials"] == 1
    # two edges over [2, 3], where one red and one blue lie to the left
    crossed = json.loads(LINE_RESULT)
    crossed["points"].update(reds=[[1.0, 0.0], [4.0, 0.0]], blues=[[2.0, 0.0], [3.0, 0.0]])
    crossed["points"]["domain"]["x1"] = 5.0
    crossed["matching"]["edges"] = [[0, 1], [1, 0]]
    path.write_text(json.dumps(crossed))
    res = invoke(runner, *MINIMALITY, "--in", str(path))
    assert res.exit_code == 1, res.output
    assert json.loads(res.output)["violations"] == [
        {"gap": [2.0, 3.0], "coverage": 2, "discrepancy": 0, "edges": [0, 1]}]
    empty = json.loads(LINE_RESULT)
    empty["matching"] = {"format": 1, "kind": "partial", "edges": []}
    path.write_text(json.dumps(empty))
    res = invoke(runner, *MINIMALITY, "--in", str(path))
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["trials"] == 0


@pytest.mark.parametrize("construction,exit_code", [("min_cost", 0), ("excursion", 1)])
def test_minimality_counts_arcs_from_the_file(runner, tmp_path, monkeypatch,
                                              construction, exit_code):
    # a plane min-cost result and a strip excursion result, both certified
    # by the cycle search; the arc count comes from the matching's edge
    # array: its list of edge tuples is never built
    points = (sample_file(runner, tmp_path, domain="plane", window="0,3,0,3", seed=1)
              if construction == "min_cost" else sample_file(runner, tmp_path))
    result = tmp_path / "m.json"
    invoke(runner, "match", "--in", str(points), "--construction", construction,
           "--out", str(result))
    n = len(json.loads(result.read_text())["matching"]["edges"])
    monkeypatch.setattr(Matching, "edges", property(lambda m: pytest.fail("edge tuples built")))
    res = invoke(runner, *MINIMALITY, "--in", str(result))
    assert res.exit_code == exit_code, res.output
    report = json.loads(res.output)
    assert report["property"] == "minimality_cycles"
    assert n >= 2 and report["trials"] == n * (n - 1)
    assert len(report["violations"]) == exit_code


@pytest.mark.parametrize("command", [VERIFY, VERIFY_ARCS])
def test_well_formed_arc_is_valid(runner, tmp_path, command):
    # the malformed arc inputs above differ from this one in one vertex
    path = tmp_path / "input.json"
    path.write_text(ARC_RESULT)
    res = invoke(runner, *command, str(path))
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["trials"] == (0 if command == VERIFY else 3)


@pytest.mark.parametrize("flags", [["--blocks", "-1"], ["--width", "10"],
                                   ["--width", "40"], ["--height", "0"],
                                   ["--height", "-5"]])
def test_render_without_drawing_area_is_usage_error(runner, tmp_path, flags):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(ONE_EDGE_RESULT))
    out = tmp_path / "out.svg"
    res = invoke(runner, "render", "--in", str(path), *flags, "--out", str(out))
    assert res.exit_code == 2, res.output
    assert "Error:" in res.output and not out.exists()


# no element is drawn, so the body between the tags is one blank line
EMPTY_SVG = (b'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="400" '
             b'viewBox="0 0 800 400">\n\n</svg>\n')


@pytest.mark.parametrize("flags", [[], ["--walk"]], ids=["plain", "walk"])
def test_empty_scene_keeps_its_blank_line(runner, tmp_path, flags):
    path, out = tmp_path / "empty.json", tmp_path / "empty.svg"
    res = invoke(runner, "sample", "--seed", "3", "--window", "0,0.01", "--out", str(path))
    assert res.exit_code == 0, res.output
    points = json.loads(path.read_text())
    assert points["reds"] == points["blues"] == []
    res = invoke(runner, "render", "--in", str(path), *flags, "--out", str(out))
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == EMPTY_SVG


def test_smallest_drawing_area_renders(runner, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(ONE_EDGE_RESULT))
    out = tmp_path / "out.svg"
    res = invoke(runner, "render", "--in", str(path), "--width", "41",
                 "--height", "41", "--blocks", "0", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert out.read_text().startswith("<svg")


class TestConfigAndStats:
    def test_config_file_supplies_defaults(self, runner, tmp_path):
        # no value is the flag's default, so an ignored key shows; keys are
        # the long flags, with "-" or "_"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "domain": "line", "window": "0,30",
                                   "lambda_red": 2.0, "lambda-blue": 0.5}))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert invoke(runner, "sample", "--config", str(cfg), "--out", str(a)).exit_code == 0
        assert invoke(runner, "sample", "--seed", "7", "--domain", "line", "--window", "0,30",
                      "--lambda-red", "2", "--lambda-blue", "0.5",
                      "--out", str(b)).exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["domain"]["kind"] == "line"

    def test_config_keys_in_and_property(self, runner, tmp_path):
        # the flags --in and --property, whose values are in_path and prop
        line = sample_file(runner, tmp_path, domain="line")
        m = tmp_path / "m.json"
        invoke(runner, "match", "--in", str(line), "--construction", "excursion",
               "--out", str(m))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"in": str(m), "property": "minimality"}))
        res = invoke(runner, "verify", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        assert res.output == invoke(runner, "verify", "--in", str(m),
                                    "--property", "minimality").output
        assert json.loads(res.output)["property"] == "minimality_d1"

    def test_config_property_improvable_is_invalid(self, runner, tmp_path):
        # nor is improvable a property in a config file
        path = tmp_path / "input.json"
        path.write_text(json.dumps(ONE_EDGE_RESULT))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"in": str(path), "property": "improvable"}))
        res = invoke(runner, "verify", "--config", str(cfg))
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--property'" in res.output and "improvable" in res.output

    @pytest.mark.parametrize("command,key", [
        ("sample", "sed"), ("sample", "kind"), ("sample", "config"), ("sample", "--seed"),
        ("verify", "k"), ("verify", "trials"), ("verify", "in_path"), ("verify", "prop"),
        ("render", "no-walk"),
    ])
    def test_config_key_that_is_no_long_flag_is_named(self, runner, tmp_path, command, key):
        # a misspelled or removed flag, or a parameter's name in place of its flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 5}))
        res = invoke(runner, command, "--config", str(cfg))
        assert res.exit_code == 2, res.output
        assert f"unknown key {key!r}" in res.output

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        res = invoke(runner, "sample", "--config", str(cfg), "--seed", "8")
        assert json.loads(res.output)["seed"] == 8

    def test_config_that_is_not_an_object_is_named(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        res = invoke(runner, "sample", "--config", str(cfg), "--seed", "1")
        assert res.exit_code == 2 and "cfg.json is not a JSON object" in res.output

    def test_stats_commands_run(self, runner, tmp_path):
        pts = sample_file(runner, tmp_path)
        match = tmp_path / "m.json"
        invoke(runner, "match", "--in", str(pts), "--construction", "excursion",
               "--out", str(match))
        for kind in ("eta", "crossings", "box-rematch"):
            res = invoke(runner, "stats", "--in", str(match), "--kind", kind)
            assert res.exit_code == 0, (kind, res.output)
            json.loads(res.output)

    def test_eta_on_a_line_sums_the_interior_edges(self, runner, pinned_inputs):
        # a line's interior window is the middle half of its x-range, one
        # unit high, and the sum is over the edges whose red lies in it
        path = pinned_inputs["line_excursion"]
        res = invoke(runner, "stats", "--in", str(path), "--kind", "eta")
        assert res.exit_code == 0, res.output
        d = json.loads(path.read_text())
        domain, reds, blues = d["points"]["domain"], d["points"]["reds"], d["points"]["blues"]
        lo, hi = (3 * domain["x0"] + domain["x1"]) / 4, (domain["x0"] + 3 * domain["x1"]) / 4
        total = sum(math.dist(reds[i], blues[j]) for i, j in d["matching"]["edges"]
                    if lo <= reds[i][0] < hi)
        assert total > 0
        assert json.loads(res.output)["eta_hat"] == pytest.approx(total / (hi - lo), rel=1e-12)

    def test_verify_arcs_from_match_output(self, runner, tmp_path):
        pts = sample_file(runner, tmp_path)
        match = tmp_path / "m.json"
        invoke(runner, "match", "--in", str(pts), "--construction", "excursion",
               "--out", str(match))
        res = invoke(runner, "verify", "--in", str(match), "--property", "arcs")
        assert res.exit_code == 0, res.output


# SHA-256 of CLI outputs recorded before the assignment layer and the block
# walk were consolidated; a changed digest is a behaviour change. Commands
# name the files of ``pinned_inputs`` in braces; render digests cover the SVG.
PINNED = {
    "match_zero_block": ("match --construction zero_block --seed 3 --in {strip}",
                         "fe5f98d83b4aa5bd49478d89617efdb4c049b8101d4939a6719c639deb5f3c5a"),
    "match_one_color": ("match --construction one_color --seed 3 --in {strip}",
                        "43dc9d820fb75d70f5a930be5cb3c465bd1b793b01f655e49c7dfccd93e93e84"),
    "match_cut_time": ("match --construction cut_time --seed 3 --in {strip}",
                       "19ae9168ebfa7de1e9274ec9b6bbff05125cd690f83d7cae1a1041267c5ed8bf"),
    "match_excursion": ("match --construction excursion --seed 3 --in {strip}",
                        "cbe55d3747fd2d26f679cbbfa5cc6598869a429a00c63f131a5aa229d7890000"),
    "match_min_cost": ("match --construction min_cost --seed 3 --in {plane}",
                       "c043ea23327a603a6e3507c090829c87480bb5cf2df18430d6587e788dd643dd"),
    "match_hierarchical": ("match --construction hierarchical --seed 2 --stages 3",
                           "ade3151e5ea678e4eb54d6faa643da6e83aeef2949330380d137843638b6f5ce"),
    "match_laminate": ("match --construction laminate --seed 4 --bands 2 --window 0,20",
                       "8b5d6ac0c0b53022bc6e4d89107aa8e1b8e4bbea69487fff89d4150ad2d04a6f"),
    "verify_planarity": ("verify --in {excursion} --property planarity",
                         "f4a142e7c78233d3bc82ac60da501e2dd70c176be3613e97ee1cd158e3422a40"),
    "render_walk": ("render --in {excursion} --walk --out {svg}",
                    "259d35397be24b63949df5121da7116136acc4bbb3d4a39c2d06bc521d7fd04d"),
    "render_blocks_3": ("render --in {hier} --blocks 3 --out {svg}",
                        "25200fc175baffad97c3ba2a2250d522f9cd01bbeabab666221a6d0495286e22"),
    # re-pinned when --blocks below N came to draw every block of the window
    "render_blocks_1": ("render --in {hier} --blocks 1 --out {svg}",
                        "ac531f214a2c9956e3e478a54a7edfc31d62df85412d62011c7396afc9263a95"),
    # recorded before render streamed its layers: the line's fixed y-range,
    # the laminate's shifted plane bands, and sizes other than the default
    "render_line_walk": ("render --in {line_excursion} --walk --out {svg}",
                         "a5938672fedc0221fcc51eebf5e3c787e9febd6983c54268488fe9736991e58d"),
    "render_laminate": ("render --in {laminate} --out {svg}",
                        "ece9e1de2f67df76dba26656e6f52edc8c215b7da3188cc083db5ba91670283d"),
    "render_41x41_blocks_3": ("render --in {hier} --width 41 --height 41 --blocks 3 "
                              "--out {svg}",
                              "2a1324a4ca5f60152e91269cc3cf9d8d99753118db8c6a48a9be620fa4c1840c"),
    "render_1000x333_walk": ("render --in {excursion} --width 1000 --height 333 --walk "
                             "--out {svg}",
                             "e026f316ed16142a4208372895dbd53468330dab0ff868fe56b211e6ca3e0762"),
    # recorded when render read each column whole: 559 reds and 623 blues,
    # so the point layers take two blocks of render.ROWS_PER_BLOCK rows
    "render_long_walk": ("render --in {long_excursion} --walk --out {svg}",
                         "5eda53960c810db3f65bc94ac6028bf6c814a90edb44619655c58af335607fb9"),
}


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    """Small strip, plane, line, hierarchical and laminate input files
    shared by the cases."""
    runner = CliRunner()
    tmp = tmp_path_factory.mktemp("pinned")
    strip = sample_file(runner, tmp, "strip.json")
    plane = sample_file(runner, tmp, "plane.json", domain="plane",
                        window="0,3,0,3", seed=1)  # 9 reds, 9 blues
    line = sample_file(runner, tmp, "line.json", domain="line", window="0,40", seed=3)
    long_strip = sample_file(runner, tmp, "long_strip.json", window="0,600", seed=3)
    files = {"excursion": ["--in", str(strip), "--construction", "excursion"],
             "long_excursion": ["--in", str(long_strip), "--construction", "excursion"],
             "line_excursion": ["--in", str(line), "--construction", "excursion"],
             "hier": ["--construction", "hierarchical", "--seed", "2", "--stages", "3"],
             "laminate": ["--construction", "laminate", "--seed", "4", "--bands", "2",
                          "--window", "0,20"]}
    for name, args in files.items():
        res = invoke(runner, "match", *args, "--out", str(tmp / f"{name}.json"))
        assert res.exit_code == 0, res.output
    return {"strip": strip, "plane": plane, "svg": tmp / "out.svg",
            **{name: tmp / f"{name}.json" for name in files}}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_digest_pinned(runner, pinned_inputs, name):
    command, digest = PINNED[name]
    res = invoke(runner, *(arg.format(**pinned_inputs) for arg in command.split()))
    assert res.exit_code == 0, res.output
    out = pinned_inputs["svg"].read_bytes() if "{svg}" in command else res.stdout_bytes
    assert hashlib.sha256(out).hexdigest() == digest


# Cold start: scipy (and numpy.ma, which scipy's subpackages and np.unique
# pull in) load only when a command solves an assignment problem, and then
# only scipy's compiled assignment and distance modules, never an init:
# not scipy's top level, nor scipy.optimize's or scipy.spatial's. Each case
# runs in a fresh interpreter, since this process has loaded all of them
# long ago. csv loads only in sweep, its one reader.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(poisson_matching.__file__)))
COMPILED_KERNELS = {"scipy.optimize._lsap", "scipy.spatial._distance_pybind"}
WATCHED = ("numpy.ma", "scipy", "scipy.optimize", "scipy.spatial", *sorted(COMPILED_KERNELS),
           "csv")
RUN_MAIN = """
import sys
from poisson_matching.cli import main
main(sys.argv[1:], standalone_mode=False)
"""

NO_SOLVE = {
    "sample": "sample --seed 7 --out {out}",
    "match_excursion": "match --construction excursion --in {strip} --out {out}",
    "match_one_color": "match --construction one_color --in {strip} --out {out}",
    "match_laminate": "match --construction laminate --seed 4 --bands 2 --window 0,20 "
                      "--out {out}",
    "verify_planarity": "verify --property planarity --in {excursion} --out {out}",
    "verify_arcs": "verify --property arcs --in {excursion} --out {out}",
    "stats_eta": "stats --kind eta --in {excursion} --out {out}",
    "stats_crossings": "stats --kind crossings --in {excursion} --out {out}",
    "render_walk": "render --in {excursion} --walk --out {svg}",
    # both minimality certificates take their distances in numpy
    "verify_minimality": "verify --property minimality --in {line_excursion} --out {out}",
    "verify_minimality_cycles": "verify --property minimality --in {min_cost} --out {out}",
}
# zero_block solves each balanced block between returns to zero exactly
SOLVES = {
    "match_min_cost": "match --construction min_cost --in {plane} --out {out}",
    "match_zero_block": "match --construction zero_block --in {strip} --out {out}",
    "match_cut_time": "match --construction cut_time --in {red_strip} --out {out}",
    # at three stages the grouped pass settles every block of this window,
    # so no solver runs; four stages leave the solvers larger blocks
    "match_hierarchical": "match --construction hierarchical --seed 2 --stages 4 "
                          "--out {out}",
    "stats_box_rematch": "stats --kind box-rematch --in {excursion} --out {out}",
}


def _loaded_after(code, *argv):
    """Which WATCHED modules a fresh interpreter holds after running code."""
    probe = code + f"\nprint(*[m for m in {WATCHED!r} if m in sys.modules])\n"
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


@pytest.fixture(scope="module")
def cold_inputs(pinned_inputs, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cold")
    # a red excess gives the cut-time construction blocks to solve, some
    # with more than three blues, which the small-problem pass leaves to
    # the kernel
    red_strip = tmp / "red_strip.json"
    res = invoke(CliRunner(), "sample", "--seed", "7", "--window", "0,30",
                 "--lambda-red", "2", "--out", str(red_strip))
    assert res.exit_code == 0, res.output
    min_cost = tmp / "min_cost.json"
    res = invoke(CliRunner(), "match", "--in", str(pinned_inputs["plane"]),
                 "--construction", "min_cost", "--out", str(min_cost))
    assert res.exit_code == 0, res.output
    return {**pinned_inputs, "red_strip": red_strip, "min_cost": min_cost,
            "out": tmp / "out.json"}


# The package's public names: a new one is added here on purpose.
PUBLIC_NAMES = {
    "Disk", "Domain", "Rect", "DegenerateGeometryError",
    "ColoredPointSet", "SampleConfig", "derived_rng", "sample",
    "Matching",
    "brute_force_min", "max_cardinality_min_cost", "min_cost_perfect",
    "ArcSpec", "ArcTable", "CrossingProfile", "StepWalk", "WalkInvariantError", "build_walk",
    "crossing_profile", "cut_time_matching", "excursion_matching", "laminate_strips",
    "minimality_certificate_d1", "one_color_pairing", "polygonal_arcs",
    "zero_block_matching",
    "BlockSystem", "ChernoffParams", "build_block_system", "chernoff_bound", "chernoff_tail",
    "run_hierarchical",
    "StatsReport", "VerificationReport", "box_rematch_experiment",
    "check_arc_disjointness", "check_planarity",
    "crossing_stats", "estimate_eta", "minimality_certificate",
}


def test_public_names_pinned():
    names = {name for name, value in vars(poisson_matching).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("module", ["poisson_matching", "poisson_matching.cli"])
def test_import_loads_no_scipy(module):
    assert _loaded_after(f"import sys\nimport {module}") == set()


def test_import_makes_no_dataclasses():
    # a dataclass generates and execs its methods at import, 0.3 to 1 ms a
    # class, and importing dataclasses takes about 2 ms; the package's
    # values, its row types among them, are geometry._Frozen
    code = ("import sys\n"
            "import poisson_matching.cli\n"
            "print('dataclasses' in sys.modules, *sorted(\n"
            "    f'{cls.__module__}.{cls.__qualname__}'\n"
            "    for name, module in list(sys.modules.items())\n"
            "    if name.startswith('poisson_matching')\n"
            "    for cls in vars(module).values() if isinstance(cls, type)\n"
            "    and cls.__module__ == name and hasattr(cls, '__dataclass_fields__')))\n")
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"]


def test_crossing_profile_loads_no_numpy_ma():
    # sorted and masked in place of np.unique, whose first call imports it
    code = ("import sys\n"
            "from poisson_matching import (Domain, SampleConfig, crossing_profile,\n"
            "                              excursion_matching, sample)\n"
            "ps = sample(SampleConfig(1.0, 1.0, Domain.line(0, 30), 7))\n"
            "assert crossing_profile(excursion_matching(ps)).values.any()\n")
    assert _loaded_after(code) == set()


@pytest.mark.parametrize("name", sorted(NO_SOLVE))
def test_command_without_solve_loads_no_scipy(cold_inputs, name):
    argv = [arg.format(**cold_inputs) for arg in NO_SOLVE[name].split()]
    assert _loaded_after(RUN_MAIN, *argv) == set()


def test_sweep_loads_csv_only(tmp_path):
    # the exact tails take numpy alone
    argv = "sweep --lambdas 1,20,1000000 --ratios 0.25,1.0 --out".split()
    assert _loaded_after(RUN_MAIN, *argv, str(tmp_path / "sweep.csv")) == {"csv"}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_command_that_solves_loads_scipy(cold_inputs, name):
    argv = [arg.format(**cold_inputs) for arg in SOLVES[name].split()]
    assert _loaded_after(RUN_MAIN, *argv) == COMPILED_KERNELS


# every command that writes JSON, run on the files of ``cold_inputs``
JSON_OUTPUTS = {
    "sample": "sample --seed 7",
    "match_excursion": "match --construction excursion --in {strip}",
    "match_min_cost": "match --construction min_cost --in {plane}",
    "match_zero_block": "match --construction zero_block --in {strip}",
    "match_one_color": "match --construction one_color --in {strip}",
    "match_cut_time": "match --construction cut_time --in {red_strip}",
    "match_laminate": "match --construction laminate --seed 4 --bands 2 --window 0,20",
    "match_hierarchical": "match --construction hierarchical --seed 2 --stages 3",
    "verify_planarity": "verify --property planarity --in {excursion}",
    "verify_arcs": "verify --property arcs --in {excursion}",
    "verify_minimality": "verify --property minimality --in {line_excursion}",
    "verify_minimality_cycles": "verify --property minimality --in {min_cost}",
    "stats_eta": "stats --kind eta --in {excursion}",
    "stats_crossings": "stats --kind crossings --in {excursion}",
    "stats_box_rematch": "stats --kind box-rematch --in {excursion}",
}


@pytest.mark.parametrize("name", sorted(JSON_OUTPUTS))
def test_json_output_streams_the_bytes_of_json_dumps(runner, cold_inputs, name):
    # streamed chunk by chunk, to a file or to stdout, the output is what
    # one json.dumps call and a newline give
    args = [arg.format(**cold_inputs) for arg in JSON_OUTPUTS[name].split()]
    res = invoke(runner, *args)
    assert res.exit_code == 0, res.output
    assert invoke(runner, *args, "--out", str(cold_inputs["out"])).exit_code == 0
    written = cold_inputs["out"].read_bytes()
    assert written == res.stdout_bytes
    dumped = json.dumps(json.loads(written), indent=1, sort_keys=True) + "\n"
    assert written == dumped.encode()


def test_dump_holds_less_than_the_file(tmp_path):
    # the row lists are read from their columns ROWS_PER_BLOCK rows at a
    # time and written row by row: neither the rows as lists nor the text
    # is held (json.dumps of the list form held about six times the file)
    ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0, 2000), 0))
    m = walks.excursion_matching(ps)
    arcs = walks.polygonal_arcs(m, ps)
    path = tmp_path / "result.json"
    tracemalloc.start()
    try:
        cli._dump(cli._result_json(ps, m, arcs), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(arcs) > render.ROWS_PER_BLOCK  # so the arcs take more than one block
    assert peak < path.stat().st_size


def _written(tmp_path, obj) -> str:
    path = tmp_path / "out.json"
    cli._dump(obj, str(path))
    return path.read_text()


def _list_form(ps, m, arcs=None, diagnostics=None) -> dict:
    """The result ``_result_json`` describes, with every row list a list."""
    out = {"format": cli.FORMAT_VERSION, "points": ps.to_json(), "matching": m.to_json()}
    if arcs is not None:
        out["arcs"] = [a.to_json() for a in arcs]
    if diagnostics is not None:
        out["diagnostics"] = diagnostics
    return out


@pytest.mark.parametrize("length", [0, 50, 1000, 10000])
def test_writer_equals_json_dumps_on_strips(tmp_path, length):
    # the whole text, points, edges and arcs written from their columns,
    # against one json.dumps of the list form; L = 0 has no point at all
    if length:
        ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0, length), length))
    else:
        ps = ColoredPointSet(Domain.strip(0, 1), [], [])
    m = walks.excursion_matching(ps)
    arcs = walks.polygonal_arcs(m, ps)
    assert length < 10000 or len(arcs) > 4 * render.ROWS_PER_BLOCK
    diagnostics = {"construction": "excursion", "edges": len(arcs)}
    want = json.dumps(_list_form(ps, m, arcs, diagnostics), indent=1, sort_keys=True) + "\n"
    assert _written(tmp_path, cli._result_json(ps, m, arcs, diagnostics)) == want
    assert (_written(tmp_path, ps.to_json(rows=np.asarray))
            == json.dumps(ps.to_json(), indent=1, sort_keys=True) + "\n")


def test_writer_equals_json_dumps_on_laminate_and_hierarchy(tmp_path):
    bands = []
    for band in range(3):
        ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0, 40), band))
        m = walks.excursion_matching(ps)
        bands.append((ps, m, walks.polygonal_arcs(m, ps)))
    ps, m, arcs = walks.laminate_strips(bands, 0.25)
    cases = [(ps, m, arcs, {"bands": 3, "shift": 0.25})]
    system = hierarchy.build_block_system(5, 3)
    ps = sample(SampleConfig(1.0, 1.0, hierarchy.aligned_window(system), 5))
    m, diagnostics, _ = hierarchy.run_hierarchical(ps, 5, 3, system=system)
    cases.append((ps, m, None, diagnostics))  # nested records and lists
    for ps, m, arcs, diagnostics in cases:
        want = json.dumps(_list_form(ps, m, arcs, diagnostics), indent=1, sort_keys=True)
        assert _written(tmp_path, cli._result_json(ps, m, arcs, diagnostics)) == want + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)


INDEX = st.integers(0, 2**63 - 1)
ARC = st.tuples(st.tuples(INDEX, INDEX), FINITE, FINITE, st.integers(-2**63, 2**63 - 1),
                st.lists(FINITE, min_size=8, max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE), max_size=8),
       st.lists(st.tuples(INDEX, INDEX), max_size=8), st.lists(ARC, max_size=6))
def test_percent_r_is_json_for_finite_floats_and_ints(pairs, edges, arcs):
    # every float column the writer reads is finite (points and arc columns
    # reject NaN and inf where they are built), and for finite floats and
    # for ints, %r is the form json writes. The rows sit at depth 1 and in a
    # dict that holds none itself, beside values the encoder writes (int
    # keys, nested dicts) and an empty array and table
    floats = np.array(pairs, dtype=float).reshape(-1, 2)
    ints = np.array(edges, dtype=np.int64).reshape(-1, 2)
    edge, height, lowest, depth, coords = zip(*arcs) if arcs else ([],) * 5
    table = ArcTable(edge, height, lowest, depth, np.reshape(coords, (-1, 4, 2)))
    empty = ArcTable([], [], [], [], [])
    keyed = {3: [1.5, "x"], 1: {"b": None, "a": []}}
    obj = {"a": floats, "empty": floats[:0], "keyed": keyed,
           "b": {"c": {"edges": ints, "arcs": table, "none": empty}, "keyed": keyed}}
    want = {"a": floats.tolist(), "empty": [], "keyed": keyed,
            "b": {"c": {"edges": ints.tolist(), "arcs": [a.to_json() for a in table],
                        "none": []}, "keyed": keyed}}
    assert "".join(cli._json_chunks(obj, 0)) == json.dumps(want, indent=1, sort_keys=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_columns_are_finite_where_built(bad):
    with pytest.raises(ValueError, match="non-finite"):
        ColoredPointSet(Domain.strip(0, 1), [[0.5, bad]], [])
    with pytest.raises(ValueError, match="finite"):
        ArcTable([[0, 0]], [bad], [0.5], [1], [[[0.0, 0.5], [0.0, 0.25],
                                                [1.0, 0.25], [1.0, 0.5]]])


def test_render_holds_less_than_the_file(tmp_path):
    # each layer is written row by row as it is formatted: neither a list
    # of elements nor the joined SVG is held (3.5 times the file before)
    ps = sample(SampleConfig(1.0, 1.0, Domain.strip(0, 2000), 0))
    m = walks.excursion_matching(ps)
    arcs, walk = walks.polygonal_arcs(m, ps), walks.build_walk(ps)
    path = tmp_path / "scene.svg"
    tracemalloc.start()
    try:
        cli._write(render_scene(ps, m, arcs=arcs, walk=walk), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_console_script_freezes_the_import_heap_before_the_command(tmp_path):
    # a command added for the probe reports the freeze count it runs with;
    # run() is what the console script and ``python -m`` call
    probe = ("import gc, sys\n"
             "from poisson_matching import cli\n"
             "assert gc.get_freeze_count() == 0\n"
             "cli.main.command('probe')(lambda: print(gc.get_freeze_count()))\n"
             "sys.argv = ['poisson-matching', 'probe']\n"
             "cli.run()\n")
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) > 1000  # the modules, classes and functions of the imports


def test_in_process_commands_never_freeze(runner, tmp_path):
    before = gc.get_freeze_count()
    assert invoke(runner, "sample", "--seed", "7", "--out", str(tmp_path / "p.json")).exit_code == 0
    assert gc.get_freeze_count() == before
