"""Inputs and checkers that more than one test module shares and that call
the package; the independent oracles are in ``oracles.py``."""

import math

import pytest

from poisson_matching.arcs import ArcTable
from poisson_matching.assignment import EPS_TIE
from poisson_matching.hierarchy import aligned_window, build_block_system, run_hierarchical
from poisson_matching.matching import Matching
from poisson_matching.sampling import SampleConfig, sample
from poisson_matching.verify import minimality_certificate
from oracles import min_cost_pairs, tied


def hierarchical_case(seed, N=4, lam=1.0):
    system = build_block_system(seed, N)
    ps = sample(SampleConfig(lam, lam, aligned_window(system), seed))
    return system, ps, run_hierarchical(ps, seed, N, system=system)


def least_like(reds, blues, got, want, must=None) -> None:
    """``got`` is a least matching of the problem where ``want`` is one: a
    matching of the problem, with as many edges (RECTANGULAR), or, where
    ``must = (mr, mb)`` names its mandatory points (SATURATING), every
    mandatory point matched and no two reserve points paired; a total within
    EPS_TIE of ``want``'s; and a passing minimality certificate."""
    got, want = Matching(reds, blues, got), Matching(reds, blues, want)
    if must is None:
        assert len(got.edges) == len(want.edges)
    else:
        r, b = got._edge_array().T
        assert {*range(must[0])} <= {*r.tolist()} and {*range(must[1])} <= {*b.tolist()}
        assert ((r < must[0]) | (b < must[1])).all()
    assert abs(got.total_length - want.total_length) <= EPS_TIE
    assert minimality_certificate(got).passed


def check_solve(reds, blues, got, must=None) -> bool:
    """``got``, a solve's (red, blue) pairs by red of one problem, as
    ``oracles.min_cost_pairs`` takes it: the oracle's pairs where the
    problem is not tied, and a least matching (``least_like``) where it is.
    Returns whether it is tied."""
    want = min_cost_pairs(reds, blues, must)
    if not tied(reds, blues, must):
        assert got == want
        return False
    least_like(reds, blues, got, want, must)
    return True


def assert_cycle_witness(m, rep=None):
    """``minimality_certificate`` fails ``m`` (``rep``, its report, if given)
    on one cycle of distinct edges, from the least, whose rematch, each red
    taking the next edge's partner, shortens the matching by more than
    EPS_TIE: by its ``change``, summed again here with math.hypot. Returns
    the witness."""
    rep = minimality_certificate(m) if rep is None else rep
    assert not rep.passed and rep.property_name == "minimality_cycles"
    n = len(m._edge_array())
    assert rep.trials == n * (n - 1) and len(rep.violations) == 1
    v = rep.violations[0]
    e = v["edges"]
    assert len(set(e)) == len(e) >= 2 and e[0] == min(e) and max(e) < n
    p, q = m.endpoint_arrays()
    change = math.fsum(math.hypot(*(p[a] - q[b])) - math.hypot(*(p[a] - q[a]))
                       for a, b in zip(e, e[1:] + e[:1]))
    assert v["change"] == pytest.approx(change, abs=1e-12) and change < -EPS_TIE
    return v


def rematched(m, positions, partners):
    """``m`` with the edges at ``positions`` given the partners of the edges
    at ``partners``."""
    e = m._edge_array().copy()
    e[positions, 1] = e[partners, 1]
    return Matching(m.reds, m.blues, e)


def replaced(row, **fields):
    """A copy of the frozen row ``row`` with ``fields`` changed."""
    return type(row)(**{**vars(row), **fields})


def table_of(rows):
    """The ``ArcTable`` of ``ArcSpec`` rows, built from their columns."""
    rows = list(rows)
    return ArcTable([a.edge for a in rows], [a.height for a in rows],
                    [a.lowest for a in rows], [a.depth for a in rows],
                    [a.vertices for a in rows])
