"""Seeded Poisson sampling of two-color point configurations.

Every random stream is derived from (master seed, path indices) so sweeps
replay deterministically and trials can run in parallel.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Domain, LINE, _Frozen, _same_points, _two_columns
from .matching import FORMAT_VERSION


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


class SampleConfig(_Frozen):
    def __init__(self, lambda_red: float, lambda_blue: float, domain: Domain, seed: int):
        vars(self).update(lambda_red=lambda_red, lambda_blue=lambda_blue, domain=domain,
                          seed=seed)
        # NaN passes a `<= 0` test
        if not all(math.isfinite(lam) and lam > 0 for lam in (lambda_red, lambda_blue)):
            raise ValueError("intensities must be positive and finite")


class ColoredPointSet:
    """A sampled red/blue configuration; point arrays are (n, 2) and sorted
    by x then y so downstream constructions are deterministic."""

    def __init__(self, domain: Domain, reds: np.ndarray, blues: np.ndarray, seed: int = 0):
        self.domain = domain
        self.reds = _canonical(reds)
        self.blues = _canonical(blues)
        self.seed = seed
        for pts in (self.reds, self.blues):
            if pts.size and not np.isfinite(pts).all():
                raise ValueError("non-finite coordinates")
        # equal points are adjacent once sorted, and -0.0 == 0.0 both in the
        # sort and in the comparison; the stable sort merges the two sorted
        # colours
        allpts = np.concatenate([self.reds, self.blues])
        allpts = allpts.take(canonical_order(allpts, kind="stable"), axis=0)
        if _same_points(allpts[1:], allpts[:-1]).any():
            raise ValueError("duplicate points: configuration is not simple")

    @property
    def n_red(self) -> int:
        return len(self.reds)

    @property
    def n_blue(self) -> int:
        return len(self.blues)

    def to_json(self, rows=np.ndarray.tolist) -> dict:
        """The point-set object; ``rows`` gives the value each (n, 2) point
        array is written as (the CLI passes ``np.asarray``, and its writer
        writes the arrays from their columns)."""
        return {
            "format": FORMAT_VERSION,
            "domain": self.domain.to_json(),
            "seed": self.seed,
            "reds": rows(self.reds),
            "blues": rows(self.blues),
        }

    @staticmethod
    def from_json(d: dict) -> "ColoredPointSet":
        if type(d["seed"]) is not int:
            raise ValueError(f"seed must be an integer, got {d['seed']!r}")
        return ColoredPointSet(
            domain=Domain.from_json(d["domain"]),
            reds=d["reds"],
            blues=d["blues"],
            seed=d["seed"],
        )


def canonical_order(pts: np.ndarray, kind=None) -> np.ndarray:
    """The permutation sorting (n, 2) points by x, then y, ties kept in
    input order: for points without NaN, ``np.lexsort((y, x))``. Where no
    two x are equal, as in a sampled configuration, any sort of x gives it:
    numpy's of ``kind``, the default for unordered x, "stable" to merge
    sorted lists laid end to end. The lexsort runs only where some are."""
    x = pts[:, 0]
    order = np.argsort(x, kind=kind)
    xs = x[order]
    if (xs[1:] == xs[:-1]).any():
        order = np.lexsort((pts[:, 1], x))
    return order


def _canonical(pts) -> np.ndarray:
    pts = _two_columns(pts, "points", float)
    return pts.take(canonical_order(pts), axis=0)


def _uniform_points(rng: np.random.Generator, n: int, domain: Domain) -> np.ndarray:
    xs = rng.uniform(domain.x0, domain.x1, size=n)
    # a strip's y-range is (0, 1): the plane's draw on it
    ys = np.zeros(n) if domain.kind == LINE else rng.uniform(domain.y0, domain.y1, size=n)
    return np.column_stack([xs, ys])


def sample(config: SampleConfig) -> ColoredPointSet:
    """Draw independent Poisson configurations of both colors on the domain."""
    area = config.domain.measure
    if area <= 0:
        raise ValueError("window has zero measure")
    rng = derived_rng(config.seed)
    n_red = rng.poisson(config.lambda_red * area)
    n_blue = rng.poisson(config.lambda_blue * area)
    reds = _uniform_points(rng, n_red, config.domain)
    blues = _uniform_points(rng, n_blue, config.domain)
    return ColoredPointSet(config.domain, reds, blues, seed=config.seed)
