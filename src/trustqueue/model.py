"""Core domain types: size grids, size/estimate matrices, system configs.

Indices are 0-based throughout the code; priority ranks are 1-based
integers in 1..n+1 (rank n+1 is the punishment class).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

NORM_TOL = 1e-12  # absolute tolerance on probability sums before renormalizing


class ConfigError(ValueError):
    """Base class for configuration validation failures."""


class NonIncreasingSizesError(ConfigError):
    pass


class NegativeEntryError(ConfigError):
    pass


class MatrixNotNormalizedError(ConfigError):
    pass


class OverloadedError(ConfigError):
    """Offered load rho = lambda * E[S] is >= 1."""


class BadLambdaError(ConfigError):
    pass


class Policy(str, Enum):
    MEASURED_TRUST = "mt"
    BLIND_TRUST = "bt"
    FCFS = "fcfs"
    SCF = "scf"

    @property
    def uses_estimates(self) -> bool:
        return self in (Policy.MEASURED_TRUST, Policy.BLIND_TRUST)


@dataclass(frozen=True)
class SizeGrid:
    """Strictly increasing support z_1 < ... < z_n of sizes and estimates."""

    sizes: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.sizes, dtype=float)
        if z.ndim != 1 or len(z) < 1:
            raise ConfigError("size grid must be a non-empty 1-d sequence")
        if np.any(z <= 0) or not np.all(np.isfinite(z)):
            raise NonIncreasingSizesError("sizes must be positive and finite")
        if np.any(np.diff(z) <= 0):
            raise NonIncreasingSizesError("sizes must be strictly increasing")
        z.setflags(write=False)
        object.__setattr__(self, "sizes", z)

    @property
    def n(self) -> int:
        return len(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class SizeEstimateMatrix:
    """Joint distribution over (true size index i, internal estimate index j).

    Rows index the true size, columns the internal estimate.  Marginals are
    recomputed from the entries, never stored independently.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"matrix must be square, got shape {m.shape}")
        m = _as_distribution(m, "matrix entries")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def size_marginal(self) -> np.ndarray:
        """S_i = P(true size = z_i), the row sums."""
        return self.entries.sum(axis=1)

    @property
    def estimate_marginal(self) -> np.ndarray:
        """R_j = P(internal estimate = z_j), the column sums."""
        return self.entries.sum(axis=0)


@dataclass(frozen=True)
class SystemConfig:
    """Validated arrival rate + size grid + size/estimate joint distribution."""

    lam: float
    grid: SizeGrid
    matrix: SizeEstimateMatrix

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise BadLambdaError(f"arrival rate must be positive, got {self.lam}")
        if self.grid.n != self.matrix.n:
            raise ConfigError(
                f"grid has {self.grid.n} sizes but matrix is {self.matrix.n}x{self.matrix.n}"
            )
        if self.load >= 1.0:
            raise OverloadedError(
                f"offered load rho = {self.load:.6g} >= 1; the queue is unstable"
            )

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def sizes(self) -> np.ndarray:
        return self.grid.sizes

    @property
    def mean_size(self) -> float:
        return float(self.matrix.size_marginal @ self.grid.sizes)

    @property
    def load(self) -> float:
        return self.lam * self.mean_size


def check_punishment(b) -> None:
    """Raise ConfigError unless b, a number or array, is in [0, 1] (NaN is not)."""
    if not np.all((0 <= b) & (b <= 1)):
        raise ConfigError(f"punishment probability must be in [0, 1], got {b}")


@dataclass(frozen=True)
class PolicySpec:
    """Policy kind plus punishment probability b (ignored by blind policies)."""

    kind: Policy
    b: float = 0.0

    def __post_init__(self):
        check_punishment(self.b)


def validate_config(lam: float, sizes, matrix) -> SystemConfig:
    """Build a SystemConfig from raw values, raising ConfigError subclasses."""
    return SystemConfig(lam=float(lam), grid=SizeGrid(sizes), matrix=SizeEstimateMatrix(matrix))


def _as_distribution(probs, what: str = "probabilities") -> np.ndarray:
    """probs, each >= 0 (NaN is not) and summing to 1 within NORM_TOL, renormalized."""
    p = np.asarray(probs, dtype=float)
    if not (p >= 0).all():      # NaN compares False
        raise NegativeEntryError(f"{what} must be >= 0, got {p[~(p >= 0)][0]}")
    total = float(p.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise MatrixNotNormalizedError(f"{what} sum to {total!r}, expected 1 within {NORM_TOL}")
    return p / total  # absorb round-off inside the tolerance


def uniform_error_matrix(size_probs, grid: SizeGrid, error_rate: float) -> SizeEstimateMatrix:
    """Joint matrix for the uniform-error family.

    The estimate is correct with probability 1 - error_rate; otherwise it is
    one of the n - 1 wrong grid values uniformly at random, independent of
    the true size.  Row marginals equal size_probs exactly.
    """
    return SizeEstimateMatrix(_uniform_error(size_probs, grid, [error_rate])[0])


def uniform_error_entries(size_probs, grid: SizeGrid, error_rates) -> np.ndarray:
    """uniform_error_matrix(size_probs, grid, x).entries, bit for bit, stacked for each x."""
    m = _uniform_error(size_probs, grid, error_rates)
    return m / m.sum(axis=(1, 2))[:, None, None]


def _uniform_error(size_probs, grid: SizeGrid, error_rates) -> np.ndarray:
    """The unnormalized uniform-error matrices of error_rates, validated, stacked: (X, n, n)."""
    xs = np.asarray(error_rates, dtype=float)
    bad = ~((0.0 <= xs) & (xs <= 1.0))
    if bad.any():
        raise ConfigError(f"error rate must be in [0, 1], got {float(xs[bad][0])}")
    p = _as_distribution(size_probs)
    n = grid.n
    if len(p) != n:
        raise ConfigError(f"size distribution has {len(p)} entries for a {n}-point grid")
    if n == 1:
        if (xs > 0).any():
            raise ConfigError("a 1-point grid has no wrong estimate to err to")
        return np.ones((len(xs), 1, 1))
    m = p[:, None] * np.repeat((xs / (n - 1))[:, None, None], n, axis=2)
    m[:, np.arange(n), np.arange(n)] = p * (1.0 - xs[:, None])
    return m


def diagonal_matrix(size_probs, grid: SizeGrid) -> SizeEstimateMatrix:
    """Perfectly accurate estimates: all mass on the diagonal."""
    return uniform_error_matrix(size_probs, grid, 0.0)


# how deep each config file key nests its numbers in lists
_DEPTH = {"lambda": 0, "error_rate": 0, "sizes": 1, "size_probs": 1, "matrix": 2}
_SHAPES = ("a number", "a list of numbers", "a list of equal-length lists of numbers")


def _numbers(value, depth: int) -> bool:
    """Whether value is a JSON number in depth levels of lists, rows of equal length."""
    if depth == 0:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return (isinstance(value, list) and all(_numbers(v, depth - 1) for v in value)
            and (depth == 1 or len(set(map(len, value))) <= 1))


def load_config(path) -> SystemConfig:
    """Read a JSON config file.

    Two layouts are accepted:
      {"lambda": .., "sizes": [..], "matrix": [[..], ..]}
      {"lambda": .., "sizes": [..], "size_probs": [..], "error_rate": x}
    Matrix rows are indexed by true size, columns by internal estimate.  Other
    keys, keys of both layouts and values not of their key's shape are rejected.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    keys = ("lambda", "sizes", *(("matrix",) if "matrix" in raw else ("size_probs", "error_rate")))
    for key, value in raw.items():
        if key not in keys:
            raise ConfigError(f"config file key {key!r} is not read; its layout takes "
                              + ", ".join(keys))
        if not _numbers(value, _DEPTH[key]):
            raise ConfigError(f"config file value {key!r} must be {_SHAPES[_DEPTH[key]]}, "
                              f"got {json.dumps(value)}")
        try:
            np.asarray(value, dtype=float)
        except OverflowError:
            raise ConfigError(f"config file value {key!r} holds an integer too large "
                              "for a float") from None
    try:
        lam = float(raw["lambda"])
        grid = SizeGrid(raw["sizes"])
        if "matrix" in raw:
            matrix = SizeEstimateMatrix(raw["matrix"])
        elif "size_probs" in raw:
            matrix = uniform_error_matrix(raw["size_probs"], grid,
                                          float(raw.get("error_rate", 0.0)))
        else:
            raise ConfigError("config file needs either 'matrix' or 'size_probs'")
    except KeyError as exc:
        raise ConfigError(f"config file missing required key {exc}") from exc
    return SystemConfig(lam=lam, grid=grid, matrix=matrix)
