"""Preset systems: lattice automata, random Boolean networks, coupled map
lattices and echo state reservoirs, all wired through the same engine.

Each preset is a pure constructor: same arguments and seed, same system.
Presets that draw randomness derive independent child seeds for each of
their random ingredients (topology, tables, weights) from the one seed they
take, so the ingredients never share a stream.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import DynamicalSystem
from .errors import ArgumentTooSmall, ConfigError, check_seed
from .rules import (
    MAP_THEN_MIX,
    ContinuousMap,
    elementary_rule,
    game_of_life_rule,
    random_boolean_tables,
)
from .sparse import SparseMatrix, spectral_radius
from .topology import (
    GridSpec,
    NeighborhoodSpec1D,
    NeighborhoodSpec2D,
    PositionalBase,
    generate_ca_1d,
    generate_ca_2d,
    generate_random_digraph,
)

ELEMENTARY_STENCIL = (4.0, 2.0, 1.0)  # pattern weights, most significant first
MOORE_COUNT_SELF = ((1, 1, 1), (1, 9, 1), (1, 1, 1))
VON_NEUMANN_COUNT = ((0, 1, 0), (1, 0, 1), (0, 1, 0))


def _child_seeds(seed, count):
    sequence = np.random.SeedSequence(check_seed(seed))
    return [int(s) for s in sequence.generate_state(count, np.uint64)]


def elementary_ca(width, rule_number, wrapped=True, init=None):
    """1D binary automaton with the 3-cell pattern stencil [4, 2, 1]."""
    matrix = generate_ca_1d(
        GridSpec(width, 1, wrapped), NeighborhoodSpec1D(ELEMENTARY_STENCIL, 1)
    )
    if init is None:
        init = np.zeros(width)
    return DynamicalSystem(matrix, elementary_rule(rule_number), init)


def game_of_life(width, height, wrapped=True, init=None):
    """Conway's life: Moore counting stencil plus the self-weight 9.

    The self-weight folds the cell's own state into the matvec key so the
    counting table can distinguish birth from survival.
    """
    matrix = generate_ca_2d(
        GridSpec(width, height, wrapped),
        NeighborhoodSpec2D(np.array(MOORE_COUNT_SELF, dtype=float), (1, 1)),
    )
    if init is None:
        init = np.zeros(width * height)
    return DynamicalSystem(matrix, game_of_life_rule(), init)


def random_boolean_network(n, k, seed, init=None):
    """Boolean network with k random distinct inputs and a random table per node.

    The returned system carries ``node_inputs``, a read-only (n, k) int64
    array whose row i holds node i's inputs in order: input m contributes
    2^m to the node's table key.
    """
    s_topology, s_tables = _child_seeds(seed, 2)
    matrix, inputs = generate_random_digraph(
        n, k, PositionalBase(2), allow_self=False, seed=s_topology
    )
    rule = random_boolean_tables(n, k, seed=s_tables)
    if init is None:
        init = np.zeros(n)
    system = DynamicalSystem(matrix, rule, init)
    system.node_inputs = inputs
    return system


def coupled_map_lattice(width, eps, r, wrapped=True, init=None):
    """Diffusively coupled logistic lattice.

    x'(i) = (1 - eps) * g(x(i)) + eps/2 * (g(x(i-1)) + g(x(i+1))) with
    g(x) = r x (1 - x), realized as map_then_mix over the stencil
    [eps/2, 1 - eps, eps/2]; row sums are exactly 1 on a wrapped grid.
    """
    if not 0.0 <= eps <= 1.0:
        raise ArgumentTooSmall(f"coupling eps={eps} outside [0, 1]")
    matrix = generate_ca_1d(
        GridSpec(width, 1, wrapped),
        NeighborhoodSpec1D((eps / 2.0, 1.0 - eps, eps / 2.0), 1),
    )
    rule = ContinuousMap("logistic", r=r, order=MAP_THEN_MIX)
    if init is None:
        init = np.full(width, 0.5)
    return DynamicalSystem(matrix, rule, init)


def random_sparse_uniform(n, density, seed, low=-1.0, high=1.0):
    """n x n matrix with round(density * n^2) entries at distinct random
    positions and uniform [low, high) weights.  Pure function of the seed."""
    if n < 1:
        raise ArgumentTooSmall(f"n = {n} gives an empty matrix; need at least 1 node")
    if not 0.0 < density <= 1.0:
        raise ArgumentTooSmall(f"density {density} outside (0, 1]")
    rng = np.random.default_rng(check_seed(seed))
    total = n * n
    nnz = max(1, int(round(density * total)))
    if nnz > total // 2:
        positions = rng.permutation(total)[:nnz]
    else:
        # batches of draws, each value kept at its first occurrence, until
        # nnz distinct positions are found
        positions = np.empty(0, dtype=np.int64)
        while len(positions) < nnz:
            batch = rng.integers(0, total, size=2 * (nnz - len(positions)) + 16)
            fresh = batch[np.sort(np.unique(batch, return_index=True)[1])]
            fresh = fresh[~np.isin(fresh, positions)]
            positions = np.concatenate([positions, fresh[: nnz - len(positions)]])
    weights = rng.uniform(low, high, size=nnz)
    return SparseMatrix.from_coo(n, n, positions // n, positions % n, weights)


def echo_state_network(n, density, rho_target, seed, init=None):
    """Reservoir: uniform(-1, 1) weights at the given density, rescaled so the
    spectral radius hits rho_target, tanh applied after mixing."""
    if rho_target <= 0.0:
        raise ArgumentTooSmall(f"target spectral radius {rho_target} must be positive")
    if density * n * n < 1.0:
        raise ArgumentTooSmall(
            f"density {density} gives no connections for {n} nodes"
        )
    matrix = random_sparse_uniform(n, density, seed)
    # a converged radius, or NoConvergence: one rescale hits the target
    sr = spectral_radius(matrix)
    if sr == 0.0:
        raise ArgumentTooSmall("spectral radius is zero; cannot rescale")
    matrix = matrix.scaled(rho_target / sr)
    if init is None:
        init = np.zeros(n)
    return DynamicalSystem(matrix, ContinuousMap("tanh"), init)


class Preset(NamedTuple):
    """A preset kind: its constructor, the SystemConfig fields that
    constructor takes, in its positional order, and the interval a random
    initial state is drawn from uniformly, None for cells drawn 0 or 1."""

    build: object
    fields: tuple
    uniform: tuple = None


PRESETS = {
    "elementary_ca": Preset(elementary_ca, ("width", "rule_number", "wrapped")),
    "life": Preset(game_of_life, ("width", "height", "wrapped")),
    "rbn": Preset(random_boolean_network, ("nodes", "in_degree", "seed")),
    "cml": Preset(coupled_map_lattice, ("width", "eps", "r", "wrapped"), (0.0, 1.0)),
    "esn": Preset(echo_state_network, ("nodes", "density", "rho", "seed"), (-1.0, 1.0)),
}
# the fields whose product is a preset's number of cells
_SIZES = ("width", "height", "nodes")


@dataclass
class SystemConfig:
    """Flat description of a preset system, the unit the config file carries."""

    kind: str
    width: int = None
    height: int = None
    wrapped: bool = True
    rule_number: int = None
    nodes: int = None
    in_degree: int = None
    eps: float = None
    r: float = None
    density: float = None
    rho: float = None
    seed: int = None

    def validate(self):
        if self.kind not in PRESETS:
            raise ConfigError(f"unknown system kind {self.kind!r}")
        taken = PRESETS[self.kind].fields
        for name in taken:
            if getattr(self, name) is None:
                raise ConfigError(f"{self.kind} requires {name}")
        for name in _SIZES:
            if name in taken and getattr(self, name) < 0:
                raise ConfigError(f"{name} {getattr(self, name)} is negative")
        if "rule_number" in taken and not 0 <= self.rule_number <= 255:
            raise ConfigError(f"rule {self.rule_number} outside [0, 255]")
        if "eps" in taken and not 0.0 <= self.eps <= 1.0:
            raise ConfigError(f"eps {self.eps} outside [0, 1]")
        if "r" in taken and not 0.0 <= self.r <= 4.0:
            raise ConfigError(f"r {self.r} outside [0, 4]")
        if "density" in taken and not 0.0 < self.density <= 1.0:
            raise ConfigError(f"density {self.density} outside (0, 1]")
        if "rho" in taken and self.rho <= 0.0:
            raise ConfigError(f"rho {self.rho} must be positive")
        return self

    @property
    def n_cells(self):
        return math.prod(getattr(self, name) for name in PRESETS[self.kind].fields
                         if name in _SIZES)


def build_system(config, init=None):
    """Instantiate the preset a SystemConfig describes, once it validates."""
    preset = PRESETS[config.validate().kind]
    return preset.build(*(getattr(config, name) for name in preset.fields), init=init)
