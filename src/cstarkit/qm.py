"""Discretized particle in a box: observables, eigenstates, expectations.

The box [0, L] is sampled at N interior points x_j = j L / (N + 1) with
Dirichlet endpoints excluded, so the sampled sine modes are exactly
orthogonal under the uniform weight.  Inner products are spacing-weighted
Riemann sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element
from .errors import DimensionMismatch, LevelOutOfRange
from .states import State, vector_state
from .tolerances import GRID_NORM_TOL


@dataclass(frozen=True)
class BoxGrid:
    length: float
    points: int
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("need at least 2 interior grid points")
        if self.length <= 0 or self.hbar <= 0 or self.mass <= 0:
            raise ValueError("length, hbar and mass must be positive")

    @property
    def spacing(self) -> float:
        return self.length / (self.points + 1)

    @property
    def positions(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.points + 1)


@dataclass(frozen=True, eq=False)
class GridState:
    grid: BoxGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amp.shape[0] != self.grid.points:
            raise DimensionMismatch("amplitude count must match the grid")
        object.__setattr__(self, "amplitudes", amp)
        total = self.grid.spacing * float(np.sum(np.abs(amp) ** 2))
        if abs(total - 1.0) > GRID_NORM_TOL:
            raise ValueError(f"state norm {total} != 1; use grid_state() to normalize")


def grid_state(grid: BoxGrid, raw) -> GridState:
    """Normalize raw amplitudes to a unit spacing-weighted norm."""
    amp = np.asarray(raw, dtype=complex).ravel()
    total = grid.spacing * float(np.sum(np.abs(amp) ** 2))
    if total == 0.0:
        raise ValueError("cannot normalize the zero state")
    return GridState(grid, amp / np.sqrt(total))


def box_eigenstate(grid: BoxGrid, n: int) -> GridState:
    """The n-th sampled sine mode sqrt(2/L) sin(n pi x / L), renormalized."""
    if not 1 <= n <= grid.points:
        raise LevelOutOfRange(f"level must be in [1, {grid.points}]")
    return grid_state(grid, np.sin(n * np.pi * grid.positions / grid.length))


def box_energy(grid: BoxGrid, n: int) -> float:
    """E_n = n^2 pi^2 hbar^2 / (2 m L^2)."""
    if n < 1:
        raise LevelOutOfRange("level must be at least 1")
    return (n**2 * np.pi**2 * grid.hbar**2) / (2.0 * grid.mass * grid.length**2)


def position_operator(grid: BoxGrid) -> Element:
    """Diagonal matrix of the grid abscissae; Hermitian with norm below L."""
    return Element(None, np.diag(grid.positions.astype(complex)))


def cosine_observable(grid: BoxGrid) -> Element:
    """Diagonal observable -2 cos(2 pi x / L); Hermitian with norm at most 2."""
    diag = -2.0 * np.cos(2.0 * np.pi * grid.positions / grid.length)
    return Element(None, np.diag(diag.astype(complex)))


def phase_shift(grid: BoxGrid, k: float) -> Element:
    """Diagonal unitary with entries exp(i k x_j); the exponential of i k x-hat."""
    return Element(None, np.diag(np.exp(1j * k * grid.positions)))


def momentum_operator(grid: BoxGrid, periodic: bool = True) -> Element:
    """-i hbar times the central difference; Hermitian, periodic wrap optional.

    The canonical commutation relation with the position operator holds on
    interior rows only; its trace is exactly zero, so no finite-dimensional
    realization of a nonzero scalar commutator exists.
    """
    n = grid.points
    if n < 3:
        raise ValueError("momentum discretization needs at least 3 points")
    d = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        d[j, j + 1] = 1.0
        d[j + 1, j] = -1.0
    if periodic:
        d[0, n - 1] = -1.0
        d[n - 1, 0] = 1.0
    return Element(None, (-1j * grid.hbar / (2.0 * grid.spacing)) * d)


def expectation(a: Element, psi: GridState) -> complex:
    """Spacing-weighted inner product <a psi, psi>."""
    m = a.matrix
    if m.shape[0] != psi.grid.points:
        raise DimensionMismatch("operator and state live on different grids")
    return complex(psi.grid.spacing * np.vdot(psi.amplitudes, m @ psi.amplitudes))


def eigenstate_functional(grid: BoxGrid, n: int, alg: Algebra) -> State:
    """The vector state of psi_n restricted to an algebra over the grid space."""
    if alg.ambient_dim != grid.points:
        raise DimensionMismatch("algebra must be built over the grid's ambient space")
    psi = box_eigenstate(grid, n)
    unit = psi.amplitudes * np.sqrt(grid.spacing)
    return vector_state(alg, unit)
