"""Discretized particle in a box: observables, eigenstates, expectations.

The box [0, L] is sampled at N interior points x_j = j L / (N + 1) with
Dirichlet endpoints excluded, so the sampled sine modes are exactly
orthogonal under the uniform weight.  Inner products are spacing-weighted
Riemann sums.  Position, cosine and phase observables are multiplication
operators, diagonal on the grid, so they are held as their n values and
applied in O(n); only the momentum operator is a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
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


@dataclass(frozen=True, eq=False)
class MultiplicationOperator:
    """The multiplication operator f(x-hat) on the grid, held as its values
    f(x_j), a read-only complex (n,) array: O(n) memory where the matrix is n x n."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.ndim != 1:
            raise DimensionMismatch(f"need a 1-d array of grid values, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def matrix(self) -> np.ndarray:
        """The dense diagonal matrix, built on each read."""
        return np.diag(self.values)

    def norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def hermitian_residual(self) -> float:
        """linalg.hermitian_residual of the diagonal matrix: ||D - D*|| / ||D||
        on the unit-scaled values, where D - D* = 2i Im D; 0.0 for real values."""
        scaled = linalg.unit_scaled(self.values)
        if not scaled.imag.any():
            return 0.0
        return float(2.0 * np.max(np.abs(scaled.imag)) / np.max(np.abs(scaled)))


def position_operator(grid: BoxGrid) -> MultiplicationOperator:
    """Multiplication by the grid abscissae; Hermitian with norm below L."""
    return MultiplicationOperator(grid.positions)


def cosine_observable(grid: BoxGrid) -> MultiplicationOperator:
    """Multiplication by -2 cos(2 pi x / L); Hermitian with norm at most 2."""
    return MultiplicationOperator(-2.0 * np.cos(2.0 * np.pi * grid.positions / grid.length))


def phase_shift(grid: BoxGrid, k: float) -> MultiplicationOperator:
    """Multiplication by exp(i k x_j), a unitary; the exponential of i k x-hat."""
    return MultiplicationOperator(np.exp(1j * k * grid.positions))


def momentum_operator(grid: BoxGrid, periodic: bool = True) -> Element:
    """-i hbar times the central difference; Hermitian, periodic wrap optional.

    The canonical commutation relation with the position operator holds on
    interior rows only; its trace is exactly zero, so no finite-dimensional
    realization of a nonzero scalar commutator exists.
    """
    n = grid.points
    if n < 3:
        raise ValueError("momentum discretization needs at least 3 points")
    d, i = np.zeros((n, n), dtype=complex), np.arange(n - 1)
    d[i, i + 1] = 1
    d[i + 1, i] = -1
    if periodic:
        d[0, n - 1] = -1.0
        d[n - 1, 0] = 1.0
    return Element(None, (-1j * grid.hbar / (2.0 * grid.spacing)) * d)


def expectation(a: Element | MultiplicationOperator, psi: GridState) -> complex:
    """Spacing-weighted inner product <a psi, psi>; O(n) for a multiplication operator."""
    diagonal = isinstance(a, MultiplicationOperator)
    size = a.values.shape[0] if diagonal else a.matrix.shape[0]
    if size != psi.grid.points:
        raise DimensionMismatch("operator and state live on different grids")
    amp = psi.amplitudes
    a_psi = a.values * amp if diagonal else a.matrix @ amp
    return complex(psi.grid.spacing * np.vdot(amp, a_psi))


def eigenstate_functional(grid: BoxGrid, n: int, alg: Algebra) -> State:
    """The vector state of psi_n restricted to an algebra over the grid space."""
    if alg.ambient_dim != grid.points:
        raise DimensionMismatch("algebra must be built over the grid's ambient space")
    psi = box_eigenstate(grid, n)
    unit = psi.amplitudes * np.sqrt(grid.spacing)
    return vector_state(alg, unit)
