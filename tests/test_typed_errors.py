"""Every precondition below ends in its own error type, and no other."""

import numpy as np
import pytest

from cstarkit import algebra, gelfand, linalg, qm, spectral, states
from cstarkit.errors import (
    AlgebraMismatch,
    ComplexFieldRequired,
    DimensionMismatch,
    LevelOutOfRange,
    NotInAlgebra,
    NotRealAlgebra,
    NotStarClosed,
    NotSubspace,
    NotUnital,
)

E11 = np.diag([1.0, 0.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
GRID = qm.BoxGrid(1.0, 4)


def _diag():
    """C^2 as the diagonal 2 x 2 matrices: unital, *-closed, commutative."""
    return algebra.algebra_from_generators([np.diag([1.0, 2.0])])


def _nilpotent():
    """span{E12}: commutative, not *-closed, without a unit."""
    return algebra.algebra_from_generators([E12], include_identity=False, include_adjoints=False)


def _nilpotent_and_functional():
    alg = _nilpotent()
    return alg, states.functional(alg, [1.0])


def _quotient_of_diag():
    alg = _diag()
    return algebra.quotient(alg, algebra.subspace(alg, [E11]))


def _twice_a_character():
    alg = _diag()
    return alg, 2.0 * gelfand.characters(alg).characters[0].values


CASES = {
    "no-generators": (ValueError, lambda: algebra.algebra_from_generators([])),
    "complex-generator-real-field": (
        NotRealAlgebra,
        lambda: algebra.algebra_from_generators([1j * np.eye(2)], real_field=True),
    ),
    "dependent-subspace": (
        NotSubspace,
        lambda: algebra.subspace(algebra.full_matrix_algebra(2), [E11, 2.0 * E11]),
    ),
    "ideal-check-other-algebra": (
        NotSubspace,
        lambda: algebra.ideal_check(_diag(), algebra.subspace(_diag(), [E11])),
    ),
    "quotient-norm-other-algebra": (
        AlgebraMismatch,
        lambda: algebra.quotient_norm(_quotient_of_diag(), algebra.Element(_diag(), E11)),
    ),
    "transform-other-spectrum": (
        AlgebraMismatch,
        lambda: gelfand.gelfand_transform(algebra.Element(_diag(), E11), gelfand.characters(_diag())),
    ),
    "char-kernel-non-unital": (
        NotUnital,
        lambda: gelfand.char_kernel(*_nilpotent_and_functional()),
    ),
    "char-kernel-other-character": (
        AlgebraMismatch,
        lambda: gelfand.char_kernel(_diag(), gelfand.characters(_diag()).characters[0]),
    ),
    "gkz-real-field": (
        ComplexFieldRequired,
        lambda: gelfand.gkz_witness(
            algebra.algebra_from_generators([np.eye(2)], real_field=True), [1.0]
        ),
    ),
    "gkz-non-unital": (NotUnital, lambda: gelfand.gkz_witness(_nilpotent(), [0.0])),
    "gkz-phi-one-is-two": (ValueError, lambda: gelfand.gkz_witness(*_twice_a_character())),
    "conv-unequal-lengths": (ValueError, lambda: gelfand.conv([1.0, 2.0], [1.0])),
    "cyclic-order-zero": (ValueError, lambda: gelfand.cyclic_group_algebra(0)),
    "spectrum-quaternion": (ValueError, lambda: spectral.spectrum(np.eye(2), "quaternion")),
    "radius-limit-zero": (ValueError, lambda: spectral.spectral_radius_limit(np.eye(2), 0)),
    "commutator-non-unital": (
        NotUnital,
        lambda: spectral.commutator_scalar_test(
            algebra.Element(_nilpotent(), E12), algebra.Element(_nilpotent(), E12)
        ),
    ),
    "gram-not-star-closed": (NotStarClosed, lambda: states.gram_matrix(*_nilpotent_and_functional())),
    "norming-state-ambient": (ValueError, lambda: states.norming_state(algebra.ambient_element(np.eye(2)))),
    "as-matrix-3d": (ValueError, lambda: linalg.as_matrix(np.zeros((2, 2, 2)))),
    "ambient-coords": (NotInAlgebra, lambda: algebra.ambient_element(np.eye(2)).coords),
    "grid-one-point": (ValueError, lambda: qm.BoxGrid(1.0, 1)),
    "grid-negative-length": (ValueError, lambda: qm.BoxGrid(-1.0, 4)),
    "grid-state-wrong-count": (DimensionMismatch, lambda: qm.GridState(GRID, np.ones(3))),
    "grid-state-not-normalised": (ValueError, lambda: qm.GridState(GRID, np.ones(4))),
    "grid-state-of-zeros": (ValueError, lambda: qm.grid_state(GRID, np.zeros(4))),
    "box-energy-level-zero": (LevelOutOfRange, lambda: qm.box_energy(GRID, 0)),
    "momentum-two-points": (ValueError, lambda: qm.momentum_operator(qm.BoxGrid(1.0, 2))),
    "eigenstate-functional-other-space": (
        DimensionMismatch,
        lambda: qm.eigenstate_functional(GRID, 1, algebra.full_matrix_algebra(3)),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_raises_its_own_type(name):
    err, call = CASES[name]
    with pytest.raises(err) as info:
        call()
    assert type(info.value) is err


def test_conv_of_two_empty_sequences_is_empty():
    out = gelfand.conv([], [])
    assert isinstance(out, np.ndarray) and out.shape == (0,)
