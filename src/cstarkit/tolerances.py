"""Every tolerance of cstarkit, as one named constant each.

A tolerance decides a claim: whether a matrix lies in a span, whether a
functional is positive or multiplicative, whether a report's residual
holds.  The comment above each constant says what it decides; checks that
share a meaning and a value share the name.  A relative tolerance is
multiplied by the scale its comment names.

Not tolerances, and so kept beside the code they bound: the budgets
(Neumann terms, quotient-norm ellipsoid steps, sample stack sizes), and the
rounding margins that keep a fast path exact.
"""

# -- Spans and elements (algebra)

# Relative residual within which a candidate lies in a span: growth, unit, flags, ideals, certificate.
MEMBERSHIP_TOL = 1e-9
# Residual of algebra._membership_residuals within which a matrix is an element or subspace member.
ELEMENT_TOL = 1e-8
# Norm below which a matrix counts as zero: Hermitian spanning set; GKZ witness, relative to its terms.
ZERO_NORM = 1e-12
# Width of the certified quotient-norm bracket, with the element scaled to norm in [1/2, 1).
QUOTIENT_NORM_GAP = 1e-10
# Gap between neighbouring eigenvalues of closure's generic Hermitian h, relative to ||h||,
# above which h counts as simple: rounding then turns its eigenvectors by about
# 2e-16 / 1e-5 = 2e-11, 50-100x below MEMBERSHIP_TOL, so no two blocks merge.
SIMPLE_SPECTRUM_GAP = 1e-5

# -- Dense kernels (linalg)

# Relative to ||m||: herm_eig's Hermitian defect, invert's zero singular values.
LINALG_TOL = 1e-9

# -- Spectra and element flags (spectral)

# Eigenvalues linked by a chain of gaps, each within r = CLUSTER_SCALE * (1 + max |eigenvalue|),
# are one spectral point.
CLUSTER_SCALE = 1e-7
# Relative to ||a||, no floor: the positivity gate's Hermitian defect and least eigenvalue (every
# element and density); relative to ||a||^2, normality; to ||a|| ||b||, a scalar commutator.
CLASSIFY_TOL = 1e-9
# Bound on the tail of neumann_inverse's series.
NEUMANN_TOL = 1e-12
# Off-diagonal rest E of U* a U, U the algebra's frame (Algebra.frame), relative to
# ||a||_F, within which a sample keeps the diagonal as its eigenvalues (_framed_diagonals),
# and a basis element its characters' values (gelfand.characters).  For a normal sample,
# Bauer-Fike both ways moves r(a) by at most ||E||_2 <= 1e-10 ||a||_F; a gelfand sample
# projects a complex Gaussian onto d orthonormal directions, so ||a||_F ~ sqrt(2 d), about
# 11 at d = 64, and the bound, about 1.1e-9 there, stays far inside GELFAND_REPORT_TOL.
JOINT_EIG_TOL = 1e-10

# -- Characters and the GKZ criterion (gelfand)


# Max-norm distance within which two characters are one; relative rank cut of the transform.
DEDUPE_RADIUS = 1e-7
# Relative gap at which characters' fallback split cuts a block's compressed eigenvalues.
EIGENSPACE_TOL = 1e-8
# Multiplicativity residual of a character, and the size up to which its values are all 0.
MULTIPLICATIVE_TOL = 1e-8
# Smallest singular value above which a norm-1 GKZ witness counts as invertible.
INVERTIBLE_TOL = 1e-8
# How far phi(1) may be from 1, for a state or a GKZ functional.
UNIT_VALUE_TOL = 1e-6

# -- States and GNS (states)

# Density eigenvalues, and squared singular values of the GNS coset matrix (the
# Gram eigenvalues), at most this times the largest one span the GNS null space.
GRAM_NULL_TOL = 1e-10
# How far a vector state's vector may be from norm 1.
UNIT_VECTOR_TOL = 1e-9
# The Frobenius remainder at which pivoting stops: a density's multiplicativity residual is
# read from its factor with the remainder added (states._multiplicativity_bounds); a
# character's density on a commutative *-closed algebra has the rank of its eigenvalue's
# multiplicity, to about 1e-16.
DENSITY_FACTOR_TOL = 1e-13
# Least relative singular value of a representation's basis images at or below which it has a
# kernel (states._isometry_certificate); isometric ones read 1 / sqrt(n sum_r k_r) or more.
INJECTIVITY_TOL = 1e-8

# -- Particle in a box (qm)

# How far a GridState's spacing-weighted norm may be from 1.
GRID_NORM_TOL = 1e-12

# -- CLI input checks and report residuals (cli)

# gns input: Hermitian defect and |trace - 1| of a density matrix.
DENSITY_TOL = 1e-8
# radius: |Gelfand formula estimate - largest |eigenvalue||.
RADIUS_REPORT_TOL = 1e-3
# exp: ||e^m e^-m - I||, and the excess of ||e^m|| over e^||m||.
EXP_REPORT_TOL = 1e-9
# sqrt: ||root^2 - m||, relative to ||m|| (0 for m = 0).
SQRT_REPORT_TOL = 1e-8
# characters: the largest multiplicativity residual.
CHARACTERS_REPORT_TOL = 1e-7
# gelfand: the largest |sup|a-hat| - r(a)|, and |sup|a-hat| - ||a||| on *-closed algebras.
GELFAND_REPORT_TOL = 1e-8
# gkz: |phi| at the witness.
GKZ_REPORT_TOL = 1e-9
# gns, universal: relative *-homomorphism defect; gns: ||pi(z)|| / ||z|| - 1, state error.
GNS_REPORT_TOL = 1e-9
# universal: | ||pi(a)|| - ||a|| | / ||a|| at z and at the least singular combination of the basis.
UNIVERSAL_REPORT_TOL = 1e-7
# quotient-norm: excess of the quotient norm over ||a||.
QUOTIENT_NORM_REPORT_TOL = 1e-9
# qm: deviation of <x> from L/2 and of <cos> from its closed form.
QM_EXPECTATION_REPORT_TOL = 1e-3
# qm: Hermitian defect of the observables.
QM_HERMITIAN_REPORT_TOL = 1e-12
