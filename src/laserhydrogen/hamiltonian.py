"""Assembly of the rotating-frame pseudo-Hamiltonian, one parity class.

In the i^l-phased truncated bound basis the matrix is real symmetric:

    diagonal:      E_n + mu*omega + A^2/2
    off-diagonal:  A * <a|p_x|b>   (only for |dl| = 1 and |dmu| = 1)

The p_x elements depend only on the basis, so their positions and values
are built once per basis and class (`basis.class_layout`) and each field
point costs one diagonal fill plus one scaled scatter of those values.
Every nonzero element joins states of equal z-reflection parity
(l + mu) mod 2, so H is block diagonal in the two parity classes, and p_x
changes mu by one, so inside a class every coupling joins its mu-even half
to its mu-odd half.  The layout gives each coupling of a class once, as
(r, c, p_x) between row r of the even half and row c of the odd half.
`assemble` scatters A * p_x at both mirror positions of the class's
block, in Fortran order, beside its diagonal (`class_diagonal`); the
folded solve of the eigensolver scatters it into the block between the
two halves alone.  No matrix over the whole basis is ever built; a scan
follows one initial state and solves only in that state's class.

All quantities in atomic units.  The dipole (k*a0 << 1) coupling is used.
The A^2/2 ponderomotive-type constant is always on the diagonal: it drives
the intensity dependence of the pseudo-energies, and as a multiple of the
identity it shifts every level alike and changes no dressed state, so a
study without it shifts E_i afterwards (`--drop-a2`, read by the
ionization scan alone) instead of solving another matrix.  A matrix keeps
only its entries, basis and parity class; the caller that assembled it
holds the field.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, class_layout
from .errors import ConfigurationError


@dataclass(frozen=True)
class LaserField:
    """Circularly polarized laser: amplitude A and frequency omega (a.u.)."""

    amplitude_A: float
    omega: float

    def __post_init__(self):
        for name in ("amplitude_A", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}"
                )
        if self.amplitude_A < 0:
            raise ConfigurationError("amplitude_A must be >= 0")
        # H carries A^2/2; ** would raise OverflowError where * gives inf
        if not math.isfinite(self.amplitude_A * self.amplitude_A):
            raise ConfigurationError(
                f"amplitude_A squared must be finite, got {self.amplitude_A!r}"
            )
        if self.omega <= 0:
            raise ConfigurationError("omega must be > 0")


@dataclass(frozen=True)
class PseudoHamiltonianMatrix:
    """H restricted to the states of one parity class (rows and columns in
    the order of `basis.class_positions(parity)`).

    `assemble` builds entries symmetric and read-only, and `diagonalize`
    refuses entries that are writeable or not of the class's size.  The
    dimension is read from entries, so the two cannot disagree.
    """

    entries: np.ndarray
    basis: BasisSet
    parity: int

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def class_diagonal(basis: BasisSet, laser: LaserField, parity: int) -> np.ndarray:
    """E_n + mu*omega + A^2/2 of each state of the class `parity` (0 or 1),
    in the order of `basis.class_positions(parity)`.

    Raises ConfigurationError for a parity other than 0 or 1 and for an
    empty class.
    """
    if parity not in (0, 1):
        raise ConfigurationError(f"parity must be 0 or 1, got {parity!r}")
    positions = basis.class_positions(parity)
    if len(positions) == 0:  # n0 = 1 has no odd state
        raise ConfigurationError(
            f"no state of the n0={basis.n0} basis has parity {parity}"
        )
    return (basis.energy[positions] + basis.mu[positions] * laser.omega
            + 0.5 * laser.amplitude_A**2)


def assemble(
    basis: BasisSet, laser: LaserField, *, parity: int = 0
) -> PseudoHamiltonianMatrix:
    """Build the real symmetric pseudo-Hamiltonian of one parity class.

    The matrix is the diagonal block of the class `parity` (0 or 1) in the
    whole-basis H, entry for entry.  Class 0 holds the 1s state.
    """
    diagonal = class_diagonal(basis, laser, parity)
    dim = len(diagonal)
    h = np.zeros((dim, dim), order="F")
    np.fill_diagonal(h, diagonal)
    if laser.amplitude_A != 0.0:  # at A = 0 no coupling is written
        even, odd, r, c, p_x = class_layout(basis, parity)
        rows, cols, scaled = even[r], odd[c], laser.amplitude_A * p_x
        h[rows, cols] = scaled
        h[cols, rows] = scaled
    h.flags.writeable = False
    return PseudoHamiltonianMatrix(h, basis, parity)
