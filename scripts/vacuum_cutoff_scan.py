#!/usr/bin/env python3
"""Vacuum <E^2> against the momentum cutoff.

The point fluctuation of the electric field grows without bound as more
lattice momenta are admitted; on the box lattice the sum is finite and
auditable at every cutoff.  Cross-checks the smallest cutoff against the
operator matrix path.
"""

import numpy as np

import photonfield as pf
from photonfield.fields import FieldKind, SpacetimePoint

LENGTH = 2 * np.pi


def main() -> None:
    cutoffs = range(1, 7)
    rows = pf.vacuum_field_square_scan(length=LENGTH, hbar=1.0, c=1.0, cutoffs=cutoffs)
    # n^2 over the cube of the largest cutoff; each ball is a mask of it.
    sq = np.arange(-max(cutoffs), max(cutoffs) + 1) ** 2
    n2 = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
    print("cutoff  modes        vacuum <E^2>")
    for cutoff, value in rows:
        count = 2 * np.count_nonzero((n2 > 0) & (n2 <= cutoff**2))  # both helicities
        print(f"{cutoff:6d}  {count:5d}  {value:18.12f}")

    modes = []
    for n in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        modes.extend([(1, n), (-1, n)])
    basis = pf.build_basis(pf.LatticeConfig(length=LENGTH, n_max=1, modes=tuple(modes)))
    vac = pf.vacuum(basis)
    x0 = SpacetimePoint(r=np.zeros(3), t=0.0)
    matrix = sum(
        np.real(pf.expectation(op @ op, vac)) for op in pf.field(basis, FieldKind.E, x0)
    )
    print(f"\ncutoff 1 matrix path: {matrix:.12f} (closed sum {rows[0][1]:.12f})")


if __name__ == "__main__":
    main()
