#!/usr/bin/env python3
"""Mean electric field of a coherent photon ensemble over one period.

A Poissonian superposition in a single (helicity +1, momentum z-hat) mode
produces a circularly polarized plane wave; an exact 5-photon state in the
same mode produces no mean field at all.  Emits the coherent trace as CSV
and prints both summaries.
"""

from pathlib import Path

import numpy as np

import photonfield as pf
from photonfield.fields import FieldKind, SpacetimePoint

ALPHA = 0.5
MODE = (1, (0, 0, 1))
OUT = Path("out/plane_wave")


def main() -> None:
    basis = pf.build_basis(pf.LatticeConfig(length=2 * np.pi, n_max=8, modes=(MODE,)))
    profile = pf.coherent_profile(ALPHA, MODE, cap=8)
    coherent = pf.superposition(basis, profile)
    omega = basis.omega[0]

    points = [
        SpacetimePoint(r=np.zeros(3), t=float(t))
        for t in np.linspace(0.0, 2 * np.pi / omega, 64, endpoint=False)
    ]
    rows = pf.expectation_grid(coherent, FieldKind.E, points)
    OUT.mkdir(parents=True, exist_ok=True)
    with (OUT / "coherent_trace.csv").open("w") as stream:
        pf.write_grid_csv(rows, stream)

    radii = [np.hypot(r[4], r[5]) for r in rows]
    print(f"coherent alpha={ALPHA}: truncation deficit {profile.norm_deficit:.3e}")
    print(f"  |<E>| over one period: {min(radii):.9f} .. {max(radii):.9f}")
    print(f"  ideal plane-wave amplitude alpha/(sqrt(2) pi) = {ALPHA / (np.sqrt(2) * np.pi):.9f}")
    print(f"  trace written to {OUT / 'coherent_trace.csv'}")

    number = pf.number_state(basis, (5,))
    peak = max(
        float(np.max(np.abs(pf.field_expectation_closed_form(number, FieldKind.E, pt))))
        for pt in points
    )
    print(f"five-photon number state: max |<E>| over the period = {peak}")


if __name__ == "__main__":
    main()
