#!/usr/bin/env python3
"""Grid-refinement study for the suspension-operator index.

Sweeps the u-grid size for a seeded random endpoint-flat path and prints the
index together with the smallest singular value the index keeps, over every
block's A_b and A_adj_b, each measured against its own largest singular
value; this shows where the kernel detection stabilizes.
"""

import argparse

import numpy as np

from sfcalc.apsindex import SuspensionProblem, _block_matrices, _fill, aps_index
from sfcalc.engines import sf_crossing
from sfcalc.generators import random_block_model, random_path, rng_from_seed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--grids", type=int, nargs="+",
                        default=[25, 50, 100, 200, 400])
    parser.add_argument("--scheme", default="forward-upwind",
                        choices=["forward-upwind", "implicit-midpoint"])
    args = parser.parse_args()

    rng = rng_from_seed(args.seed)
    model = random_block_model(rng, max_blocks=2, max_block_dim=3)
    path = random_path(rng, model, num_samples=7, endpoint_flat=True)
    flow = sf_crossing(path).value
    print(f"model {model}  crossing flow {flow}")
    print(f"{'M':>6} {'index':>8} {'min sigma kept':>16}")
    for m in args.grids:
        prob = SuspensionProblem(path=path, grid_size=m, scheme=args.scheme)
        kept = np.inf
        for stencil in _block_matrices(prob):
            sigma = np.linalg.svd(_fill(*stencil), compute_uv=False)
            kept = min(kept, sigma[sigma >= prob.kernel_threshold * sigma[0]].min())
        idx = aps_index(prob)
        print(f"{m:>6} {idx:>8} {kept:>16.6e}")


if __name__ == "__main__":
    main()
