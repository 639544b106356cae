#!/usr/bin/env python3
"""Visualise the prior over conditional densities induced by the flow head.

For a fixed parameter draw (one epsilon, reused across every setting) this
sweeps the output-weight scale lambda and the beta-hat prior scale, writes
one density-grid CSV per combination, and prints how the across-x spread of
every flow parameter grows with lambda.  With sigma-beta 0 each column of
the grid stays an exact unit Gaussian, so the sweep isolates what each knob
adds: lambda buys input dependence, sigma-beta buys non-Gaussian shape.

Example:
    python3 scripts/prior_manifold.py --out out/prior --seed 7
"""

import argparse
from pathlib import Path

import numpy as np

from flowcde.bnn import MLPArchitecture, prior_outputs, sample_prior_cde
from flowcde.data import write_grid
from flowcde.heads import make_head


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--hidden", type=int, default=50)
    ap.add_argument("--n-stages", type=int, default=5)
    ap.add_argument("--lambdas", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0])
    ap.add_argument("--sigma-betas", type=float, nargs="+", default=[0.0, 0.5, 1.0])
    ap.add_argument("--out", type=Path, default=Path("out/prior"))
    args = ap.parse_args()

    head = make_head("nf", n_stages=args.n_stages)
    arch = MLPArchitecture(1, (args.hidden,), head.output_dim)
    x_grid = np.linspace(-2.0, 2.0, 40)
    y_grid = np.linspace(-8.0, 8.0, 161)
    args.out.mkdir(parents=True, exist_ok=True)

    for lam in args.lambdas:
        for sb in args.sigma_betas:
            prior = head.default_prior(1.0, lam, sb)
            dens = sample_prior_cde(arch, prior, head, args.seed, x_grid, y_grid)
            path = args.out / f"prior_lambda{lam:g}_beta{sb:g}.csv"
            with open(path, "w") as fh:
                fh.write("x,y,density\n")
                write_grid(fh, x_grid, y_grid, dens)
    print(f"wrote {len(args.lambdas) * len(args.sigma_betas)} grids to {args.out}")

    # the same epsilon under a growing lambda: across-x spread of each output
    print("\nacross-x std of the flow parameter outputs (fixed draw):")
    header = "lambda " + " ".join(f"w{j:<7d}" for j in range(head.output_dim))
    print(header)
    for lam in args.lambdas:
        prior = head.default_prior(1.0, lam, 1.0)
        omega = prior_outputs(arch, prior, head.group_map(), args.seed, x_grid[:, None])
        spread = omega.std(axis=0)
        print(f"{lam:<6g} " + " ".join(f"{s:8.4f}" for s in spread))


if __name__ == "__main__":
    main()
