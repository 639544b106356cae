#!/usr/bin/env python3
"""Visualise the prior over conditional densities induced by the flow head.

For a fixed parameter draw (one epsilon, reused across every setting) this
sweeps the output-weight scale lambda and the beta-hat prior scale with one
`flowcde prior-sample` run, which writes one density-grid CSV per combination
and a manifest, then prints how the across-x spread of every flow parameter
grows with lambda.  With sigma-beta 0 each column of the grid stays an exact
unit Gaussian, so the sweep isolates what each knob adds: lambda buys input
dependence, sigma-beta buys non-Gaussian shape.  A failing run exits with the
CLI's exit code.

Example:
    python3 scripts/prior_manifold.py --out out/prior --seed 7
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from flowcde import cli
from flowcde.bnn import MLPArchitecture, prior_outputs
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

    code = cli.main([
        "prior-sample", "head=nf", f"n_stages={args.n_stages}", f"hidden={args.hidden}",
        f"seeds={args.seed}", "lambdas=" + ",".join(map(repr, args.lambdas)),
        "sigma_betas=" + ",".join(map(repr, args.sigma_betas)),
        "x_min=-2", "x_max=2", "x_points=40", "y_min=-8", "y_max=8", "y_points=161",
        f"out={args.out.resolve()}",
    ])
    if code:
        sys.exit(code)

    # the same epsilon under a growing lambda: across-x spread of each output
    head = make_head("nf", n_stages=args.n_stages)
    arch = MLPArchitecture(1, (args.hidden,), head.output_dim)
    x_grid = np.linspace(-2.0, 2.0, 40)
    print("\nacross-x std of the flow parameter outputs (fixed draw):")
    print("lambda " + " ".join(f"w{j:<7d}" for j in range(head.output_dim)))
    for lam in args.lambdas:
        prior = head.default_prior(1.0, lam, 1.0)
        omega = prior_outputs(arch, prior, head.group_map(), args.seed, x_grid[:, None])
        print(f"{lam:<6g} " + " ".join(f"{s:8.4f}" for s in omega.std(axis=0)))


if __name__ == "__main__":
    main()
