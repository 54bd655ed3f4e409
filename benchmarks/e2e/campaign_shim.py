"""Run a benchmark campaign through the public CLI.

The registered campaigns all finish in 1-2 s — too short to time — so the
benchmark registers one of its own, ``bench_family``, through the public
``SWEEPS`` registry and then hands the remaining flags to
``repro.experiments.cli.main`` unchanged:

    python campaign_shim.py --bench-seed 7 --bench-scale 3.2 \
        --sweep bench_family --jobs 1 --store <dir>

``bench_family`` is ``method_family_sweep`` over three consecutive seeds
starting at ``--bench-seed``: 8 methods x 3 seeds = 24 cells (sync, fixed-tau,
AdaComm, three gossip topologies, async, elastic; m = 6).  Without
``--bench-scale`` nothing is registered and the shim is the plain CLI.
"""

from __future__ import annotations

import argparse
import sys


def register_bench_family(seed: int, scale: float) -> None:
    from repro.api.registries import SWEEPS
    from repro.sweep.campaigns import method_family_sweep

    def bench_family():
        return method_family_sweep(seeds=(seed, seed + 1, seed + 2), scale=scale)

    SWEEPS.register("bench_family", bench_family, overwrite=True)


def split_args(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("--bench-seed", type=int, default=7)
    parser.add_argument("--bench-scale", type=float, default=None)
    return parser.parse_known_args(argv)


def main(argv: list[str]) -> int:
    own, cli_argv = split_args(argv)
    if own.bench_scale is not None:
        register_bench_family(own.bench_seed, own.bench_scale)
    from repro.experiments.cli import main as cli_main

    return cli_main(cli_argv)


# Pool workers of ``--jobs 2`` re-import this file as ``__mp_main__``; they
# receive plain config dicts and must not run the campaign again.
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
