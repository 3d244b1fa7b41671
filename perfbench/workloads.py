"""Workload definitions: a workload seed becomes a fixed list of CLI commands.

Each workload is a closed loop: one client issues its command list in
order, each command waiting for the previous one, and one trip through the
list is a pass.  The seed draws every family scale from [0.8, 1.25] and the
``--seed`` of each ``sample`` command.  Families, sizes, alpha and the
command list stay fixed, so the load is comparable across seeds.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

SCALE_RANGE = (0.8, 1.25)

# Pair name -> (phi, psi) family templates; {} is replaced by a drawn scale.
PAIRS = {
    "normal": ("normal:{}", "normal:{}"),
    "laplace": ("laplace:{}", "laplace:{}"),
    "cauchy_normal": ("cauchy:{}", "normal:{}"),
    "nig": ("nig:1,{}", "nig:1,{}"),
    "stable07_normal": ("stable:0.7,{}", "normal:{}"),
}

# The seed whose outputs are compared against references.json.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload, with the inputs its checks need."""

    name: str  # unique within the workload; names the output path
    sub: str
    pair: Optional[str] = None
    phi: Optional[str] = None
    psi: Optional[str] = None
    perturb: Optional[str] = None
    n: Optional[int] = None
    seed: Optional[int] = None

    def out_path(self, work: Path) -> Path:
        return work / (self.name + (".csv" if self.sub in ("density", "sample") else ""))

    def argv(self, work: Optional[Path] = None) -> list[str]:
        """CLI arguments; with ``work`` given, outputs go under it."""
        args = [self.sub]
        for flag, value in (("--phi", self.phi), ("--psi", self.psi), ("--perturb", self.perturb),
                            ("--n", self.n), ("--seed", self.seed)):
            if value is not None:
                args += [flag, str(value)]
        return args if work is None else args + ["--out", str(self.out_path(work))]


def pair_tokens(seed: int) -> dict[str, tuple[str, str]]:
    """The five (phi, psi) shorthand pairs, with scales drawn from the seed."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, (phi, psi) in PAIRS.items():
        s_phi, s_psi = (round(float(s), 4) for s in rng.uniform(*SCALE_RANGE, size=2))
        out[name] = (phi.format(s_phi), psi.format(s_psi))
    return out


def _sample_seeds(seed: int) -> list[int]:
    # Drawn from a stream of its own, so the scales do not shift with it.
    return [int(s) for s in np.random.default_rng([seed, 1]).integers(0, 2**31, size=2)]


def commands(workload: str, seed: int) -> list[Command]:
    tokens = pair_tokens(seed)

    def cmd(name, sub, pair=None, **kw):
        phi, psi = tokens[pair] if pair else (None, None)
        return Command(name, sub, pair=pair, phi=phi, psi=psi, **kw)

    if workload == "riesz-gram":
        return [cmd(f"riesz.{p}", "riesz", p, n=32) for p in PAIRS]
    if workload == "verify-diag":
        out = [cmd(f"verify.{p}", "verify", p, perturb="cosgauss" if i % 2 else None)
               for i, p in enumerate(PAIRS)]
        return out + [cmd("figures", "figures"), cmd("density.cauchy_normal", "density", "cauchy_normal")]
    if workload == "sample-emit":
        s1, s2 = _sample_seeds(seed)
        return [
            cmd("sample.normal", "sample", "normal", n=1_000_000, seed=s1),
            cmd("sample.laplace_cosgauss", "sample", "laplace", perturb="cosgauss", n=1_000_000, seed=s2),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("riesz-gram", "verify-diag", "sample-emit")
