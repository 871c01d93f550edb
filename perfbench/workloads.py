"""Workload definitions: which shipped configs each workload runs, and how.

Pure standard library, so the parent process can use it without importing
the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# The benchmark seed that reproduces the shipped configs; only runs at this
# seed are compared against the recorded reference values.
DEFAULT_SEED = 0

# BLAS/OpenMP thread cap for every child process.  The CLI's own default is
# `--threads 1`, and the load is a single closed-loop client.
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class ConfigRun:
    name: str                      # config file stem, e.g. "energy_test"
    subcommand: str
    overrides: tuple[str, ...] = ()
    tiny: tuple[str, ...] = ()     # extra overrides for the smoke-test size

    def config_path(self, root: Path) -> Path:
        return root / "configs" / f"{self.name}.cfg"

    def is_seeded(self, root: Path) -> bool:
        """True when the shipped config file sets run.seed itself."""
        for line in self.config_path(root).read_text().splitlines():
            if line.split("=", 1)[0].strip() == "run.seed":
                return True
        return False

    def overrides_for(self, root: Path, seed: int, tiny: bool = False) -> list[str]:
        out = list(self.overrides)
        if tiny:
            out += self.tiny
        if seed != DEFAULT_SEED and self.is_seeded(root):
            out.append(f"run.seed={seed % 2 ** 32}")
        return out

    def argv(self, root: Path, outdir: Path, seed: int, tiny: bool = False) -> list[str]:
        args = [self.subcommand, str(self.config_path(root)), "--out", str(outdir),
                "--threads", str(BLAS_THREADS)]
        for ov in self.overrides_for(root, seed, tiny):
            args += ["--override", ov]
        return args


_TINY_GRID = ("grid.N1=16", "grid.N2=16", "run.T_final=0.05")

WORKLOADS: dict[str, tuple[ConfigRun, ...]] = {
    # dense (6,6,N1,N2) contraction, stencils and monitors on a 200x200
    # constant background; no sources, no lift
    "energy": (
        ConfigRun("energy_test", "energy-test", tiny=_TINY_GRID),
    ),
    # 33/65/129 refinement driven by analytic f(t)/g(t) callbacks
    "mms": (
        ConfigRun("mms", "mms", tiny=("mms.refinements=9,17", "run.T_final=0.05")),
    ),
    # RT background: nonzero C, seeded forcing, boundary lift, snapshots
    "rt": (
        ConfigRun("rt_stable", "rt-run", tiny=_TINY_GRID),
        ConfigRun("rt_violated", "rt-run", tiny=_TINY_GRID),
        ConfigRun("eps_sweep", "eps-sweep", tiny=_TINY_GRID),
    ),
    # the only workload that evaluates the interface determinant
    "spectral": (
        ConfigRun("spectrum", "spectrum",
                  overrides=("spectral.n_eta=80", "spectral.n_xi=80"),
                  tiny=("spectral.n_eta=4", "spectral.n_xi=4")),
        ConfigRun("validate_constant", "validate-state", tiny=("grid.N1=16", "grid.N2=16")),
        ConfigRun("validate_rt", "validate-state", tiny=("grid.N1=16", "grid.N2=16")),
        ConfigRun("adjoint_check", "adjoint-check"),
    ),
}

ALL_CONFIGS = tuple(c.name for runs in WORKLOADS.values() for c in runs)
