"""Parameter-grid sweeps emitting one CSV row per point.

Rows follow the grid iteration order (n, then alpha, then beta) and all
values are formatted exactly (rationals in lowest terms, ``inf`` for the
infinite penalty), so output is byte-identical across runs and worker counts.
Points refused by an enumeration guard produce a row with
``notes=skipped:guard`` instead of aborting the whole sweep.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Optional, TextIO, Tuple

from . import theory
from .equilibria import GuardExceeded, check_enumeration, enumerate_equilibria
from .game import GameParams, as_penalty, as_rational
from .stateio import format_value

CSV_COLUMNS = (
    "n",
    "alpha",
    "beta",
    "mode",
    "optimum_class",
    "optimum_cost",
    "ne_count",
    "worst_ne_cost",
    "poa",
    "pos",
    "se_count",
    "worst_se_cost",
    "spoa",
    "disconnected_ne_count",
    "notes",
)


@dataclass(frozen=True)
class SweepSpec:
    """A rectangular (n, alpha, beta) grid plus enumeration options."""

    ns: Tuple[int, ...]
    alphas: tuple
    betas: tuple
    mode: str = "nash"
    workers: int = 1
    override_guard: bool = False
    max_coalition: Optional[int] = None

    def __post_init__(self):
        if not (self.ns and self.alphas and self.betas):
            raise ValueError("sweep grid must be nonempty in n, alpha, and beta")
        object.__setattr__(self, "ns", tuple(self.ns))
        object.__setattr__(self, "alphas", tuple(as_rational(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(as_penalty(b) for b in self.betas))
        tuple(self.points())  # every grid point must be valid
        for n in self.ns:
            check_enumeration(n, self.mode, self.workers, self.max_coalition)

    def points(self) -> Iterator[GameParams]:
        for n in self.ns:
            for a in self.alphas:
                for b in self.betas:
                    yield GameParams(n, a, b)


def _fmt(value) -> str:
    return "" if value is None else format_value(value)


def sweep_records(spec: SweepSpec) -> Iterator[tuple]:
    """Yield one formatted CSV record per grid point, header excluded."""
    for params in spec.points():
        base = {
            "n": str(params.n),
            "alpha": format_value(params.alpha),
            "beta": format_value(params.beta),
            "mode": spec.mode,
            "notes": "",
        }
        try:
            result = enumerate_equilibria(
                params,
                spec.mode,
                workers=spec.workers,
                override_guard=spec.override_guard,
                max_coalition=spec.max_coalition,
            )
        except GuardExceeded:
            base["notes"] = "skipped:guard"
            yield tuple(base.get(col, "") for col in CSV_COLUMNS)
            continue
        opt_class = theory.social_optimum_class(params)
        base.update(
            optimum_class="+".join(opt_class.names()),
            optimum_cost=_fmt(result.optimum_cost),
            ne_count=str(len(result.equilibria)),
            worst_ne_cost=_fmt(result.worst_cost),
            poa=_fmt(result.poa),
            pos=_fmt(result.pos),
            disconnected_ne_count=str(result.disconnected_count),
        )
        if spec.mode == "strong":
            base.update(
                se_count=str(len(result.strong_equilibria)),
                worst_se_cost=_fmt(result.worst_strong_cost),
                spoa=_fmt(result.strong_poa),
            )
        yield tuple(base.get(col, "") for col in CSV_COLUMNS)


def run_sweep(spec: SweepSpec, out: TextIO) -> int:
    """Write the full CSV (header first) to ``out``; returns the row count."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for record in sweep_records(spec):
        writer.writerow(record)
        count += 1
    return count
