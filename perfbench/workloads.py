"""Seeded inputs and the single operation each workload performs.

Every workload is an endless stream of operations drawn from
``random.Random(f"{workload}-{seed}")``, generated in small blocks whose
strata counts are exact, so that the mix of cheap and expensive operations
is the same in every run and only the values inside each stratum vary with
the seed.  The program sees nothing but the generated arguments.

Operations call into the package through module attributes looked up at
call time (``mods.evaluate.evaluate(...)``), so the traced run sees the
same calls through its wrappers.
"""
from __future__ import annotations

import cmath
import contextlib
import csv
import importlib
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Spec:
    """Fixed per-workload constants.

    min_ops      every timed phase runs at least this many operations, so the
                 tail percentile always has >= 10 samples beyond it and the
                 counts taken over the first min_ops operations repeat exactly
    tail_pct     the reported tail percentile
    checked      the first `checked` operations are compared with mpmath
    """

    min_ops: int
    tail_pct: float
    checked: int


SPECS = {
    "points": Spec(min_ops=1000, tail_pct=99.0, checked=300),
    "census": Spec(min_ops=100, tail_pct=90.0, checked=100),
    "crosscheck": Spec(min_ops=1000, tail_pct=99.0, checked=200),
}

# the unit-circle stratum with sigma in (1, 4); one op in three is at z = 1
POINTS_BLOCK = (("z1", 30), ("unit", 25), ("annulus", 20), ("disk", 15),
                ("unit_high", 7), ("near_one", 3))
CENSUS_BLOCK = 4          # 3 ops with --z 1,-1 and one with two seeded reals
CROSSCHECK_BLOCK = (("fe", 34), ("case3", 4), ("six", 2))
PROBE_SIZE = 20           # untimed near-one inputs below the refusal cap


def modules() -> SimpleNamespace:
    """The package modules, reached by import path: the package attribute
    ``lerchzeta.evaluate`` is the function, not the module."""
    names = ("cli", "errors", "evaluate", "functional_eq", "identities",
             "zeros")
    return SimpleNamespace(**{n: importlib.import_module(f"lerchzeta.{n}")
                              for n in names})


def _a(rng: random.Random) -> float:
    return 1.0 - rng.random()          # (0, 1]


def _between(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform on the open interval (lo, hi)."""
    while True:
        x = lo + (hi - lo) * rng.random()
        if lo < x < hi:
            return x


def _unit(rng: random.Random, min_angle: float = 0.01) -> complex:
    theta = _between(rng, min_angle, math.pi) * rng.choice((-1.0, 1.0))
    return cmath.exp(1j * theta)


def _near_one(rng: random.Random, lo_exp: float, hi_exp: float) -> complex:
    """z with |1 - z| log-uniform in [10^lo_exp, 10^hi_exp): half on the
    unit circle, half real inside it."""
    d = 10.0 ** rng.uniform(lo_exp, hi_exp)
    if rng.random() < 0.5:
        return cmath.exp(2j * math.asin(0.5 * d) * rng.choice((-1.0, 1.0)))
    return complex(1.0 - d, 0.0)


# --------------------------------------------------------------------------
# points: one evaluate(sigma, a, z) call on fresh inputs
# --------------------------------------------------------------------------

def points_ops(seed: int):
    rng = random.Random(f"points-{seed}")
    # sigma of the unit-circle sigma > 1 stratum follows a seeded golden-ratio
    # sequence: its cost spans three decades across (1, 4), and even coverage
    # keeps a run's total cost from depending on a few draws
    phase = rng.random()
    k = 0
    while True:
        block = []
        for stratum, count in POINTS_BLOCK:
            for _ in range(count):
                if stratum == "z1":
                    args = (_between(rng, -1.0, 1.0), _a(rng), complex(1.0))
                elif stratum == "unit":
                    args = (_between(rng, -1.0, 1.5), _a(rng), _unit(rng))
                elif stratum == "annulus":
                    while True:
                        z = _between(rng, 0.9, 1.0) * _unit(rng, 0.0)
                        if abs(1.0 - z) >= 0.01:
                            break
                    args = (_between(rng, -1.0, 1.5), _a(rng), z)
                elif stratum == "disk":
                    z = 0.9 * _a(rng) * _unit(rng, 0.0)
                    args = (_between(rng, -1.0, 4.0), _a(rng), z)
                elif stratum == "unit_high":
                    sigma = 1.0 + 3.0 * ((phase + k * GOLDEN) % 1.0)
                    z = complex(1.0) if k % 3 == 0 else _unit(rng)
                    k += 1
                    args = (sigma, _a(rng), z)
                else:   # near_one: the part the dispatcher still answers
                    args = (_between(rng, -1.0, 1.5), _a(rng),
                            _near_one(rng, -3.0, -2.0))
                block.append(("point", stratum) + args)
        rng.shuffle(block)
        yield from block


def refusal_probe(seed: int) -> list[tuple]:
    """Near-one inputs with |1 - z| in [1e-5, 1e-3): on the documented
    domain, but the integral routes refuse them with ConditioningError.
    Evaluated untimed, outside the workload."""
    rng = random.Random(f"probe-{seed}")
    return [("point", "probe", _between(rng, -1.0, 1.5), _a(rng),
             _near_one(rng, -5.0, -3.0)) for _ in range(PROBE_SIZE)]


def run_point(mods, op):
    _, _, sigma, a, z = op
    return mods.evaluate.evaluate(sigma, a, z)


# --------------------------------------------------------------------------
# census: one in-process `lerch scan` over two cells
# --------------------------------------------------------------------------

def census_ops(seed: int):
    rng = random.Random(f"census-{seed}")
    # a follows a seeded golden-ratio sequence per z list: a cell's root
    # count, and with it the bisection work, depends on a, and even coverage
    # of (0, 1] keeps the share of two-root ops the same in every run
    phase = {"pair": rng.random(), "reals": rng.random()}
    k = {"pair": 0, "reals": 0}
    while True:
        block = ["pair"] * (CENSUS_BLOCK - 1) + ["reals"]
        rng.shuffle(block)
        for kind in block:
            a = round(1.0 - (phase[kind] + k[kind] * GOLDEN) % 1.0, 12)
            k[kind] += 1
            if kind == "pair":
                zspec = "1,-1"
            else:
                zspec = ",".join(repr(round(rng.uniform(-0.99, 0.99), 12))
                                 for _ in range(2))
            yield ("scan", a or 1.0, zspec)


def run_scan(mods, op, out: Path):
    _, a, zspec = op
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        code = mods.cli.main(["scan", "--a-min", repr(a), "--a-max", repr(a),
                              "--a-step", "1", f"--z={zspec}",
                              "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"lerch scan exited with {code}")


def read_scan(out: Path) -> list[dict]:
    with out.open(newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------------
# crosscheck: the same value through independent routes
# --------------------------------------------------------------------------

def crosscheck_ops(seed: int):
    rng = random.Random(f"crosscheck-{seed}")
    while True:
        block = []
        for kind, count in CROSSCHECK_BLOCK:
            for i in range(count):
                if kind == "fe":
                    # z on the census domain: 13 ops at z = 1, 13 at z = -1
                    # and 8 at seeded reals
                    if i < 13:
                        z = complex(1.0)
                    elif i < 26:
                        z = complex(-1.0)
                    else:
                        z = complex(rng.uniform(-0.99, 0.99), 0.0)
                    block.append(("fe", _between(rng, -1.0, 0.0),
                                  rng.uniform(0.02, 0.98), z))
                elif kind == "case3":
                    theta = (_between(rng, 0.01, math.pi - 0.01)
                             * rng.choice((-1.0, 1.0)))
                    block.append(("case3", _a(rng), rng.uniform(0.05, 1.0),
                                  theta))
                else:
                    block.append(("six", rng.uniform(1.5, 4.0), 3 + i % 2))
        rng.shuffle(block)
        yield from block


def run_crosscheck(mods, op):
    kind = op[0]
    if kind == "fe":
        _, sigma, a, z = op
        value = mods.evaluate.evaluate(sigma, a, z)
        if z == 1:
            return (value, mods.functional_eq.zeta_fe_rhs(sigma, a),
                    mods.evaluate.hurwitz_em(sigma, a))
        return (value, mods.functional_eq.phi_fe_rhs(sigma, a, z), None)
    if kind == "case3":
        _, a, r, theta = op
        try:
            return mods.zeros.check_case3(a, r, theta)
        except mods.errors.SignConstancyError as exc:
            return exc      # the check's negative verdict, not a failed op
    _, sigma, q = op
    return mods.identities.verify_six_relations(sigma, q)


STREAMS = {"points": points_ops, "census": census_ops,
           "crosscheck": crosscheck_ops}


def runner(workload: str, mods, out_dir: Path):
    """(run, collect): run(op) is the timed call; collect, when not None,
    replaces its result afterwards, untimed (the census reads back the CSV
    the scan wrote)."""
    if workload == "points":
        return (lambda op: run_point(mods, op)), None
    if workload == "crosscheck":
        return (lambda op: run_crosscheck(mods, op)), None
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"scan-{os.getpid()}.csv"

    def collect(_):
        # delete the CSV after reading it: on ext4, truncating and
        # rewriting an existing file flushes it to disk on close, which
        # would put disk latency into the next op
        rows = read_scan(out)
        out.unlink()
        return rows
    return (lambda op: run_scan(mods, op, out)), collect


def label(workload: str, op, result) -> str:
    """The group an op's time is reported under in the detail line."""
    if workload == "points":
        return f"route:{result.method}"
    if workload == "census":
        return "z:1,-1" if op[2] == "1,-1" else "z:reals"
    return op[0] + (":z=1" if op[0] == "fe" and op[3] == 1 else "")


# the fixed first operation of each workload, used to time set-up
FIRST_OP = {
    "points": ("point", "z1", -0.5, 0.3, complex(1.0)),
    "census": ("scan", 0.1, "1,-1"),
    "crosscheck": ("fe", -0.5, 0.3, complex(-1.0)),
}
