"""Independent reference values from mpmath at 30 digits, and the checks the
benchmark applies with them.

Only the benchmark imports mpmath; every call here runs after the timed
phases have ended.  Errors are formed in mpmath precision from the exact
binary64 outputs, so the oracle is never rounded before the comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

DPS = 30
TOL = 1e-10            # QuadConfig().tol, the accuracy target of evaluate
FE_BOUND = 1e-6        # the repo's bounds for its own cross-checks
EM_BOUND = 1e-9
SIX_BOUND = 1e-9
SIX_GROSS = 1e-6       # above this a six-relation residual is a wrong result
CASE3_ABS = 1e-9       # min |Im Phi| of check_case3 against the oracle's
ROOT_DELTA = 1e-8      # a reported root must sit inside a sign change this wide
CASE3_SIGMAS = np.linspace(-0.9, -0.1, 9)   # check_case3's default grid


def phi(sigma: float, a: float, z: complex):
    """Phi(sigma, a, z) in mpmath: Hurwitz zeta at z = 1, lerchphi elsewhere."""
    with mp.workdps(DPS):
        if z == 1:
            return mp.zeta(sigma, a)
        return mp.lerchphi(mp.mpc(z.real, z.imag), sigma, a)


def endpoint_values(a: float, z: complex):
    """Exact Phi(0, a, z) and Phi(-1, a, z) (zeta(0,a) = 1/2 - a,
    zeta(-1,a) = -B_2(a)/2, Phi(0) = 1/(1-z), Phi(-1) = a/(1-z) + z/(1-z)^2)."""
    with mp.workdps(DPS):
        a = mp.mpf(a)
        if z == 1:
            return mp.mpf(0.5) - a, -mp.bernpoly(2, a) / 2
        w = mp.mpc(z.real, z.imag)
        return 1 / (1 - w), a / (1 - w) + w / (1 - w) ** 2


@dataclass(frozen=True)
class PointCheck:
    tol_miss: bool         # error above max(tol, tol |Phi|)
    bound_violation: bool  # error above the claimed abs_err_estimate
    wrong: bool            # error above both: a silently wrong value


def check_point(value: complex, est: float, ref, tol: float = TOL) -> PointCheck:
    with mp.workdps(DPS):
        err = abs(mp.mpc(value.real, value.imag) - ref)
        allowed = mp.mpf(tol) * max(1, abs(ref))
        claimed = mp.mpf(est)
        return PointCheck(tol_miss=bool(err > allowed),
                          bound_violation=bool(err > claimed),
                          wrong=bool(err > max(allowed, claimed)))


def check_cell(a: float, z: complex, verdict: str, n_brackets: int,
               roots: list[float]) -> bool:
    """A census cell is right when its verdict and bracket count match the
    endpoint-sign criterion (a zero exists on (-1, 0) exactly when
    Phi(0) and Phi(-1) differ in sign) and every root sits inside a sign
    change of the oracle."""
    v0, vm1 = endpoint_values(a, z)
    zero_exists = mp.sign(mp.re(v0)) * mp.sign(mp.re(vm1)) < 0
    if (verdict == "ZeroExists") != zero_exists:
        return False
    if zero_exists != (n_brackets >= 1) or len(roots) != n_brackets:
        return False
    for r in roots:
        lo = mp.re(phi(r - ROOT_DELTA, a, z))
        hi = mp.re(phi(r + ROOT_DELTA, a, z))
        if mp.sign(lo) * mp.sign(hi) >= 0:
            return False
    return True


def case3_reference(a: float, r: float, theta: float,
                    sigmas) -> tuple[bool, float]:
    """(Im Phi keeps one strict sign on the grid, min |Im Phi|) from mpmath."""
    z = complex(r * math.cos(theta), r * math.sin(theta))
    ims = [mp.im(phi(float(s), a, z)) for s in sigmas]
    signs = {mp.sign(v) for v in ims}
    return len(signs) == 1 and 0 not in signs, float(min(abs(v) for v in ims))


# --------------------------------------------------------------------------
# applying the checks to a run's records: (op, result, seconds, error, label)
# --------------------------------------------------------------------------

def _finite(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


def _cells(rows: list[dict]) -> list[tuple]:
    return [(float(r["a"]), complex(float(r["z_re"]), float(r["z_im"])),
             r["verdict"], int(r["n_brackets"]),
             [float(x) for x in r["roots"].split(";") if x]) for r in rows]


def _check_crosscheck(op, result, bump) -> None:
    kind = op[0]
    if kind == "fe":
        _, sigma, a, z = op
        value, fe, em = result
        ref = phi(sigma, a, z)
        pc = check_point(value.value, value.abs_err_estimate, ref)
        bump("tol_miss", pc.tol_miss)
        bump("bound_violation", pc.bound_violation)
        outputs = [value, fe] + ([em] if em is not None else [])
        bump("wrong", any(not _finite(r.value)
                          or check_point(r.value, r.abs_err_estimate, ref).wrong
                          for r in outputs))
        bump("check_fail", abs(value.value - fe.value) > FE_BOUND
             or (em is not None and abs(em.value - value.value) > EM_BOUND))
    elif kind == "case3":
        _, a, r, theta = op
        constant, m_ref = case3_reference(a, r, theta, CASE3_SIGMAS)
        raised = isinstance(result, Exception)
        bump("check_fail", raised)
        bump("wrong", not raised and (not constant
                                      or abs(result - m_ref) > CASE3_ABS))
    else:
        worst = result.max_residual
        bump("check_fail", not worst <= SIX_BOUND)
        bump("wrong", not worst <= SIX_GROSS)


def check(workload: str, records: list[tuple], probe: list[tuple]) -> dict:
    """Compare the checked operations (and, for points, the refusal probe)
    with the oracle.  `correct` is False when any output is wrong: off the
    oracle by more than both its own error estimate and the tolerance, a
    census cell that misclassifies or misplaces a root, or a gross
    cross-check disagreement.  The ratios are over the checked operations."""
    counts = {"fail": 0, "check_fail": 0, "tol_miss": 0, "bound_violation": 0,
              "wrong": 0}
    wrong = []

    def bump(key: str, hit: bool) -> None:
        if hit:
            counts[key] += 1
            if key == "wrong":
                wrong.append(repr(op))

    for op, result, _, err, _ in records:
        if err is not None:
            counts["fail"] += 1
            continue
        if workload == "points":
            _, _, sigma, a, z = op
            pc = check_point(result.value, result.abs_err_estimate,
                             phi(sigma, a, z))
            bump("tol_miss", pc.tol_miss)
            bump("bound_violation", pc.bound_violation)
            bump("wrong", pc.wrong or not _finite(result.value))
            bump("check_fail", pc.wrong)
        elif workload == "census":
            ok = len(result) == 2 and all(check_cell(*c) for c in _cells(result))
            bump("check_fail", not ok)
            bump("wrong", not ok)
        else:
            _check_crosscheck(op, result, bump)

    refused = 0
    for op, result, _, err, _ in probe:
        if err is not None:
            refused += 1
        else:
            _, _, sigma, a, z = op
            bump("wrong", check_point(result.value, result.abs_err_estimate,
                                      phi(sigma, a, z)).wrong)
    n = max(1, len(records))
    ratios = {f"{k}_ratio": counts[k] / n
              for k in ("fail", "check_fail", "tol_miss", "bound_violation")}
    ratios["refusal_probe_ratio"] = refused / len(probe) if probe else 0.0
    return {"correct": counts["wrong"] == 0, "checked": len(records),
            "ratios": ratios, "wrong": wrong}
