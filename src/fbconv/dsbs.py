"""Binary symmetric pair sources with flip rate p, evaluated at blocklength n.

The joint mass of an n-bit pair depends only on the Hamming distance between
the two words, so every bound collapses to sums over the distance k with
binomial weights C(n, k).  All weighted sums run in log space (gammaln +
logsumexp); blocklengths in the hundreds would overflow linear arithmetic.

Rates are in bits per symbol and the scalar parameter is t = 2^(-beta),
matching the base-2 form of the collapsed displays.

Each sup over t in [0, 1) is exact from finitely many candidates.  Between
consecutive switch points (the t where some min{., t} changes branch, or
where mk's event gains a distance class) each bound is linear in t, or
decreasing in t for mk, and every bound is 0 at t = 0.  A linear piece
takes its max at an end, so the sup is the max over t = 0, the switches
inside (0, 1), and the right end, which t = exp(-1e-9) stands in for.  The
evaluators take log t and return exactly 0 at log t = -inf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Tuple

import numpy as np
from scipy.special import gammaln, logsumexp

from .probability import CodeSizes, JointPmf, PmfError
from .relaxations import InstanceTooLarge, SwInstance
from .converses_ptp import EVENT_SLACK, BoundReport, _breakpoint_sup, _report

LN2 = math.log(2.0)
EXPAND_LIMIT = 8


@lru_cache(maxsize=None)
def _code_size(n: int, rate: float) -> int:
    try:
        raw = 2.0 ** (n * rate)
    except OverflowError:
        raise InstanceTooLarge(
            f"2^(n R) with n R = {n * rate:.6g} is beyond float range") from None
    if np.spacing(raw) > 1.0:
        warnings.warn(
            f"2^(n R) = {raw:.6g} is beyond exact integer resolution; "
            "the rounded code size is nominal", RuntimeWarning, stacklevel=3)
    return max(1, int(round(raw)))


@lru_cache(maxsize=None)
def _log_code_size(n: int, rate: float) -> float:
    """log M: of the rounded code size while 2^(n R) is a float, and
    n R ln 2 beyond that, where M itself has no float value."""
    try:
        return math.log(_code_size(n, rate))
    except InstanceTooLarge:
        return n * rate * LN2


@dataclass(frozen=True)
class DsbsSpec:
    """n-bit pair source, uniform marginals, bitwise flip probability p.

    M1 and M2 round 2^(n R) to an integer and raise InstanceTooLarge once
    that power leaves float range; the bounds only need log M and work at
    any n.
    """

    n: int
    p: float
    R1: float
    R2: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)
                and self.n >= 1):
            raise PmfError(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 < self.p < 0.5):
            raise PmfError(f"p must lie in (0, 0.5), got {self.p!r}")
        if self.R1 < 0.0 or self.R2 < 0.0:
            raise PmfError("rates must be nonnegative")

    @property
    def M1(self) -> int:
        return _code_size(self.n, self.R1)

    @property
    def M2(self) -> int:
        return _code_size(self.n, self.R2)


def _log_sizes(spec: DsbsSpec):
    return _log_code_size(spec.n, spec.R1), _log_code_size(spec.n, spec.R2)


def _weights(spec: DsbsSpec):
    """log C(n, k) and log q_k for k = 0..n, q_k = p^k (1-p)^(n-k)."""
    k = np.arange(spec.n + 1)
    log_comb = gammaln(spec.n + 1) - gammaln(k + 1) - gammaln(spec.n - k + 1)
    log_q = k * math.log(spec.p) + (spec.n - k) * math.log1p(-spec.p)
    return log_comb, log_q


# ---------------------------------------------------------------------------
# the three collapsed bounds; internal evaluators take log t


def _sum_min(log_comb, log_q, log_cap):
    """sum_k C(n,k) min{q_k, cap_k} with everything in logs."""
    return float(np.exp(logsumexp(log_comb + np.minimum(log_q, log_cap))))


def _meta_raw(spec: DsbsSpec, log_comb, log_q, log_t: float) -> float:
    lm1, lm2 = _log_sizes(spec)
    nl2 = spec.n * LN2
    log_c = logsumexp([-lm1, -lm2, nl2 - lm1 - lm2])
    term = _sum_min(log_comb, log_q, log_t + log_c)
    # each penalty is max over k of a min; the literal form, not the k=0 shortcut
    pen1 = np.exp(np.minimum(lm1 + log_q, log_t).max())
    pen2 = np.exp(np.minimum(lm2 + log_q, log_t).max())
    pen3 = np.exp(np.minimum(lm1 + lm2 - nl2 + log_q, log_t).max())
    return term - float(pen1 + pen2 + pen3)


def _je_raw(spec: DsbsSpec, log_comb, log_q, log_t: float) -> float:
    lm1, lm2 = _log_sizes(spec)
    nl2 = spec.n * LN2
    log_c = logsumexp([-lm1, -lm2, nl2 - lm1 - lm2])
    term = _sum_min(log_comb, log_q, log_t + log_c)
    # all three penalties carry the M1 M2 prefactor here, which is why this
    # bound beats the eta-restricted one whenever M1, M2 <= 2^n
    base = lm1 + lm2 - nl2 + log_q
    pen1 = np.exp(np.minimum(base, lm2 - nl2 + log_t).max())
    pen2 = np.exp(np.minimum(base, lm1 - nl2 + log_t).max())
    pen3 = np.exp(np.minimum(base, log_t).max())
    return term - float(pen1 + pen2 + pen3)


def _log_union_coef(spec: DsbsSpec) -> float:
    lm1, lm2 = _log_sizes(spec)
    return max(spec.n * LN2 - lm1 - lm2, -lm1, -lm2)


def _mk_raw(spec: DsbsSpec, log_comb, log_q, log_t: float) -> float:
    # closed event q_k <= t * coef; the additive log slack equals the
    # relative slack the generic event evaluators use
    mask = log_q <= log_t + _log_union_coef(spec) + EVENT_SLACK
    mass = float(np.exp(logsumexp((log_comb + log_q)[mask]))) if mask.any() else 0.0
    return mass - 3.0 * math.exp(log_t)


def _switch_logs(spec: DsbsSpec, log_q) -> np.ndarray:
    """log t of the switches of _meta_raw and _je_raw: q_k = t c for each k,
    and t = each penalty's cap at k = 0, where q_k is largest."""
    lm1, lm2 = _log_sizes(spec)
    nl2 = spec.n * LN2
    log_c = logsumexp([-lm1, -lm2, nl2 - lm1 - lm2])
    q0 = float(log_q[0])
    return np.concatenate([log_q - log_c,
                           [lm1 + q0, lm2 + q0, lm1 + lm2 - nl2 + q0]])


def _mk_switch_logs(spec: DsbsSpec, log_q) -> np.ndarray:
    return log_q - _log_union_coef(spec)


def _sup(spec: DsbsSpec, raw, switch_logs) -> Tuple[float, float]:
    """(sup of raw over t in [0, 1), t attaining it); see the module docstring."""
    log_comb, log_q = _weights(spec)
    switches = switch_logs(spec, log_q)
    cands = np.unique(np.concatenate([[-math.inf], switches[switches < 0.0], [-1e-9]]))
    val, lt = _breakpoint_sup(lambda lt: raw(spec, log_comb, log_q, float(lt)), cands)
    return val, math.exp(lt)


def _at(spec: DsbsSpec, raw, t: float) -> float:
    log_comb, log_q = _weights(spec)
    return raw(spec, log_comb, log_q, _log_of(t))


def _log_of(t: float) -> float:
    if not (0.0 <= t < 1.0) or not math.isfinite(t):
        raise PmfError(f"t must lie in [0, 1), got {t!r}")
    return -math.inf if t == 0.0 else math.log(t)


def dsbs_converse(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the collapsed four-term metaconverse with the
    uniform-marginal flow weights t/(M1 M2), t P2/M1, t P1/M2."""
    raw, t = _sup(spec, _meta_raw, _switch_logs)
    return _report("dsbs-converse", raw, {"t": t},
                   "weight-collapsed distributed metaconverse")


def dsbs_converse_at(spec: DsbsSpec, t: float) -> float:
    return _at(spec, _meta_raw, t)


def dsbs_je_bound(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the collapsed joint-encoder converse (the variant
    whose three penalty terms all carry M1 M2)."""
    raw, t = _sup(spec, _je_raw, _switch_logs)
    return _report("dsbs-je", raw, {"t": t},
                   "weight-collapsed joint-encoder converse")


def dsbs_je_at(spec: DsbsSpec, t: float) -> float:
    return _at(spec, _je_raw, t)


def dsbs_mk(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the weight-collapsed union bound minus 3t."""
    raw, t = _sup(spec, _mk_raw, _mk_switch_logs)
    return _report("dsbs-mk", raw, {"t": t},
                   "Miyake-Kanaya union bound, weight form")


def dsbs_mk_at(spec: DsbsSpec, t: float) -> float:
    return _at(spec, _mk_raw, t)


# ---------------------------------------------------------------------------
# rate region and sweeps


def binary_entropy(p: float) -> float:
    """H(p) in bits."""
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def rate_region(spec: DsbsSpec, tol: float = 1e-9) -> str:
    """Classify (R1, R2) against {R1, R2 >= H(p), R1 + R2 >= 1 + H(p)}."""
    h = binary_entropy(spec.p)
    margins = (spec.R1 - h, spec.R2 - h, spec.R1 + spec.R2 - 1.0 - h)
    if min(margins) < -tol:
        return "outside"
    if min(margins) > tol:
        return "inside"
    return "boundary"


@dataclass(frozen=True)
class SweepRow:
    n: int
    bound_name: str
    raw_value: float
    clamped_value: float
    t_opt: float


def sweep(spec: DsbsSpec, n_list: Iterable[int]) -> List[SweepRow]:
    """All three bounds at each blocklength; rows sorted by (n, bound name)."""
    rows = []
    for n in sorted({int(x) for x in n_list}):
        cur = DsbsSpec(n, spec.p, spec.R1, spec.R2)
        for rep in (dsbs_converse(cur), dsbs_je_bound(cur), dsbs_mk(cur)):
            rows.append(SweepRow(n, rep.name, rep.raw_value, rep.clamped_value,
                                 float(rep.witness["t"])))
    rows.sort(key=lambda r: (r.n, r.bound_name))
    return rows


def sweep_csv(rows: List[SweepRow]) -> str:
    """CSV text: header n,bound,raw,clamped,t_opt; LF; round-trip floats."""
    lines = ["n,bound,raw,clamped,t_opt"]
    for r in rows:
        lines.append(f"{r.n},{r.bound_name},{r.raw_value!r},"
                     f"{r.clamped_value!r},{r.t_opt!r}")
    return "\n".join(lines) + "\n"


def gnuplot_script(csv_name: str) -> str:
    """Companion plot script; reads the CSV by relative path."""
    lines = [
        'set datafile separator ","',
        "set key top left",
        'set xlabel "blocklength n"',
        'set ylabel "lower bound on error probability"',
        "set yrange [0:1]",
    ]
    plots = ", \\\n     ".join(
        f'"{csv_name}" using 1:(strcol(2) eq "{name}" ? $4 : 1/0) '
        f'with linespoints title "{name}"'
        for name in ("dsbs-converse", "dsbs-je", "dsbs-mk"))
    lines.append("plot " + plots)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# explicit tensor form, for cross-checks at small n


def expand_joint(spec: DsbsSpec, cap: int = EXPAND_LIMIT) -> SwInstance:
    """The full 2^n x 2^n instance with mass 2^-n p^d (1-p)^(n-d)."""
    if spec.n > cap:
        raise InstanceTooLarge(
            f"n = {spec.n} expands to a {2 ** spec.n}^2 table, cap is 2^{cap}")
    size = 1 << spec.n
    words = np.arange(size)
    dist = np.zeros((size, size), dtype=int)
    for bit in range(spec.n):
        dist += (words[:, None] ^ words[None, :]) >> bit & 1
    mass = (spec.p ** dist) * (1.0 - spec.p) ** (spec.n - dist) / size
    mass = mass / mass.sum()
    return SwInstance(JointPmf(mass), CodeSizes(spec.M1, spec.M2))
