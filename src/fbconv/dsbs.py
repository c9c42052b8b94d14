"""Binary symmetric pair sources with flip rate p, evaluated at blocklength n.

The joint mass of an n-bit pair depends only on the Hamming distance between
the two words, so every bound collapses to sums over the distance k with
binomial weights C(n, k).  All weighted sums run in log space (log C(n, k)
from math.lgamma, and a max-shifted log-sum-exp in numpy); blocklengths in the
hundreds would overflow linear arithmetic.

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
from typing import Iterable, List, Tuple

import numpy as np

from .probability import CodeSizes, InstanceTooLarge, JointPmf, PmfError, _real
from .relaxations import SwInstance
from .converses_ptp import EVENT_SLACK, BoundReport, _breakpoint_sup, _report

LN2 = math.log(2.0)
EXPAND_LIMIT = 8


def _code_size(n: int, rate: float) -> int:
    """2^(n R) rounded to an integer, at least 1."""
    try:
        raw = 2.0 ** (n * rate)
    except OverflowError:
        raise InstanceTooLarge(
            f"2^(n R) with n R = {n * rate:.6g} is beyond float range") from None
    return max(1, int(round(raw)))


def _nominal_code_size(n: int, rate: float) -> int:
    """_code_size, warning the caller of a DsbsSpec.M1/M2 property once 2^(n R)
    is past 2^53, beyond exact integer resolution of a float."""
    M = _code_size(n, rate)
    if M >= 2 ** 53:
        warnings.warn(
            f"2^(n R) = {float(M):.6g} is beyond exact integer resolution; "
            "the rounded code size is nominal", RuntimeWarning, stacklevel=3)
    return M


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

    M1 and M2 round 2^(n R) to an integer, warn (RuntimeWarning) that it is
    nominal once that power passes 2^53, and raise InstanceTooLarge once it
    leaves float range; the bounds only need log M, warn of nothing and
    work at any n.
    """

    n: int
    p: float
    R1: float
    R2: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)
                and self.n >= 1):
            raise PmfError(f"n must be a positive integer, got {self.n!r}")
        if not (_real(self.p) and 0.0 < self.p < 0.5):
            raise PmfError(f"p must lie in (0, 0.5), got {self.p!r}")
        if not (_real(self.R1) and _real(self.R2)
                and 0.0 <= self.R1 < math.inf and 0.0 <= self.R2 < math.inf):
            raise PmfError(f"rates must be finite and nonnegative, got {self.R1!r}, {self.R2!r}")

    @property
    def M1(self) -> int:
        return _nominal_code_size(self.n, self.R1)

    @property
    def M2(self) -> int:
        return _nominal_code_size(self.n, self.R2)


def _log_sizes(spec: DsbsSpec):
    return _log_code_size(spec.n, spec.R1), _log_code_size(spec.n, spec.R2)


def _logsumexp(x: np.ndarray) -> float:
    """log sum exp(x), shifted by the max, whose own term 1 stays out of the
    sum (log1p, as in Blanchard, Higham & Higham, IMA J. Numer. Anal. 2021);
    -inf when x is empty or every entry is -inf."""
    if x.size == 0 or (top := x.max()) == -math.inf:
        return -math.inf
    rest = np.exp(x - top)
    rest[np.argmax(x)] = 0.0
    return float(math.log1p(rest.sum()) + top)


def _weights(spec: DsbsSpec):
    """log C(n, k) and log q_k for k = 0..n, q_k = p^k (1-p)^(n-k)."""
    n = spec.n
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    log_comb = log_fact[n] - log_fact - log_fact[::-1]
    k = np.arange(n + 1)
    log_q = k * math.log(spec.p) + (n - k) * math.log1p(-spec.p)
    return log_comb, log_q


# ---------------------------------------------------------------------------
# the three collapsed bounds: each curve computes its constants once per spec
# and returns (raw, switches), raw mapping log t to the bound at t and
# switches the log t where a piece of it ends


def _flow_curve(spec: DsbsSpec, je: bool):
    """The metaconverse (je False) or the joint-encoder bound (je True):
    sum_k C(n,k) min{q_k, t c}, c = 1/M1 + 1/M2 + 2^n/(M1 M2), minus three
    penalties exp(max_k min{a + log q_k, b + log t}), one per pair (a, b).
    The metaconverse's pairs are (log M1, 0), (log M2, 0) and (log J, 0),
    J = M1 M2 / 2^n.  The joint-encoder bound puts log J in every a, with
    b = log M2/2^n, log M1/2^n and 0, which is why it beats the
    eta-restricted one whenever M1, M2 <= 2^n.  Both share the switches."""
    log_comb, log_q = _weights(spec)
    lm1, lm2 = _log_sizes(spec)
    nl2 = spec.n * LN2
    lj = lm1 + lm2 - nl2
    log_c = _logsumexp(np.array([-lm1, -lm2, nl2 - lm1 - lm2]))
    if je:
        a, b = np.array([lj, lj, lj]), np.array([lm2 - nl2, lm1 - nl2, 0.0])
    else:
        a, b = np.array([lm1, lm2, lj]), np.zeros(3)
    capped = a[:, None] + log_q

    def raw(log_t: float) -> float:
        term = math.exp(_logsumexp(log_comb + np.minimum(log_q, log_t + log_c)))
        # each penalty is max over k of a min; the literal form, not the k=0 shortcut
        pen = np.exp(np.minimum(capped, b[:, None] + log_t).max(axis=1))
        return term - float(pen.sum())

    # q_k = t c for each k, and t = each penalty's cap at k = 0, where q_k is largest
    return raw, np.concatenate([log_q - log_c, a - b + log_q[0]])


def _mk_curve(spec: DsbsSpec):
    """The weight-collapsed union bound minus 3t: the mass of the closed event
    q_k <= t coef, coef = max{2^n/(M1 M2), 1/M1, 1/M2}, minus 3t."""
    log_comb, log_q = _weights(spec)
    lm1, lm2 = _log_sizes(spec)
    log_coef = max(spec.n * LN2 - lm1 - lm2, -lm1, -lm2)
    log_mass = log_comb + log_q

    def raw(log_t: float) -> float:
        # the additive log slack equals the relative slack the generic event
        # evaluators use
        mask = log_q <= log_t + log_coef + EVENT_SLACK
        return math.exp(_logsumexp(log_mass[mask])) - 3.0 * math.exp(log_t)

    return raw, log_q - log_coef


def _sup(curve) -> Tuple[float, dict]:
    """(sup of a curve over t in [0, 1), witness {t, log t} attaining it); see
    the module docstring.  log t reproduces the sup where t underflows to 0."""
    raw, switches = curve
    cands = np.unique(np.concatenate([[-math.inf], switches[switches < 0.0], [-1e-9]]))
    # raw takes one log t at a time and holds no (points x cells) temporary
    val, lt = _breakpoint_sup(lambda lts: np.array([raw(lt) for lt in lts]), cands, 1)
    return val, {"t": math.exp(lt), "log_t": float(lt)}


def _log_of(t: float) -> float:
    if not (0.0 <= t < 1.0) or not math.isfinite(t):
        raise PmfError(f"t must lie in [0, 1), got {t!r}")
    return -math.inf if t == 0.0 else math.log(t)


def dsbs_converse(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the collapsed four-term metaconverse with the
    uniform-marginal flow weights t/(M1 M2), t P2/M1, t P1/M2."""
    return _report("dsbs-converse", *_sup(_flow_curve(spec, je=False)),
                   "weight-collapsed distributed metaconverse")


def dsbs_converse_at(spec: DsbsSpec, t: float) -> float:
    return _flow_curve(spec, je=False)[0](_log_of(t))


def dsbs_je_bound(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the collapsed joint-encoder converse (the variant
    whose three penalty terms all carry M1 M2)."""
    return _report("dsbs-je", *_sup(_flow_curve(spec, je=True)),
                   "weight-collapsed joint-encoder converse")


def dsbs_je_at(spec: DsbsSpec, t: float) -> float:
    return _flow_curve(spec, je=True)[0](_log_of(t))


def dsbs_mk(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the weight-collapsed union bound minus 3t."""
    return _report("dsbs-mk", *_sup(_mk_curve(spec)),
                   "Miyake-Kanaya union bound, weight form")


def dsbs_mk_at(spec: DsbsSpec, t: float) -> float:
    return _mk_curve(spec)[0](_log_of(t))


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
    """All three bounds at each blocklength; rows sorted by (n, bound name).
    PmfError for an n that DsbsSpec rejects."""
    rows = []
    for cur in sorted({DsbsSpec(n, spec.p, spec.R1, spec.R2) for n in n_list}, key=lambda s: s.n):
        for rep in (dsbs_converse(cur), dsbs_je_bound(cur), dsbs_mk(cur)):
            rows.append(SweepRow(int(cur.n), rep.name, rep.raw_value, rep.clamped_value,
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


def expand_joint(spec: DsbsSpec) -> SwInstance:
    """The full 2^n x 2^n instance with mass 2^-n p^d (1-p)^(n-d)."""
    if spec.n > EXPAND_LIMIT:
        raise InstanceTooLarge(
            f"n = {spec.n} expands to a {2 ** spec.n}^2 table, cap is 2^{EXPAND_LIMIT}")
    size = 1 << spec.n
    words = np.arange(size)
    dist = np.zeros((size, size), dtype=int)
    for bit in range(spec.n):
        dist += (words[:, None] ^ words[None, :]) >> bit & 1
    mass = (spec.p ** dist) * (1.0 - spec.p) ** (spec.n - dist) / size
    mass = mass / mass.sum()
    return SwInstance(JointPmf(mass), CodeSizes(spec.M1, spec.M2))
