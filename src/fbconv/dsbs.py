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
inside (0, 1), and the right end, which t = exp(-1e-9) stands in for.

Each bound is one curve with the contract of converses_ptp's curves: one
evaluator, which maps a 1-D array of log t to the bound at each (exactly 0
at log t = -inf), and its switches.  _sup takes the max of the evaluator
over the candidates through converses_ptp._breakpoint_sup, and each *_at
evaluates it on a batch of one through converses_ptp._at; a point's value
does not depend on the batch, so the witness's log t gives raw_value back
exactly.  The flow curves of dsbs_converse and dsbs_je_bound take every
candidate by prefix log-sums in one numpy pass, O(n log n) with the
bisections (see _flow_curve).  dsbs_mk's evaluator loops over its points,
an O(n) sum at each of the about n candidates, so its sup costs O(n^2).
A suffix-sum evaluator would make it O(n) with no change to _sup, but the
benchmark (perfbench) keeps a record per timed operation, and the many
more operations of that faster sweep would take its resident memory past
its bound.

Measured, not proved: dsbs_mk <= dsbs_converse <= dsbs_je_bound, which is
the exact meta_sw for R1, R2 <= 1 (see dsbs_je_bound), on 300 random specs
with R1, R2 <= 1 in the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Tuple

import numpy as np

from .probability import CodeSizes, InstanceTooLarge, JointPmf, _integer_in, _real_in
from .relaxations import SwInstance
from .converses_ptp import (EVENT_SLACK, BoundReport, _at, _breakpoint_sup, _report,
                            _sorted_unique)

LN2 = math.log(2.0)
EXPAND_LIMIT = 8
_MAX_N = 10 ** 6   # blocklength cap; see DsbsSpec


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
    leaves float range; the bounds only need log M and warn of nothing.

    n is an integer in [1, 10^6], p a real in (0, 0.5) and each rate a
    finite real >= 0; PmfError for anything else, but InstanceTooLarge for
    an n past 10^6, at construction, before anything is allocated.  The
    bounds hold several arrays of n + 1 floats, 75-85 B per n: the
    tracemalloc peak of dsbs_je_bound plus dsbs_converse is 7.9 MiB at
    n = 10^5 and 71.5 MiB at n = 10^6.
    """

    n: int
    p: float
    R1: float
    R2: float

    def __post_init__(self):
        if _integer_in(self.n, 1, math.inf, "n must be a positive integer") > _MAX_N:
            raise InstanceTooLarge(f"n = {self.n} is past the blocklength cap {_MAX_N}")
        _real_in(self.p, lambda p: 0 < p < 0.5, "p must lie in (0, 0.5)")
        for rate in (self.R1, self.R2):
            _real_in(rate, lambda r: 0 <= r < math.inf, "rates must be finite and nonnegative")

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


@lru_cache(maxsize=1)
def _weights(spec: DsbsSpec):
    """log C(n, k) and log q_k for k = 0..n, q_k = p^k (1-p)^(n-k), read-only.
    The last spec's are kept: every bound reads them, dsbs_je_bound twice,
    and their lgamma calls are most of an O(n) pass."""
    n = spec.n
    log_fact = np.fromiter(map(math.lgamma, np.arange(1.0, n + 2.0)), float, n + 1)
    log_comb = log_fact[n] - log_fact - log_fact[::-1]
    k = np.arange(n + 1)
    log_q = k * math.log(spec.p) + (n - k) * math.log1p(-spec.p)
    for arr in (log_comb, log_q):
        arr.setflags(write=False)
    return log_comb, log_q


# ---------------------------------------------------------------------------
# the three collapsed bounds: each curve computes its constants once per spec
# and returns (values, switches), values mapping a 1-D array of log t to the
# bound at each and switches the log t where a piece of it ends


def _flow_curve(spec: DsbsSpec, je: bool):
    """The metaconverse (je False) or the joint-encoder bound (je True):
    sum_k C(n,k) min{q_k, t c}, c = 1/M1 + 1/M2 + 2^n/(M1 M2), minus three
    penalties exp(max_k min{a + log q_k, b + log t}), one per pair (a, b).
    The metaconverse's pairs are (log M1, 0), (log M2, 0) and (log J, 0),
    J = M1 M2 / 2^n.  The joint-encoder bound puts log J in every a, with
    b = log M2/2^n, log M1/2^n and 0, which is why it beats the
    eta-restricted one whenever M1, M2 <= 2^n.  Both share the switches.
    Above one bit per symbol b > 0, and where a penalty passes float range
    the value is -inf.

    values takes every log t in one numpy pass.  With x = log t + log c and
    j = #{k : log q_k > x}, found by bisection on -log q, which increases as
    p < 1/2, the first term is S(j) + t c N(j), N(j) = sum_{k<j} C(n,k) and
    S(j) = sum_{k>=j} C(n,k) q_k, both read from prefix and suffix log-sums.
    Each penalty is its k = 0 branch, as q_0 is the largest q_k.

    A running log-sum rounds each partial sum to its own magnitude, and
    log N(j) reaches n ln 2; summed in doubles it would move t c N(j) by
    about 1e-13 at n = 3000, far past the 1e-15 to which the tests hold
    the values against the literal sum over k.  So N's log-sums run in long
    double (80-bit on x86; where it is double the values round that
    coarsely), shifted by the largest log C(n,k) so that its partial sums
    near the bulk are near 0.  S's log-sums stay at most 0 and run in
    doubles."""
    log_comb, log_q = _weights(spec)
    lm1, lm2 = _log_sizes(spec)
    nl2 = spec.n * LN2
    lj = lm1 + lm2 - nl2
    log_c = _logsumexp(np.array([-lm1, -lm2, nl2 - lm1 - lm2]))
    if je:
        a, b = np.array([lj, lj, lj]), np.array([lm2 - nl2, lm1 - nl2, 0.0])
    else:
        a, b = np.array([lm1, lm2, lj]), np.zeros(3)
    top = log_comb.max()
    log_n = np.concatenate([[-np.inf],
                            np.logaddexp.accumulate((log_comb - top).astype(np.longdouble))])
    log_s = np.concatenate([np.logaddexp.accumulate((log_comb + log_q)[::-1])[::-1], [-np.inf]])
    neg_log_q, cap = -log_q, (a + log_q[0])[:, None]

    def values(log_t: np.ndarray) -> np.ndarray:
        x = log_t + log_c
        j = np.searchsorted(neg_log_q, -x)
        # x + log N(j) cancels to the log of a mass before it is rounded to a double
        log_tcn = ((x.astype(np.longdouble) + top) + log_n[j]).astype(float)
        term = np.exp(np.logaddexp(log_s[j], log_tcn))
        with np.errstate(over="ignore"):
            return term - np.exp(np.minimum(cap, b[:, None] + log_t)).sum(axis=0)

    # q_k = t c for each k, and t = each penalty's cap at k = 0, where q_k is largest
    return values, np.concatenate([log_q - log_c, a - b + log_q[0]])


def _mk_curve(spec: DsbsSpec):
    """The weight-collapsed union bound minus 3t: the mass of the closed event
    q_k <= t coef, coef = max{2^n/(M1 M2), 1/M1, 1/M2}, minus 3t.  Its values
    take one O(n) sum per point (see the module docstring)."""
    log_comb, log_q = _weights(spec)
    lm1, lm2 = _log_sizes(spec)
    log_coef = max(spec.n * LN2 - lm1 - lm2, -lm1, -lm2)
    log_mass = log_comb + log_q

    def raw(log_t: float) -> float:
        # the additive log slack equals the relative slack the generic event
        # evaluators use
        mask = log_q <= log_t + log_coef + EVENT_SLACK
        return math.exp(_logsumexp(log_mass[mask])) - 3.0 * math.exp(log_t)

    return (lambda log_t: np.array([raw(lt) for lt in log_t])), log_q - log_coef


def _sup(curve) -> Tuple[float, dict]:
    """(sup of a curve over t in [0, 1), witness {t, log t} attaining it); see
    the module docstring.  The witness is the first candidate where the
    curve's values peak, so its log t gives the sup back exactly, also where
    t underflows to 0."""
    values, switches = curve
    cands = _sorted_unique(np.concatenate([[-math.inf], switches[switches < 0.0], [-1e-9]]))
    # a flow curve's penalties hold 3 entries per point
    val, lt = _breakpoint_sup(values, cands, 3)
    return val, {"t": math.exp(lt), "log_t": float(lt)}


def _log_of(t: float) -> float:
    t = _real_in(t, lambda t: 0 <= t < 1, "t must lie in [0, 1)")
    return -math.inf if t == 0.0 else math.log(t)


def dsbs_converse(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the collapsed four-term metaconverse with the
    uniform-marginal flow weights t/(M1 M2), t P2/M1, t P1/M2."""
    return _report("dsbs-converse", *_sup(_flow_curve(spec, je=False)),
                   "weight-collapsed distributed metaconverse")


def dsbs_converse_at(spec: DsbsSpec, t: float) -> float:
    return _at(_flow_curve(spec, je=False), _log_of(t), real_line=True)


def dsbs_je_bound(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the collapsed joint-encoder converse (the variant
    whose three penalty terms all carry M1 M2).

    For R1, R2 <= 1 it is the exact meta_sw of expand_joint(spec).  Write
    J = M1 M2 / 2^n, so c = 1/M1 + 1/M2 + 1/J, and y = t c.  The penalties
    are min{J q_0, B t} with B = M2/2^n, M1/2^n and 1, and saturate at
    t = M1 q_0, M2 q_0 and J q_0, each at least q_0 / c.  So none saturates
    on [0, q_0 / c], and there, as (M1 + M2 + 2^n) / 2^n = J c, the
    integrand is
        g(y) = sum_k C(n,k) min{q_k, y} - J y.
    Past q_0 / c the first term is constant and the penalties do not
    decrease, so the sup is the sup of g over y >= 0 (g falls for y >= c:
    its slope is J less the number of the 2^n difference words z with
    q_|z| > y, fewer than 1/y <= 1/c < J as those q sum to 1).
    meta_sw is the sup over u, v, w >= 0 of its covered-mass dual (see
    there).  Flipping the same bits of both words keeps the pair's mass
    and moves every word to every other; the dual's objective is concave,
    so averaging an optimum over these maps leaves one with v and w
    constant.  With y = 2^n (u + v + w) the first term is
    sum_k C(n,k) min{q_k, y}, and a unit of y costs J through u, M2
    through v and M1 through w.  While M1, M2 <= 2^n, J is the cheapest,
    and meta_sw is the sup of g.
    Above one bit per symbol M1 or M2 may be cheaper than J, and the bound
    may fall below meta_sw: at n = 1, p = 0.11, R = (0, 1.5) it is 0.055
    against 0.110."""
    return _report("dsbs-je", *_sup(_flow_curve(spec, je=True)),
                   "weight-collapsed joint-encoder converse")


def dsbs_je_at(spec: DsbsSpec, t: float) -> float:
    return _at(_flow_curve(spec, je=True), _log_of(t), real_line=True)


def dsbs_mk(spec: DsbsSpec) -> BoundReport:
    """Exact sup over t of the weight-collapsed union bound minus 3t."""
    return _report("dsbs-mk", *_sup(_mk_curve(spec)),
                   "Miyake-Kanaya union bound, weight form")


def dsbs_mk_at(spec: DsbsSpec, t: float) -> float:
    return _at(_mk_curve(spec), _log_of(t), real_line=True)


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
    """One bound at one blocklength.  log_t_opt, the witness's log t, gives
    raw_value back exactly through the bound's curve; t_opt, its exp, need
    not, as log(t_opt) may differ from it, most where t_opt is subnormal or 0."""

    n: int
    bound_name: str
    raw_value: float
    clamped_value: float
    t_opt: float
    log_t_opt: float


def sweep(spec: DsbsSpec, n_list: Iterable[int]) -> List[SweepRow]:
    """All three bounds at each blocklength; rows sorted by (n, bound name).
    PmfError or InstanceTooLarge for an n that DsbsSpec rejects."""
    rows = []
    for cur in sorted({DsbsSpec(n, spec.p, spec.R1, spec.R2) for n in n_list}, key=lambda s: s.n):
        for rep in (dsbs_converse(cur), dsbs_je_bound(cur), dsbs_mk(cur)):
            rows.append(SweepRow(int(cur.n), rep.name, rep.raw_value, rep.clamped_value,
                                 float(rep.witness["t"]), float(rep.witness["log_t"])))
    rows.sort(key=lambda r: (r.n, r.bound_name))
    return rows


def sweep_csv(rows: List[SweepRow]) -> str:
    """CSV text: header n,bound,raw,clamped,t_opt,log_t_opt; LF; round-trip
    floats."""
    lines = ["n,bound,raw,clamped,t_opt,log_t_opt"]
    for r in rows:
        lines.append(f"{r.n},{r.bound_name},{r.raw_value!r},"
                     f"{r.clamped_value!r},{r.t_opt!r},{r.log_t_opt!r}")
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
