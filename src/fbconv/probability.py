"""Finite-alphabet pmf containers and entropy densities.

Everything downstream works with explicit probability vectors/matrices over
small alphabets.  This module owns validation (no silent renormalization),
marginalization, pointwise entropy densities in nats, distortion measures,
and the plain-text pmf file format used by the CLI:

    pmf1 <|S|>            pmf2 <|S1|> <|S2|>
    <i> <p>               <i> <j> <p>
    ...                   ...

The header pmf<k> gives the rank k, 1 or 2, and k alphabet sizes; each entry
line holds k 0-based indices and a mass.  Omitted entries are zero, and an
index may be listed at most once.  A header of more than MAX_LP_ENTRIES
entries raises InstanceTooLarge before any array is allocated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

MASS_TOL = 1e-12
# rows x columns of one LP (a bound on its nonzeros), and the cells of one pmf file
MAX_LP_ENTRIES = 2 ** 26
# entries of one temporary, 0.5 MiB of floats: a scalar sup's (points x cells)
# block (converses_ptp._breakpoint_sup) and a dual check's residual slab
# (relaxations.check_feasible)
MAX_BLOCK_ENTRIES = 2 ** 16


class PmfError(ValueError):
    pass


class NegativeMass(PmfError):
    pass


class MassSumMismatch(PmfError):
    pass


class ZeroProbability(PmfError):
    """Entropy density requested at a zero-mass point without the +inf opt-in."""


class PmfFormatError(PmfError):
    """Malformed pmf text file."""


class InstanceTooLarge(ValueError):
    """An LP with more than MAX_LP_ENTRIES rows x columns, a pmf file header
    of more than MAX_LP_ENTRIES entries, a code size past float range, or a
    DSBS expansion past its cap."""


def _real(value) -> bool:
    """Whether value is a real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _frozen_array(a) -> np.ndarray:
    try:
        out = np.array(a, dtype=float)
    except (TypeError, ValueError) as e:
        raise PmfError(f"expected an array of real numbers: {e}") from None
    out.setflags(write=False)
    return out


def _check_mass(mass: np.ndarray) -> None:
    if mass.size == 0:
        raise PmfError("empty alphabet")
    if not np.all(np.isfinite(mass)):
        i = int(np.argmin(np.isfinite(mass)))
        raise PmfError(f"non-finite mass {mass.flat[i]!r} at flat index {i}")
    if np.any(mass < 0):
        i = int(np.argmin(mass))
        raise NegativeMass(f"negative mass {mass.flat[i]!r} at flat index {i}")
    s = float(mass.sum())
    if abs(s - 1.0) > MASS_TOL:
        raise MassSumMismatch(f"total mass {s!r} differs from 1 by more than {MASS_TOL}")


@dataclass(frozen=True)
class SinglePmf:
    """Distribution of one source letter; mass is a 1-D array summing to 1."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _frozen_array(self.mass))
        if self.mass.ndim != 1:
            raise PmfError(f"SinglePmf needs a 1-D mass array, got ndim={self.mass.ndim}")
        _check_mass(self.mass)

    @property
    def alphabet_size(self) -> int:
        return self.mass.shape[0]


@dataclass(frozen=True)
class JointPmf:
    """Distribution of a source pair; mass is |S1| x |S2|, rows indexed by s1."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _frozen_array(self.mass))
        if self.mass.ndim != 2:
            raise PmfError(f"JointPmf needs a 2-D mass array, got ndim={self.mass.ndim}")
        _check_mass(self.mass)

    @property
    def sizes(self) -> Tuple[int, int]:
        return self.mass.shape


Pmf = Union[SinglePmf, JointPmf]


def validate(mass) -> Pmf:
    """Wrap a raw array as SinglePmf or JointPmf after checking it really is a pmf."""
    arr = _frozen_array(mass)
    if arr.ndim == 1:
        return SinglePmf(arr)
    if arr.ndim == 2:
        return JointPmf(arr)
    raise PmfError(f"expected 1-D or 2-D mass, got ndim={arr.ndim}")


@dataclass(frozen=True)
class CodeSizes:
    """Codebook sizes; M2 is None for single-encoder problems.  M1, and M1 M2
    when M2 is set, must have a float value: the bounds divide by them."""

    M1: int
    M2: Optional[int] = None

    def __post_init__(self):
        for name in ("M1", "M2") if self.M2 is not None else ("M1",):
            M = getattr(self, name)
            if not (_real(M) and M >= 1 and M % 1 == 0):
                raise PmfError(f"{name} must be a positive integer, got {M!r}")
            object.__setattr__(self, name, int(M))   # 2.0 must size and index arrays
        try:
            float(M := self.M1 * (self.M2 or 1))
        except OverflowError:
            raise InstanceTooLarge(f"code size of {M.bit_length()} bits past float range") from None


@dataclass(frozen=True)
class DistortionSpec:
    """Single-letter distortion d(s, shat) >= 0 (may be +inf) with excess level."""

    d_matrix: np.ndarray
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "d_matrix", _frozen_array(self.d_matrix))
        if self.d_matrix.ndim != 2 or 0 in self.d_matrix.shape:
            raise PmfError(f"d_matrix must be a nonempty 2-D array (|S| x |Shat|), "
                           f"got shape {self.d_matrix.shape}")
        if np.any(np.isnan(self.d_matrix)) or np.any(self.d_matrix < 0):
            raise PmfError("distortion entries must lie in [0, +inf]")
        if not (_real(self.level) and self.level >= 0):
            raise PmfError(f"distortion level must be a real number >= 0, got {self.level!r}")

    @classmethod
    def lossless(cls, n: int) -> "DistortionSpec":
        return cls(1.0 - np.eye(n), 0.0)

    def within(self) -> np.ndarray:
        """Boolean |S| x |Shat| table of d(s,shat) <= level."""
        return self.d_matrix <= self.level

    def excess(self) -> np.ndarray:
        return self.d_matrix > self.level


def _integer_in(value, lo: int, hi: int, name: str) -> int:
    """value as an int in [lo, hi]; PmfError for anything else, a bool or a
    float included (True would otherwise read as 1, and -1 as the last)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and lo <= value <= hi:
        return int(value)
    raise PmfError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def marginal(pmf: JointPmf, axis: int) -> SinglePmf:
    """Marginal of coordinate `axis` (1 or 2) of a joint pmf."""
    return SinglePmf(pmf.mass.sum(axis=2 - _integer_in(axis, 1, 2, "axis")))


def _neglog(p: float, zero_to_inf: bool) -> float:
    if p <= 0.0:
        if zero_to_inf:
            return math.inf
        raise ZeroProbability("entropy density at a zero-probability point")
    return -math.log(p)


def entropy_density(pmf: Pmf, indices, given: Optional[int] = None,
                    zero_to_inf: bool = False) -> float:
    """Pointwise entropy density in nats.

    For a SinglePmf, ``indices`` is a symbol index s and the value is -ln P(s).
    For a JointPmf, ``indices`` is (s1, s2); with ``given=None`` the joint
    density -ln P(s1,s2), with ``given=2`` the conditional -ln P(s1|s2), with
    ``given=1`` the conditional -ln P(s2|s1).

    Zero-probability points raise ZeroProbability unless ``zero_to_inf`` opts
    into a +inf sentinel.  Each index must be an integer in [0, size) of its
    axis (a negative one is refused, not wrapped) and given 1, 2 or None;
    anything else, a bool included, raises PmfError.
    """
    if isinstance(pmf, SinglePmf):
        if given is not None:
            raise PmfError("conditioning needs a joint pmf")
        return _neglog(float(pmf.mass[_integer_in(indices, 0, pmf.mass.size - 1, "index")]),
                       zero_to_inf)
    if not (isinstance(indices, (tuple, list)) and len(indices) == 2):
        raise PmfError(f"a joint pmf takes an index pair (s1, s2), got {indices!r}")
    s1, s2 = (_integer_in(s, 0, k - 1, "index") for s, k in zip(indices, pmf.mass.shape))
    p12 = float(pmf.mass[s1, s2])
    if given is None:
        return _neglog(p12, zero_to_inf)
    given = _integer_in(given, 1, 2, "given")
    pg = float((pmf.mass[:, s2] if given == 2 else pmf.mass[s1, :]).sum())
    # h(a|b) = h(a,b) - h(b); at pg == 0 the point itself has zero mass too
    if pg <= 0.0:
        return _neglog(0.0, zero_to_inf)
    return _neglog(p12 / pg, zero_to_inf)


def average_entropy(pmf: Pmf, given: Optional[int] = None) -> float:
    """Shannon entropy in nats (conditional entropy for a joint pmf with `given`)."""
    if isinstance(pmf, SinglePmf):
        m = pmf.mass[pmf.mass > 0]
        return float(-(m * np.log(m)).sum())
    m = pmf.mass
    pos = m > 0
    h12 = float(-(m[pos] * np.log(m[pos])).sum())
    if given is None:
        return h12
    g = marginal(pmf, given).mass
    gpos = g > 0
    hg = float(-(g[gpos] * np.log(g[gpos])).sum())
    return h12 - hg


# ---------------------------------------------------------------------------
# pmf text format


def _token(cast, tok: str):
    try:
        return cast(tok)
    except ValueError as e:
        raise PmfFormatError(f"unparsable pmf token: {e}") from e


def parse_pmf_text(text: str) -> Pmf:
    lines = [ln.split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln[0].startswith("#")]
    if not lines:
        raise PmfFormatError("empty pmf file")
    head = lines[0]
    if head[0] not in ("pmf1", "pmf2"):
        raise PmfFormatError(f"unknown pmf header {' '.join(head)!r}")
    k = int(head[0][3:])
    if len(head) != 1 + k:
        raise PmfFormatError(f"bad header {' '.join(head)!r}")
    shape = tuple(_token(int, n) for n in head[1:])
    if min(shape) < 1:
        raise PmfFormatError("alphabet sizes must be >= 1")
    if math.prod(shape) > MAX_LP_ENTRIES:
        raise InstanceTooLarge(f"pmf header {shape} has more than {MAX_LP_ENTRIES} entries")
    mass, seen = np.zeros(shape), set()
    for ln in lines[1:]:
        if len(ln) != 1 + k:
            raise PmfFormatError(f"bad pmf{k} entry {' '.join(ln)!r}")
        idx = tuple(_token(int, i) for i in ln[:k])
        if not all(0 <= i < n for i, n in zip(idx, shape)):
            raise PmfFormatError(f"index {idx} out of range {shape}")
        if idx in seen:
            raise PmfFormatError(f"index {idx} listed twice")
        seen.add(idx)
        mass[idx] = _token(float, ln[k])
    return validate(mass)


def format_pmf_text(pmf: Pmf) -> str:
    mass = pmf.mass
    out = [f"pmf{mass.ndim} " + " ".join(map(str, mass.shape))]
    out += [" ".join(map(str, idx)) + f" {float(mass[tuple(idx)])!r}"
            for idx in np.argwhere(mass != 0.0)]
    return "\n".join(out) + "\n"
