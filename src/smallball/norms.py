"""Path norms on grid data: sup, Lp, and Hoelder seminorms on a subinterval.

Conventions that downstream modules rely on:

* Vector-valued paths (d > 1) are reduced pointwise by the Euclidean norm
  before the time norm is applied, so centered sup-balls match the
  Euclidean-ball Dirichlet eigenvalue geometry.
* Degenerate draws (scalar / finite spectrum, dt = 0) use sequence-space
  semantics: sup is the max coordinate modulus, Lp the coordinate p-sum; the
  interval field is ignored and Hoelder is undefined.
* Lp uses trapezoidal quadrature on the grid, which is exactly additive
  across a partition of the interval.
* Hoelder evaluates all pairs via all grid lags (exact on a uniform grid) up
  to 4096 nodes, and falls back to a documented dyadic-lag underestimate
  beyond that.

Scaling family facts used by the constants laboratory: rescaling t -> ct maps
the norm on I/c to c^s times the norm on I with the self-similarity exponent
s = 0 (sup), s = beta (Hoelder), s = -1/p (Lp, the Jacobian factor). The decay
exponent gamma = (1/2 - s - 1/p)^{-1} is 2 for sup and every Lp, and
(1/2 - beta)^{-1} for Hoelder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

_HOELDER_EXACT_MAX_NODES = 4097


@dataclass(frozen=True)
class NormSpec:
    """Which norm, with its exponents and the time interval it acts on."""

    kind: str  # "sup" | "lp" | "hoelder"
    p: float = math.inf
    beta: float = 0.0
    interval: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("sup", "lp", "hoelder"):
            raise DomainError(f"unknown norm kind {self.kind!r}")
        if self.kind == "lp":
            if not (np.isfinite(self.p) and self.p >= 1):
                raise DomainError(f"lp norm needs finite p >= 1, got {self.p}")
        elif self.p != math.inf:
            raise DomainError(f"{self.kind} norm does not take a p exponent")
        if self.kind == "hoelder":
            if not (0.0 <= self.beta < 0.5):
                raise DomainError(f"hoelder exponent must be in [0, 1/2), got {self.beta}")
        elif self.beta != 0.0:
            raise DomainError(f"{self.kind} norm does not take a beta exponent")
        a, b = self.interval
        if not (b > a):
            raise DomainError(f"empty interval {self.interval}")

    # -- scaling metadata ---------------------------------------------------
    @property
    def sim_exponent(self) -> float:
        """Self-similarity exponent of the interval-indexed family."""
        if self.kind == "sup":
            return 0.0
        if self.kind == "hoelder":
            return self.beta
        return -1.0 / self.p

    @property
    def gamma(self) -> float:
        """Small-ball decay exponent for Brownian motion under this norm."""
        inv_p = 0.0 if self.kind != "lp" else 1.0 / self.p
        denom = 0.5 - self.sim_exponent - inv_p
        if denom <= 0:
            raise DomainError("norm family outside the sub-1/2 regularity regime")
        return 1.0 / denom

    @property
    def soft_q(self) -> float:
        """Window-scaling exponent of the soft tracking functional (Lp only)."""
        if self.kind != "lp":
            raise DomainError("soft tracking exponent is defined for lp norms only")
        return self.p * (0.5 - self.sim_exponent)

    def translation_invariant(self) -> bool:
        """True when constants are in the null space (Hoelder seminorms)."""
        return self.kind == "hoelder"

    def describe(self) -> str:
        """Canonical descriptor: parse_norm(spec.describe()) == spec. The
        interval is named unless it is parse_norm's default (0, 1)."""
        params = []
        if self.kind == "lp":
            params.append(f"p={_num(self.p)}")
        elif self.kind == "hoelder":
            params.append(f"beta={_num(self.beta)}")
        if self.interval != (0.0, 1.0):
            params += [f"a={_num(self.interval[0])}", f"b={_num(self.interval[1])}"]
        return self.kind + (":" + ",".join(params) if params else "")


def _num(x: float) -> str:
    """Shortest text that parses back to x, without a trailing '.0'."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def parse_descriptor(text: str, what: str, build):
    """Parse a ``what`` descriptor 'head:key=value,...' by build(head,
    params), which pops each parameter it reads. A value it cannot use, or
    a parameter it leaves, is a ConfigurationError naming the descriptor."""
    head, _, tail = text.partition(":")
    kv: dict[str, str] = {}
    for part in tail.split(",") if tail else ():
        if "=" not in part:
            raise ConfigurationError(f"bad {what} parameter {part!r} in {text!r}")
        k, v = part.split("=", 1)
        kv[k.strip()] = v.strip()
    try:
        parsed = build(head, kv)
    except (ValueError, DomainError) as exc:
        raise ConfigurationError(f"bad {what} descriptor {text!r}: {exc}") from exc
    if kv:
        raise ConfigurationError(f"unknown {what} parameters {sorted(kv)} in {text!r}")
    return parsed


def _build_norm(head: str, kv: dict[str, str]) -> NormSpec:
    interval = (float(kv.pop("a", 0.0)), float(kv.pop("b", 1.0)))
    if head == "sup":
        return NormSpec("sup", interval=interval)
    if head == "lp":
        return NormSpec("lp", p=float(kv.pop("p", 2.0)), interval=interval)
    if head == "hoelder":
        return NormSpec("hoelder", beta=float(kv.pop("beta", 0.25)), interval=interval)
    raise ConfigurationError(f"unknown norm kind {head!r} (sup|lp|hoelder)")


def parse_norm(text: str) -> NormSpec:
    """Parse a norm descriptor like 'sup', 'lp:p=2', 'hoelder:beta=0.25,a=0,b=1'."""
    return parse_descriptor(text, "norm", _build_norm)


# -- evaluation --------------------------------------------------------------


def _pointwise_modulus(values: np.ndarray) -> np.ndarray:
    """Reduce (B, n, d) to (B, n) by the Euclidean norm; (B, n) passes through."""
    if values.ndim >= 3:
        return np.sqrt(np.einsum("...td,...td->...t", values, values))
    return np.abs(values)


def _slice_indices(n_nodes: int, dt: float, interval: tuple[float, float]) -> tuple[int, int]:
    a, b = interval
    horizon = dt * (n_nodes - 1)
    ia = a / dt
    ib = b / dt
    ra, rb = round(ia), round(ib)
    if abs(ia - ra) > 1e-9 or abs(ib - rb) > 1e-9:
        raise DomainError(f"interval {interval} does not align with the grid (dt={dt:g})")
    if ra < 0 or rb > n_nodes - 1:
        raise DomainError(f"interval {interval} not covered by the path (horizon {horizon:g})")
    return int(ra), int(rb)


def eval_norm_batch(values: np.ndarray, dt: float, spec: NormSpec) -> np.ndarray:
    """Evaluate the norm on a batch. values: (B, n+1[, d]) paths, or (B, k)
    degenerate draws with dt == 0; a 1-d degenerate batch is (B,) draws of a
    single coordinate each."""
    values = np.asarray(values)
    if dt == 0.0:
        mod = np.abs(values)
        if values.ndim == 1:
            return mod
        if spec.kind == "sup":
            return mod.max(axis=-1)
        if spec.kind == "lp":
            return (mod**spec.p).sum(axis=-1) ** (1.0 / spec.p)
        raise DomainError("hoelder norm is undefined for degenerate (gridless) draws")
    ia, ib = _slice_indices(values.shape[1], dt, spec.interval)
    seg = values[:, ia : ib + 1]
    scalar = seg.ndim == 2
    if spec.kind == "sup":
        if scalar:  # max |x| without an |x| copy of the batch
            return np.maximum(seg.max(axis=1), -seg.min(axis=1))
        return _pointwise_modulus(seg).max(axis=1)
    if spec.kind == "lp":
        if scalar and spec.p == 2.0:
            a = np.square(seg)  # the same values as |x| ** 2, in one pass
        else:
            a = _pointwise_modulus(seg) ** spec.p
        acc = a[:, 1:-1].sum(axis=1) + 0.5 * (a[:, 0] + a[:, -1])
        return (dt * acc) ** (1.0 / spec.p)
    return _hoelder_batch(seg, dt, spec.beta)


def _hoelder_batch(seg: np.ndarray, dt: float, beta: float) -> np.ndarray:
    n = seg.shape[1]
    if n > _HOELDER_EXACT_MAX_NODES:
        lags: list[int] = list(range(1, 65))
        lag = 128
        while lag < n:
            lags.append(lag)
            lag *= 2
        lags = [L for L in lags if L < n]
    else:
        lags = list(range(1, n))
    out = np.zeros(seg.shape[0])
    for L in lags:
        diff = _pointwise_modulus(seg[:, L:] - seg[:, :-L]).max(axis=1)
        np.maximum(out, diff / (L * dt) ** beta, out=out)
    return out


_SCREEN_STRIDE = 16  # the sup screen reads every 16th node of the interval
_F32_UNIT = 2.0**-24
_F64_UNIT = 2.0**-53


def _f32_shrink(roundings: int) -> float:
    """Factor that keeps a bound below a float32 evaluation whose result
    carries at most ``roundings`` relative roundings: 1 - 2 gamma_n, twice
    the worst-case error of recursive summation of nonnegative terms."""
    return 1.0 - 2.0 * (roundings + 8) * _F32_UNIT


class DistanceScreen:
    """Lower bounds lb[i, j] on eval_norm_batch(test[i] - words[j], dt, spec)
    for one batch of test draws, one block of words per call.

    ``test`` (k, n+1[, d]) and the words (N, n+1[, d]) are the float32
    arrays the exact evaluation sees; the (k, N) float32 bounds hold for the
    float32 value eval_norm_batch returns, not just the real norm:

    * sup: the max of the pointwise modulus over every 16th node of the
      interval, a sup over a subset of the nodes the norm reads;
    * lp with p = 2: the squared trapezoid norm by its weighted Gram
      expansion |t|^2 + |c|^2 - 2<t, c>, one float64 GEMM per block of
      words, less an allowance for float64 cancellation.

    Each bound is scaled down by more than the float32 rounding of one exact
    evaluation. Every other norm (lp with p != 2, hoelder, degenerate draws
    with dt == 0) has no screen and gets lb = 0, which keeps every pair.

    The test draws' share of the bound is prepared once, and the scratch of
    one block serves every later block, so a scan over many blocks neither
    repeats that work nor allocates per block. The scratch grows to the
    largest block seen: a float64 copy of its words for lp:p=2, and (k, N)
    arrays of bounds, so the caller's block size bounds it. A call's result
    is overwritten by the next call.
    """

    def __init__(self, test: np.ndarray, dt: float, spec: NormSpec):
        self._k = len(test)
        self._scratch: dict[str, np.ndarray] = {}
        self._kind = None
        if dt == 0.0 or not (spec.kind == "sup" or (spec.kind == "lp" and spec.p == 2.0)):
            return
        self._kind = spec.kind
        ia, ib = _slice_indices(test.shape[1], dt, spec.interval)
        d = test.shape[2] if test.ndim == 3 else 1
        if spec.kind == "sup":
            self._nodes = slice(ia, ib + 1, _SCREEN_STRIDE)
            self._t = test[:, self._nodes]
            self._shrink = _f32_shrink(d)
            return
        # lp, p = 2: the trapezoid weights of eval_norm_batch, one per coordinate
        self._nodes = slice(ia, ib + 1)
        w = np.full(ib - ia + 1, dt)
        w[[0, -1]] = 0.5 * dt
        self._w = np.repeat(w, d)
        t = test[:, ia : ib + 1].reshape(self._k, -1).astype(np.float64)
        self._tt = (t * t) @ self._w
        self._tw = t * self._w
        # over K coordinates the float64 error of tt + cc - 2 tc stays below
        # (2K + 16) u (tt + cc), since |tc| <= (tt + cc) / 2
        self._slack = (2 * len(self._w) + 16) * _F64_UNIT
        self._shrink = _f32_shrink(ib - ia + 1 + d)

    def _buffer(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous zero-initialized array of this shape over scratch
        kept between calls, grown when a larger one is asked for."""
        size = math.prod(shape)
        flat = self._scratch.get(name)
        if flat is None or flat.size < size:
            flat = self._scratch[name] = np.zeros(size, dtype=dtype)
        return flat[:size].reshape(shape)

    def __call__(self, words: np.ndarray) -> np.ndarray:
        k, n_words = self._k, len(words)
        lb = self._buffer("lb", (k, n_words), np.float32)
        if self._kind is None:
            return lb  # never written: the bound 0
        if self._kind == "sup":
            # node-major, so each node is one contiguous (k, block) pass
            c = np.ascontiguousarray(np.moveaxis(words[:, self._nodes], 1, 0))
            lb.fill(0.0)
            for node in range(self._t.shape[1]):
                np.maximum(lb, _pointwise_modulus(self._t[:, node, None] - c[node][None]), out=lb)
            lb *= self._shrink
            return lb
        c = self._buffer("c", (n_words, len(self._w)))
        c[...] = words[:, self._nodes].reshape(n_words, -1)
        sq = np.matmul(self._tw, c.T, out=self._buffer("sq", (k, n_words)))
        c *= c  # c is not read again, so its squares take its place
        total = np.add(self._tt[:, None], (c @ self._w)[None, :],
                       out=self._buffer("total", (k, n_words)))
        # sq = total - 2 <t, c> - slack * total, term by term in place
        sq *= -2.0
        sq += total
        total *= self._slack
        sq -= total
        np.maximum(sq, 0.0, out=sq)
        np.sqrt(sq, out=sq)
        sq *= self._shrink
        lb[...] = sq
        return lb
