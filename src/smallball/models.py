"""Centered Gaussian sample models and their Cameron-Martin norms.

Four model families share one interface:

* ``Scalar(sigma)``          - a single N(0, sigma^2) draw;
* ``FiniteSpectrum(lambdas)`` - independent coordinates N(0, lambda_k);
* ``WienerPath(n, d, horizon)`` - Brownian motion sampled exactly on a uniform
  grid of n steps (cumulative sqrt(dt) increments);
* ``BrownianBridge(n)``      - Brownian bridge on [0, 1] built by conditioning
  the endpoint (W_t - t W_1, exact for the grid marginals).

Each model can draw batches and compute the Cameron-Martin (RKHS) norm of
a shift defined on its grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError


class GaussianModel:
    """Shared contract; concrete models fill in the sampling and geometry."""

    name: str = "gaussian"

    # -- sampling ---------------------------------------------------------
    def sample_values(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    @property
    def value_shape(self) -> tuple[int, ...]:
        """Shape of one draw: the nodes, then the dimension when above 1."""
        return (len(self.grid()),) + ((self.dim,) if self.dim > 1 else ())

    # -- geometry ---------------------------------------------------------
    @property
    def dt(self) -> float:
        return 0.0

    @property
    def dim(self) -> int:
        return 1

    def grid(self) -> np.ndarray:
        raise NotImplementedError

    def rkhs_norm_sq(self, h: np.ndarray) -> float:
        """Squared Cameron-Martin norm; +inf means 'not in the shift space'."""
        raise NotImplementedError

    def _as_shift(self, shift) -> np.ndarray:
        return np.atleast_1d(np.asarray(shift, dtype=float))


@dataclass(frozen=True)
class Scalar(GaussianModel):
    sigma: float = 1.0
    name: str = field(default="scalar", init=False)

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    def sample_values(self, rng, count):
        return self.sigma * rng.standard_normal(count)

    @property
    def value_shape(self):
        return ()

    def grid(self):
        return np.zeros(1)

    def _scalar_shift(self, h) -> float:
        h = self._as_shift(h)
        if h.size != 1:
            raise ShapeError(f"scalar shift must hold one value, got shape {h.shape}")
        return float(h[0])

    def rkhs_norm_sq(self, h):
        c = self._scalar_shift(h)
        return (c / self.sigma) ** 2


@dataclass(frozen=True)
class FiniteSpectrum(GaussianModel):
    lambdas: tuple[float, ...] = (1.0,)
    name: str = field(default="finite", init=False)

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lambdas)
        if len(lam) == 0 or any(v <= 0 for v in lam):
            raise DomainError("lambdas must be a non-empty tuple of positive variances")
        object.__setattr__(self, "lambdas", lam)

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def sample_values(self, rng, count):
        z = rng.standard_normal((count, self.k))
        return z * np.sqrt(np.asarray(self.lambdas))

    def grid(self):
        return np.arange(self.k, dtype=float)

    def _aligned(self, h) -> np.ndarray:
        h = self._as_shift(h)
        if h.ndim != 1:
            raise ShapeError(f"spectral shift must be a vector, got shape {h.shape}")
        return h

    def rkhs_norm_sq(self, h):
        h = self._aligned(h)
        if h.size > self.k:
            # a zero-padded vector is still in the space; any energy beyond
            # the spectrum is not representable
            if np.any(h[self.k :] != 0):
                return math.inf
            h = h[: self.k]
        lam = np.asarray(self.lambdas[: h.size])
        return float(np.sum(h * h / lam))


class _GridModel(GaussianModel):
    """Common machinery for path models on a uniform grid including t=0."""

    n_steps: int
    horizon: float

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def grid(self):
        return self.dt * np.arange(self.n_steps + 1)

    def _path_shift(self, h, *, pin_end: bool = False) -> np.ndarray:
        h = self._as_shift(h)
        want = self.n_steps + 1
        if h.shape[0] != want:
            raise ShapeError(f"shift has {h.shape[0]} nodes, model grid has {want}")
        if not np.all(np.abs(np.atleast_1d(h[0])) == 0):
            raise DomainError("path shifts must start at 0")
        if pin_end and not np.all(np.abs(np.atleast_1d(h[-1])) == 0):
            raise DomainError("bridge shifts must end at 0")
        return h

    def _energy(self, h: np.ndarray) -> float:
        inc = np.diff(h, axis=0)
        return float(np.sum(inc * inc) / self.dt)


@dataclass(frozen=True)
class WienerPath(_GridModel):
    n_steps: int = 256
    d: int = 1
    horizon: float = 1.0
    name: str = field(default="wiener", init=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise DomainError("n_steps must be >= 1")
        if self.d < 1 or self.d > 3:
            raise DomainError("d must be in {1, 2, 3}")
        if not self.horizon > 0:
            raise DomainError("horizon must be positive")

    @property
    def dim(self) -> int:
        return self.d

    def sample_values(self, rng, count, out=None, scratch=None):
        """Draw count paths. ``out`` (count, n+1[, d]) receives the paths and
        the C-contiguous ``scratch`` (count, n[, d]) the increments in place
        of fresh arrays; the values are the same either way."""
        shape = (count, self.n_steps) if self.d == 1 else (count, self.n_steps, self.d)
        inc = rng.standard_normal(shape, out=scratch)
        inc *= math.sqrt(self.dt)
        if out is None:
            out = np.empty((count, self.n_steps + 1) + shape[2:])
        out[:, 0] = 0.0
        np.cumsum(inc, axis=1, out=out[:, 1:])
        return out

    def rkhs_norm_sq(self, h):
        return self._energy(self._path_shift(h))


@dataclass(frozen=True)
class BrownianBridge(_GridModel):
    n_steps: int = 256
    horizon: float = field(default=1.0, init=False)
    name: str = field(default="bridge", init=False)

    def __post_init__(self):
        if self.n_steps < 2:
            raise DomainError("n_steps must be >= 2")

    def sample_values(self, rng, count):
        inc = rng.standard_normal((count, self.n_steps)) * math.sqrt(self.dt)
        w = np.empty((count, self.n_steps + 1))
        w[:, 0] = 0.0
        np.cumsum(inc, axis=1, out=w[:, 1:])
        t = self.grid()
        return w - np.outer(w[:, -1], t)

    def rkhs_norm_sq(self, h):
        return self._energy(self._path_shift(h, pin_end=True))


# -- free-function front ends ------------------------------------------------


def rkhs_norm(model: GaussianModel, shift) -> float:
    """Cameron-Martin norm |h|; +inf when h is not in the shift space."""
    sq = model.rkhs_norm_sq(shift)
    return math.sqrt(sq) if math.isfinite(sq) else math.inf


def parse_model(text: str) -> GaussianModel:
    """Parse a model descriptor like 'wiener:n=256,d=1,T=2' or 'scalar:sigma=2'."""
    head, _, tail = text.partition(":")
    kv: dict[str, str] = {}
    if tail:
        for part in tail.split(","):
            if "=" not in part:
                raise ConfigurationError(f"bad model parameter {part!r} in {text!r}")
            k, v = part.split("=", 1)
            kv[k.strip()] = v.strip()
    try:
        model: GaussianModel
        if head == "scalar":
            model = Scalar(sigma=float(kv.pop("sigma", 1.0)))
        elif head == "finite":
            lam = tuple(float(x) for x in kv.pop("lambdas", "1").split("/"))
            model = FiniteSpectrum(lambdas=lam)
        elif head == "wiener":
            model = WienerPath(
                n_steps=int(kv.pop("n", 256)),
                d=int(kv.pop("d", 1)),
                horizon=float(kv.pop("T", 1.0)),
            )
        elif head == "bridge":
            model = BrownianBridge(n_steps=int(kv.pop("n", 256)))
        else:
            raise ConfigurationError(
                f"unknown model kind {head!r} (scalar|finite|wiener|bridge)"
            )
    except (ValueError, DomainError) as exc:
        raise ConfigurationError(f"bad model descriptor {text!r}: {exc}") from exc
    if kv:
        raise ConfigurationError(f"unknown model parameters {sorted(kv)} in {text!r}")
    return model
