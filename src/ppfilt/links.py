"""Intensity transformations phi with derivatives.

Four families map the linear predictor to a nonnegative rate:

    log:           phi(x) = exp(x)
    identity:      phi(x) = x (nonpositive values are the caller's barrier)
    root(c):       phi(x) = x^(c+1) for x >= 0, 0 otherwise; C^1 only for c > 1
    logaffine(c):  phi(x) = exp(x) for x <= c, exp(c) (x - c + 1) above; C^1

log_phi is evaluated without an exp/log round trip where algebra allows and
returns -inf where phi <= 0, which the likelihood turns into a +inf value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("log", "identity", "root", "logaffine")


@dataclass(frozen=True)
class LinkFunction:
    family: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown link family {self.family!r}")
        if self.family in ("root", "logaffine") and self.c is None:
            raise ValueError(f"{self.family} link requires a parameter c")
        if self.family == "root" and self.c < 0:
            raise ValueError("root link requires c >= 0")

    @property
    def smooth(self) -> bool:
        """Continuously differentiable everywhere."""
        return self.family in ("log", "logaffine") or (self.family == "root" and self.c > 1)

    def phi(self, x):
        """(phi(x), phi'(x)), elementwise."""
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            if self.family == "log":
                value = np.exp(x)
                deriv = value
            elif self.family == "identity":
                value = x
                deriv = np.ones_like(x)
            elif self.family == "root":
                pos = x >= 0
                xc = np.where(pos, x, 0.0)
                value = xc ** (self.c + 1)
                deriv = np.where(pos, (self.c + 1) * xc**self.c, 0.0)
            else:  # logaffine
                low = x <= self.c
                xlow = np.where(low, x, self.c)
                scale = np.exp(self.c)
                value = np.where(low, np.exp(xlow), scale * (x - self.c + 1.0))
                deriv = np.where(low, np.exp(xlow), scale)
        if value.ndim == 0:
            return float(value), float(deriv)
        return value, deriv

    def log_phi(self, x):
        """log phi(x), with -inf where phi(x) <= 0."""
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.family == "log":
                out = x.astype(np.float64)
            elif self.family == "identity":
                out = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
            elif self.family == "root":
                out = np.where(x > 0, (self.c + 1) * np.log(np.where(x > 0, x, 1.0)), -np.inf)
            else:
                hi = x - self.c + 1.0
                out = np.where(
                    x <= self.c,
                    x,
                    self.c + np.log(np.where(hi > 0, hi, 1.0)),
                )
        if out.ndim == 0:
            return float(out)
        return out

    def phi_ratio(self, x):
        """phi'(x) / phi(x), computed without the exp/exp cancellation.

        Where phi(x) <= 0 the ratio is +inf, signalling an invalid point.
        """
        x = np.asarray(x, dtype=np.float64)
        if self.family == "log":
            out = np.ones_like(x)
        elif self.family == "identity":
            out = np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), np.inf)
        elif self.family == "root":
            out = np.where(x > 0, (self.c + 1) / np.where(x > 0, x, 1.0), np.inf)
        else:
            out = np.where(x <= self.c, 1.0, 1.0 / (np.maximum(x, self.c) - self.c + 1.0))
        if out.ndim == 0:
            return float(out)
        return out

    def info_weight(self, x):
        """phi'(x)^2 / phi(x), the Fisher-information integrand weight.

        Stable for the log family at very negative x (plain exp underflow);
        +inf where the weight genuinely diverges (phi -> 0 with phi' != 0).
        """
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            if self.family == "log":
                out = np.exp(x)
            elif self.family == "identity":
                out = np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), np.inf)
            elif self.family == "root":
                pos = x > 0
                xc = np.where(pos, x, 1.0)
                out = np.where(pos, (self.c + 1) ** 2 * xc ** (self.c - 1.0), 0.0)
            else:
                scale = np.exp(self.c)
                xlow = np.where(x <= self.c, x, self.c)
                out = np.where(
                    x <= self.c, np.exp(xlow), scale / (np.maximum(x, self.c) - self.c + 1.0)
                )
        if out.ndim == 0:
            return float(out)
        return out

    def curvature(self, x):
        """(phi''(x), -(log phi)''(x)), elementwise; both are >= 0 for every family.

        These are the Hessian weights of the integral and jump terms of the
        likelihood.  The second is +inf where phi(x) <= 0 (an invalid point).
        """
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore", divide="ignore"):
            if self.family == "log":
                phi2, neg_log2 = np.exp(x), np.zeros_like(x)
            elif self.family in ("identity", "root"):  # identity has root(0)'s curvature
                c = self.c or 0.0
                pos = x > 0
                xc = np.where(pos, x, 1.0)
                # phi'' is exactly 0 at c = 0, where the general form gives 0 * inf near x = 0
                phi2 = np.where(pos, (c + 1) * c * xc ** (c - 1.0), 0.0) if c else np.zeros_like(x)
                neg_log2 = np.where(pos, (c + 1) / xc**2, np.inf)
            else:
                low = x <= self.c
                phi2 = np.where(low, np.exp(np.where(low, x, self.c)), 0.0)
                neg_log2 = np.where(low, 0.0, 1.0 / (np.maximum(x, self.c) - self.c + 1.0) ** 2)
        if phi2.ndim == 0:
            return float(phi2), float(neg_log2)
        return phi2, neg_log2

    def inverse(self, rate: float) -> float:
        """x with phi(x) = rate, for rate > 0 (used for baseline initialization)."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        if self.family == "log":
            return float(np.log(rate))
        if self.family == "identity":
            return float(rate)
        if self.family == "root":
            return float(rate ** (1.0 / (self.c + 1)))
        if rate <= np.exp(self.c):
            return float(np.log(rate))
        return float(self.c - 1.0 + rate * np.exp(-self.c))

    def describe(self) -> str:
        if self.family in ("log", "identity"):
            return self.family
        return f"{self.family}:{self.c:g}"


def log_link() -> LinkFunction:
    return LinkFunction("log")


def identity_link() -> LinkFunction:
    return LinkFunction("identity")


def root_link(c: float = 0.0) -> LinkFunction:
    return LinkFunction("root", c=float(c))


def logaffine_link(c: float = 0.0) -> LinkFunction:
    return LinkFunction("logaffine", c=float(c))


def parse_family(text: str) -> LinkFunction:
    """Parse CLI names: log | identity | root:c | logaffine:c."""
    name, _, param = text.partition(":")
    name = name.strip().lower()
    if name in ("log", "identity"):
        if param:
            raise ValueError(f"family {name} takes no parameter")
        return LinkFunction(name)
    if name in ("root", "logaffine"):
        c = float(param) if param else 0.0
        return LinkFunction(name, c=c)
    raise ValueError(f"unknown family {text!r}")
