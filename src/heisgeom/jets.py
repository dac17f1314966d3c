"""Exact arithmetic on truncated multivariate Taylor polynomials (jets).

A jet of order K in n variables at a base point p is the table of
coefficients of a polynomial in (x - p) over all monomials of total degree
<= K, stored in graded-lexicographic order (ascending total degree, then
ascending exponent tuple).  Addition, multiplication, composition and
partial derivatives all truncate deterministically at K, so for inputs that
are exact polynomials of degree <= K every surviving coefficient is exact up
to float rounding.

Each exponent tuple is a number in mixed radix K + 1, so a product's key is
the sum of its factors' keys and `JetSpace.find` gives its column.  Work
follows a table's support: a product pairs only the nonzero columns of its
operands, and monomials, gathered from per-axis power tables, can be built
for chosen columns only.

A `PolyMap` is one read-only (m, size) coefficient table, or a batch of
maps S + (m, size) with one base point each, S + (dim,); a `Jet` is the
one-row case.  Each operation has one implementation over row tables;
`mul_rows`, `compose`, `rebased` and `affine` broadcast over the batch axes
S, and each map of a batch equals its own batch of shape () bit for bit.
Data is checked where it comes in (`Jet(...)`, `PolyMap(jets)`,
`PolyMap.affine`, the manifest parser); results computed here are not
checked again.  All values are immutable; the only mutable state is the
space cache and the read-only tables a `PolyMap` derives on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np


class JetError(ValueError):
    """Dimension, order, base or regularity violation in jet arithmetic."""


@dataclass(frozen=True, eq=False)
class JetSpace:
    """Monomial basis, mixed-radix keys and derivative tables for one (dim, order)."""

    dim: int
    order: int
    exponents: np.ndarray  # (size, dim) int64, graded-lex
    degrees: np.ndarray  # (size,) int64
    index: dict  # exponent tuple -> position
    keys: np.ndarray  # (size,) int64: exponents in radix order + 1, x_0 least significant
    key_order: np.ndarray  # (size,) argsort of keys
    sorted_keys: np.ndarray  # (size,) keys[key_order]
    diff_tables: tuple  # per variable: (src, dst, factor)

    @property
    def size(self) -> int:
        return len(self.degrees)

    def find(self, keys) -> np.ndarray:
        """The columns whose keys are `keys`; each must be a key of the space."""
        return self.key_order[np.searchsorted(self.sorted_keys, keys)]

    def quadratic_columns(self) -> np.ndarray:
        """(dim, dim): the column of the monomial x_j x_k; needs order >= 2."""
        radix = (self.order + 1) ** np.arange(self.dim)
        return self.find(radix[:, None] + radix)

    def monomials(self, dx, cols=slice(None)) -> np.ndarray:
        """dx^exponents[cols] for displacements dx (..., dim): (..., len(cols)),
        C-contiguous; factors dx_v^e_v multiply left to right, as np.prod would."""
        exponents = self.exponents[cols]
        powers = dx[..., :, None] ** np.arange(self.order + 1)
        out = powers[..., 0, :].take(exponents[:, 0], axis=-1)
        for v in range(1, self.dim):
            out *= powers[..., v, :].take(exponents[:, v], axis=-1)
        return out

    def __repr__(self) -> str:
        return f"JetSpace(dim={self.dim}, order={self.order}, size={self.size})"


@lru_cache(maxsize=None)
def jet_space(dim: int, order: int) -> JetSpace:
    """The cached jet space for `dim` variables truncated at total degree `order`."""
    if dim < 1 or order < 1:
        raise JetError(f"need dim >= 1 and order >= 1, got dim={dim}, order={order}")
    # a multiset of `order` variables from {slack, x_0, ..., x_{dim-1}} is one monomial
    picks = np.array(list(combinations_with_replacement(range(dim + 1), order)))
    exponents = (picks[:, :, None] == np.arange(1, dim + 1)).sum(axis=1, dtype=np.int64)
    exponents = exponents[np.lexsort([*exponents.T[::-1], exponents.sum(axis=1)])]
    degrees = exponents.sum(axis=1)
    index = {tuple(e): i for i, e in enumerate(exponents.tolist())}

    # mixed radix order + 1: a product's key is the sum of its factors' keys
    radix = (order + 1) ** np.arange(dim, dtype=np.int64)
    keys = exponents @ radix
    key_order = np.argsort(keys)
    sorted_keys = keys[key_order]
    for arr in (exponents, degrees, keys, key_order, sorted_keys):
        arr.setflags(write=False)
    s = JetSpace(dim, order, exponents, degrees, index, keys, key_order, sorted_keys, ())

    srcs = [np.flatnonzero(exponents[:, v] > 0) for v in range(dim)]
    diff_tables = [(src, s.find(keys[src] - radix[v]), exponents[src, v].astype(np.float64)) for v, src in enumerate(srcs)]
    return replace(s, diff_tables=tuple(diff_tables))


def _checked(space: JetSpace, coeffs, base, shape: tuple):
    """Read-only copies of incoming coefficients and base point, checked for
    shape and finiteness; the caller's arrays stay writable."""
    coeffs, base = np.array(coeffs, dtype=float), np.array(base, dtype=float)
    if coeffs.shape != shape:
        raise JetError(f"coefficient table has shape {coeffs.shape}, expected {shape}")
    want = shape[:-2] + (space.dim,)  # one base point per map of a batch
    if base.shape != want:
        raise JetError(f"base point has shape {base.shape}, expected {want}")
    if not (np.isfinite(coeffs).all() and np.isfinite(base).all()):
        raise JetError("non-finite jet data")
    coeffs.setflags(write=False)
    base.setflags(write=False)
    return coeffs, base


def broadcast(a: np.ndarray, shape: tuple) -> np.ndarray:
    """a itself when it has that shape, else a read-only view broadcast to it."""
    return a if a.shape == shape else np.broadcast_to(a, shape)


def _default_base(space: JetSpace, base) -> np.ndarray:
    return np.zeros(space.dim) if base is None else np.asarray(base, dtype=float)


def check_compatible(a, b):
    """Jets or maps `a` and `b` share one jet space and base point (within 1e-12)."""
    if a.space is not b.space:
        raise JetError(f"jet space mismatch: {a.space} vs {b.space}")
    # bases are finite (checked where they came in), so this is allclose(atol=1e-12)
    if a.base is not b.base and not (np.abs(a.base - b.base) <= 1e-12).all():
        raise JetError(f"base point mismatch: {a.base} vs {b.base}")


_MUL_BLOCK = 1 << 18  # products per bincount: bounds the temporaries of wide tables


def mul_rows(s: JetSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise truncated products of tables (..., size); the leading axes
    broadcast, so a one-row operand multiplies every row of the other.

    The nonzero columns a of x and b of y ascend in degree, so a[i] pairs
    with the prefix of b of degree <= order - deg a[i]; a pair's key sum finds
    its product column.  A bincount over the row-offset bins adds the pairs
    a-major, so each column sums in ascending a from +0.0, bit for bit as over
    every pair of the space: the skipped pairs add exact zeros, and a row's
    product does not depend on the other rows."""
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    lead = x.shape[:-1]
    if not x.size:
        return np.zeros(lead + (s.size,))
    x, y = x.reshape(-1, s.size), y.reshape(-1, s.size)
    a, b = x.any(axis=0).nonzero()[0], y.any(axis=0).nonzero()[0]
    counts = np.searchsorted(s.degrees[b], s.order - s.degrees[a], side="right")
    pair_a = np.repeat(a, counts)
    pair_b = b[np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)]
    pair_out = s.find(s.keys[pair_a] + s.keys[pair_b])
    step = max(1, _MUL_BLOCK // max(1, len(pair_out)))
    blocks = []
    for r in range(0, len(x), step):
        w = x[r : r + step].take(pair_a, axis=1) * y[r : r + step].take(pair_b, axis=1)
        n = len(w)
        bins = pair_out if n == 1 else (np.arange(n)[:, None] * s.size + pair_out).ravel()
        # a bincount with no pairs (a zero operand) returns int64 zeros
        blocks.append(np.bincount(bins, w.ravel(), n * s.size).astype(float, copy=False).reshape(n, s.size))
    out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return out.reshape(lead + (s.size,))


def partial_rows(s: JetSpace, c: np.ndarray, vs) -> np.ndarray:
    """d/dx_v of every row of the table c (..., size), for each v of vs: (..., len(vs), size)."""
    out = np.zeros(c.shape[:-1] + (len(vs), s.size))
    for n, v in enumerate(vs):
        src, dst, fac = s.diff_tables[v]
        out[..., n, dst] = c[..., src] * fac
    return out


def _compose(outer: "_Poly", inner: "PolyMap", exact: bool) -> np.ndarray:
    """The coefficients of outer(inner(x)), row by row and point by point;
    the batch shapes of outer and inner broadcast.

    Each power (inner_v - base_v)^k and each monomial term is built once for
    the whole batch and shared by all rows; a row takes coeff * term where
    its own coefficient is nonzero, in ascending monomial order, so each
    point equals its batch of one.
    """
    if inner.dim_out != outer.space.dim:
        raise JetError(f"inner map produces {inner.dim_out} values, outer expects {outer.space.dim}")
    if inner.order != outer.order:
        raise JetError(f"order mismatch: outer {outer.order}, inner {inner.order}")
    s, lead = inner.space, np.broadcast_shapes(outer.base.shape[:-1], inner.base.shape[:-1])
    deltas = np.array(broadcast(inner.coeffs, lead + inner.coeffs.shape[-2:]))
    deltas[..., 0] -= outer.base
    if not exact:
        scale = np.maximum(np.abs(outer.base).max(axis=-1, initial=1.0), np.abs(deltas).max(axis=(-2, -1)))
        worst = np.abs(deltas[..., 0]).max(axis=-1)
        if (worst > 1e-9 * scale).any():
            raise JetError(f"inner constant terms differ from outer base by {worst.max():.3e}")
    deltas = deltas.reshape(-1, *deltas.shape[-2:])  # (points, dim, size)

    powers = {(v, 1): deltas[:, v] for v in range(deltas.shape[1])}

    def power(v: int, k: int) -> np.ndarray:
        if (v, k) not in powers:
            powers[(v, k)] = mul_rows(s, power(v, k - 1), deltas[:, v])
        return powers[(v, k)]

    rows = outer.coeffs.shape[outer.base.ndim - 1 : -1]  # () for a jet
    c = outer.coeffs.reshape(outer.base.shape[:-1] + (math.prod(rows), outer.space.size))
    c = broadcast(c, lead + c.shape[-2:]).reshape(-1, *c.shape[-2:])  # (points, rows, size)
    out = np.zeros((len(deltas),) + c.shape[1:-1] + (s.size,))
    out[..., 0] = c[..., 0]
    for idx in outer.coeffs.reshape(-1, outer.space.size)[:, 1:].any(axis=0).nonzero()[0] + 1:
        term = None
        for v, e in enumerate(outer.space.exponents[idx]):
            if e:
                term = power(v, e) if term is None else mul_rows(s, term, power(v, e))
        p, r = c[:, :, idx].nonzero()  # each point adds only where its own coefficient is nonzero
        out[p, r] += c[p, r, idx, None] * term[p]
    return out.reshape(lead + rows + (s.size,))


@dataclass(frozen=True, eq=False)
class _Poly:
    """Coefficient rows over one jet space and base point: shape (size,) for
    a `Jet`, S + (m, size) for a `PolyMap` with one base point per map of its
    batch S + (dim,).  Each operation below serves both."""

    space: JetSpace
    coeffs: np.ndarray
    base: np.ndarray

    @classmethod
    def _of(cls, space: JetSpace, coeffs: np.ndarray, base: np.ndarray):
        """An instance from arrays computed in this package: they are made
        read-only in place and not checked again."""
        coeffs.setflags(write=False)
        base.setflags(write=False)
        obj = object.__new__(cls)
        vars(obj).update(space=space, coeffs=coeffs, base=base)
        return obj

    @property
    def order(self) -> int:
        return self.space.order

    def monomials(self, x) -> np.ndarray:
        """The monomial vector (x - base)^exponents of the space."""
        return self.space.monomials(np.asarray(x, dtype=float) - self.base)

    def degree(self) -> int:
        """Largest total degree with a nonzero coefficient."""
        nz = np.flatnonzero(self.coeffs.reshape(-1, self.space.size).any(axis=0))
        return int(self.space.degrees[nz].max()) if nz.size else 0

    def __add__(self, other):
        check_compatible(self, other)
        return self._of(self.space, self.coeffs + other.coeffs, self.base)

    def __neg__(self):
        return self._of(self.space, -self.coeffs, self.base)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _Poly):
            return jet_mul(self, other)
        return self._of(self.space, self.coeffs * float(other), self.base)

    __rmul__ = __mul__

    def rebased(self, new_base):
        """Re-expand at a new base point.

        Exact when the polynomial has degree <= order (higher coefficients
        that were truncated away would feed back into low ones).  A map of a
        batch whose base point does not move keeps its table, as it would alone.
        """
        new_base = np.array(new_base, dtype=float)
        v = new_base - self.base
        moved = v.any(axis=-1)
        if not moved.any():
            return self
        shift = PolyMap.affine(np.eye(v.shape[-1]), v, self.order)
        at_zero = self._of(self.space, self.coeffs, np.zeros(self.base.shape))
        out = _compose(at_zero, shift, exact=True)
        if not moved.all():
            out = np.where(moved.reshape(moved.shape + (1,) * (out.ndim - moved.ndim)), out, self.coeffs)
        return self._of(self.space, out, broadcast(new_base, v.shape))

    def with_order(self, order: int):
        """Truncate or zero-pad to another order.  Graded lex lists the
        monomials of degree <= min(order, self.order) first in both spaces,
        in the same order, so that prefix is copied."""
        if order == self.order:
            return self
        target = jet_space(self.space.dim, order)
        out = np.zeros(self.coeffs.shape[:-1] + (target.size,))
        n = min(self.space.size, target.size)
        out[..., :n] = self.coeffs[..., :n]
        return self._of(target, out, self.base)


@dataclass(frozen=True, eq=False)
class Jet(_Poly):
    """Truncated Taylor polynomial: sum of coeffs[i] * (x - base)^exponents[i]."""

    def __post_init__(self):
        coeffs, base = _checked(self.space, self.coeffs, self.base, (self.space.size,))
        vars(self).update(coeffs=coeffs, base=base)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, space: JetSpace, base=None) -> "Jet":
        return cls(space, np.zeros(space.size), _default_base(space, base))

    @classmethod
    def constant(cls, space: JetSpace, value: float, base=None) -> "Jet":
        c = np.zeros(space.size)
        c[0] = value
        return cls(space, c, _default_base(space, base))

    @classmethod
    def coordinate(cls, space: JetSpace, i: int, base=None) -> "Jet":
        """The coordinate function x_i expanded at the base point."""
        base = _default_base(space, base)
        c = np.zeros(space.size)
        c[0] = base[i]
        c[space.index[tuple(1 if k == i else 0 for k in range(space.dim))]] = 1.0
        return cls(space, c, base)

    @classmethod
    def from_terms(cls, space: JetSpace, terms, base=None) -> "Jet":
        """Build from an exponent-tuple -> coefficient mapping."""
        c = np.zeros(space.size)
        for exp, coeff in dict(terms).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != space.dim:
                raise JetError(f"exponent {exp} has wrong arity for dim {space.dim}")
            if sum(exp) > space.order:
                raise JetError(f"exponent {exp} exceeds truncation order {space.order}")
            c[space.index[exp]] += float(coeff)
        return cls(space, c, _default_base(space, base))

    # -- inspection -----------------------------------------------------
    @property
    def dim(self) -> int:
        return self.space.dim

    def terms(self) -> dict:
        """Sparse view: exponent tuple -> nonzero coefficient."""
        nz = np.nonzero(self.coeffs)[0]
        return {tuple(self.space.exponents[i]): float(self.coeffs[i]) for i in nz}

    def coefficient(self, exp) -> float:
        return float(self.coeffs[self.space.index[tuple(int(e) for e in exp)]])

    def partial(self, v: int) -> "Jet":
        """Partial derivative with respect to x_v (same truncation order)."""
        return Jet._of(self.space, partial_rows(self.space, self.coeffs, [v])[0], self.base)

    def __call__(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float)[None, :])[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.monomials(pts) @ self.coeffs

    def __repr__(self) -> str:  # pragma: no cover
        body = " + ".join(f"{c:.6g}*z^{e}" for e, c in sorted(self.terms().items())) or "0"
        return f"Jet<{self.dim},{self.order}>({body} @ {self.base})"


def jet_mul(a: _Poly, b: _Poly) -> _Poly:
    """Product truncated at the common order; a jet times a map multiplies
    every row of the map."""
    check_compatible(a, b)
    wide = b if b.coeffs.ndim > a.coeffs.ndim else a
    return wide._of(a.space, mul_rows(a.space, a.coeffs, b.coeffs), a.base)


@dataclass(frozen=True, eq=False, init=False)
class PolyMap(_Poly):
    """A polynomial map x -> (f_1(x), ..., f_m(x)): row i of the (m, size)
    table `coeffs` holds f_i.  `PolyMap(jets)` stacks jets that share a jet
    space and base point; `components` gives the rows back as jets."""

    def __init__(self, components):
        jets = tuple(components)
        if not jets:
            raise JetError("empty polynomial map")
        for jet in jets[1:]:
            check_compatible(jets[0], jet)
        coeffs = np.stack([jet.coeffs for jet in jets])
        coeffs.setflags(write=False)
        vars(self).update(space=jets[0].space, coeffs=coeffs, base=jets[0].base)

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls, dim: int, order: int, base=None) -> "PolyMap":
        base = _default_base(jet_space(dim, order), base)
        return cls.affine(np.eye(dim), base, order, base)

    @classmethod
    def affine(cls, A: np.ndarray, c: np.ndarray, order: int, base=None) -> "PolyMap":
        """The map x -> c + A (x - base); stacks of A, c and base give one
        map per point of their broadcast batch shape."""
        A = np.asarray(A, dtype=float)
        s = jet_space(A.shape[-1], order)
        base = _default_base(s, base)
        lead = np.broadcast_shapes(A.shape[:-2], np.shape(c)[:-1], base.shape[:-1])
        table = np.zeros(lead + (A.shape[-2], s.size))
        table[..., 0] = c
        table[..., 1 : s.dim + 1] = A[..., ::-1]  # graded lex: x_{dim-1} comes first
        return cls._of(s, *_checked(s, table, broadcast(base, lead + base.shape[-1:]), table.shape))

    # -- inspection -----------------------------------------------------
    @property
    def dim_in(self) -> int:
        return self.space.dim

    @property
    def dim_out(self) -> int:
        return self.coeffs.shape[-2]

    @cached_property
    def components(self) -> tuple:
        """One `Jet` per row."""
        return tuple(Jet._of(self.space, row, self.base) for row in self.coeffs)

    @cached_property
    def partials(self) -> np.ndarray:
        """(..., dim_out, dim_in, size) table of every d_j f_i; read-only."""
        out = partial_rows(self.space, self.coeffs, range(self.dim_in))
        out.setflags(write=False)
        return out

    def constant(self) -> np.ndarray:
        return self.coeffs[..., 0].copy()

    def linear(self) -> np.ndarray:
        """Jacobian at the base point."""
        return self.coeffs[..., self.dim_in : 0 : -1].copy()  # graded lex: x_{dim-1} comes first

    # -- evaluation -----------------------------------------------------
    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Values of one map at the points pts (..., dim_in).  Each row is one
        product with the monomials, as a `Jet` takes it, but a (P, K, dim)
        stack of points may differ from one-point `eval` in the last bit:
        BLAS takes a stack by gemv and a single point by a dot product."""
        mono = self.monomials(pts)
        return np.stack([mono @ row for row in self.coeffs], axis=-1)

    eval = eval_many  # a single point x gives the (dim_out,) value

    def jacobian(self, x) -> np.ndarray:
        """(..., dim_out, dim_in) Jacobians at the points x (..., dim_in)."""
        return (self.partials @ self.monomials(x)[..., None, :, None])[..., 0]

    def compose(self, inner: "PolyMap", *, exact: bool = False) -> "PolyMap":
        """self after inner; exact=True rebases an exact-polynomial self onto
        inner's constant term instead of requiring aligned bases."""
        outer = self.rebased(inner.constant()) if exact else self
        out = _compose(outer, inner, exact)
        return PolyMap._of(inner.space, out, broadcast(inner.base, out.shape[:-2] + inner.base.shape[-1:]))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolyMap<{self.dim_in}->{self.dim_out}, order {self.order}>"
