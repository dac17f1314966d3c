"""Exact arithmetic on truncated multivariate Taylor polynomials (jets).

A jet of order K in n variables at a base point p is the dense table of
coefficients of a polynomial in (x - p) over all monomials of total degree
<= K, stored in graded-lexicographic order (ascending total degree, then
ascending exponent tuple).  Addition, multiplication, composition, formal
inversion and partial derivatives all truncate deterministically at K, so
for inputs that are exact polynomials of degree <= K every surviving
coefficient is exact up to float rounding.

The product and derivative tables of a space are built with array code:
each exponent tuple is a number in mixed radix K + 1, so a product's key is
the sum of its factors' keys and `searchsorted` finds its position.  The
monomial vectors are gathered from per-axis power tables.

All values are immutable after construction.  The only mutable state is
the per-(dim, order) space cache and the stacked tables a `PolyMap` builds
on first use (`coeffs`, `partials`), which are read-only arrays derived
from immutable data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np


class JetError(ValueError):
    """Dimension, order, base or regularity violation in jet arithmetic."""


@dataclass(frozen=True, eq=False)
class JetSpace:
    """Monomial basis and product/derivative tables for one (dim, order)."""

    dim: int
    order: int
    exponents: np.ndarray  # (size, dim) int64, graded-lex
    degrees: np.ndarray  # (size,) int64
    index: dict  # exponent tuple -> position
    coo_a: np.ndarray  # product table: out[coo_out] += a[coo_a] * b[coo_b], sorted by (out, a)
    coo_b: np.ndarray
    coo_out: np.ndarray
    diff_tables: tuple  # per variable: (src, dst, factor)

    @property
    def size(self) -> int:
        return len(self.degrees)

    def monomials(self, dx) -> np.ndarray:
        """dx^exponents for displacements dx of shape (..., dim): shape (..., size),
        C-contiguous; the factors dx_v^e_v multiply left to right, as np.prod would."""
        powers = dx[..., :, None] ** np.arange(self.order + 1)
        out = powers[..., 0, :].take(self.exponents[:, 0], axis=-1)
        for v in range(1, self.dim):
            out *= powers[..., v, :].take(self.exponents[:, v], axis=-1)
        return out

    def __repr__(self) -> str:  # pragma: no cover
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
    sorter = np.argsort(keys)

    def find(k):
        return sorter[np.searchsorted(keys, k, sorter=sorter)]

    # degrees ascend, so a row of degree d pairs with the column prefix of
    # degree <= order - d, whose length searchsorted gives
    counts = np.searchsorted(degrees, order - degrees, side="right")
    coo_a = np.repeat(np.arange(len(degrees)), counts)
    coo_b = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    coo = np.array([coo_a, coo_b, find(keys[coo_a] + keys[coo_b])], dtype=np.int64)
    coo = np.ascontiguousarray(coo[:, np.lexsort((coo[0], coo[2]))])

    srcs = [np.flatnonzero(exponents[:, v] > 0) for v in range(dim)]
    diff_tables = [(s, find(keys[s] - radix[v]), exponents[s, v].astype(np.float64)) for v, s in enumerate(srcs)]

    for arr in (exponents, degrees, coo):
        arr.setflags(write=False)
    return JetSpace(dim, order, exponents, degrees, index, coo[0], coo[1], coo[2], tuple(diff_tables))


def _freeze(a) -> np.ndarray:
    """`a` if it is already read-only C float64, else a frozen copy: the caller's array stays writable."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable:
        return a
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Jet:
    """Truncated Taylor polynomial: sum of coeffs[i] * (x - base)^exponents[i]."""

    space: JetSpace
    coeffs: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        coeffs = _freeze(self.coeffs)
        base = _freeze(self.base)
        if coeffs.shape != (self.space.size,):
            raise JetError(f"coefficient table has shape {coeffs.shape}, expected ({self.space.size},)")
        if base.shape != (self.space.dim,):
            raise JetError(f"base point has shape {base.shape}, expected ({self.space.dim},)")
        if not (np.isfinite(coeffs).all() and np.isfinite(base).all()):
            raise JetError("non-finite jet data")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "base", base)

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
        e = tuple(1 if k == i else 0 for k in range(space.dim))
        c[space.index[e]] = 1.0
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

    @property
    def order(self) -> int:
        return self.space.order

    def terms(self) -> dict:
        """Sparse view: exponent tuple -> nonzero coefficient."""
        nz = np.nonzero(self.coeffs)[0]
        return {tuple(self.space.exponents[i]): float(self.coeffs[i]) for i in nz}

    def coefficient(self, exp) -> float:
        return float(self.coeffs[self.space.index[tuple(int(e) for e in exp)]])

    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(self.space.degrees[nz].max()) if nz.size else 0

    # -- arithmetic -----------------------------------------------------
    def _check_compatible(self, other: "Jet"):
        if self.space is not other.space:
            raise JetError(
                f"jet space mismatch: (dim={self.dim}, order={self.order}) vs "
                f"(dim={other.dim}, order={other.order})"
            )
        # bases are finite (checked at construction), so this is allclose(atol=1e-12)
        if self.base is not other.base and not (np.abs(self.base - other.base) <= 1e-12).all():
            raise JetError(f"base point mismatch: {self.base} vs {other.base}")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.space, self.coeffs + other.coeffs, self.base)
        return self + Jet.constant(self.space, float(other), self.base)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.base)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.space, self.coeffs * float(other), self.base)

    __rmul__ = __mul__

    def partial(self, v: int) -> "Jet":
        """Partial derivative with respect to x_v (same truncation order)."""
        src, dst, fac = self.space.diff_tables[v]
        out = np.zeros(self.space.size)
        out[dst] = self.coeffs[src] * fac
        return Jet(self.space, out, self.base)

    # -- evaluation -----------------------------------------------------
    def __call__(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float)[None, :])[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.space.monomials(np.asarray(pts, dtype=float) - self.base) @ self.coeffs

    # -- base / order changes --------------------------------------------
    def rebased(self, new_base) -> "Jet":
        """Re-expand at a new base point.

        Exact when the jet is an exact polynomial of degree <= order (higher
        coefficients that were truncated away would feed back into low ones).
        """
        new_base = np.asarray(new_base, dtype=float)
        v = new_base - self.base
        if not np.any(v):
            return self
        as_poly = Jet(self.space, self.coeffs, np.zeros(self.dim))
        shift = PolyMap.affine(np.eye(self.dim), v, self.order)
        return Jet(self.space, jet_compose(as_poly, shift, exact=True).coeffs, new_base)

    def with_order(self, order: int) -> "Jet":
        if order == self.order:
            return self
        target = jet_space(self.dim, order)
        out = np.zeros(target.size)
        for i in np.nonzero(self.coeffs)[0]:
            e = tuple(self.space.exponents[i])
            if sum(e) > order:
                continue
            out[target.index[e]] = self.coeffs[i]
        return Jet(target, out, self.base)

    def __repr__(self) -> str:  # pragma: no cover
        body = " + ".join(f"{c:.6g}*z^{e}" for e, c in sorted(self.terms().items())) or "0"
        return f"Jet<{self.dim},{self.order}>({body} @ {self.base})"


def _default_base(space: JetSpace, base) -> np.ndarray:
    if base is None:
        return np.zeros(space.dim)
    return np.asarray(base, dtype=float)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Product truncated at the common order."""
    a._check_compatible(b)
    s = a.space
    return Jet(s, _mul_coeffs(s, a.coeffs, b.coeffs), a.base)


def _mul_coeffs(s: JetSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Truncated product: ``out[coo_out[k]] += x[coo_a[k]] * y[coo_b[k]]``,
    summed in table order."""
    return np.bincount(s.coo_out, weights=x[s.coo_a] * y[s.coo_b], minlength=s.size)


def jet_compose(outer: Jet, inner: "PolyMap", *, exact: bool = False) -> Jet:
    """Truncated composition outer(inner(x)).

    The inner components must take the value outer.base at their own base
    point (zero constant displacement); pass exact=True to skip that guard
    for outer jets that are exact polynomials, where composition with an
    arbitrary constant offset is still well defined.
    """
    if inner.dim_out != outer.dim:
        raise JetError(f"inner map produces {inner.dim_out} values, outer expects {outer.dim}")
    if inner.order != outer.order:
        raise JetError(f"order mismatch: outer {outer.order}, inner {inner.order}")
    s = inner.space
    deltas = []
    for i, comp in enumerate(inner.components):
        d = comp.coeffs.copy()
        d[0] -= outer.base[i]
        deltas.append(d)
    if not exact:
        scale = max(1.0, float(np.max(np.abs(outer.base))), *(float(np.max(np.abs(d))) for d in deltas))
        worst = max(abs(d[0]) for d in deltas)
        if worst > 1e-9 * scale:
            raise JetError(f"inner constant terms differ from outer base by {worst:.3e}")

    out = np.zeros(s.size)
    out[0] = outer.coeffs[0]
    powers: dict = {}

    def power(v: int, k: int) -> np.ndarray:
        got = powers.get((v, k))
        if got is None:
            got = deltas[v] if k == 1 else _mul_coeffs(s, power(v, k - 1), deltas[v])
            powers[(v, k)] = got
        return got

    for idx in np.nonzero(outer.coeffs)[0]:
        if idx == 0:
            continue
        exp = outer.space.exponents[idx]
        term = None
        for v in range(outer.dim):
            if exp[v] == 0:
                continue
            p = power(v, int(exp[v]))
            term = p if term is None else _mul_coeffs(s, term, p)
        out = out + outer.coeffs[idx] * term
    return Jet(s, out, inner.base)


@dataclass(frozen=True, eq=False)
class PolyMap:
    """A polynomial map given by one jet per output coordinate.

    All components share the input dimension, order and base point; the map
    sends x to (f_1(x), ..., f_m(x)).
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise JetError("empty polynomial map")
        first = comps[0]
        for c in comps[1:]:
            first._check_compatible(c)
        object.__setattr__(self, "components", comps)

    # -- constructors ---------------------------------------------------
    @classmethod
    def identity(cls, dim: int, order: int, base=None) -> "PolyMap":
        s = jet_space(dim, order)
        return cls(tuple(Jet.coordinate(s, i, base) for i in range(dim)))

    @classmethod
    def affine(cls, A: np.ndarray, c: np.ndarray, order: int, base=None) -> "PolyMap":
        """The map x -> c + A (x - base)."""
        A = np.asarray(A, dtype=float)
        dim_out, dim_in = A.shape
        s = jet_space(dim_in, order)
        base_arr = _freeze(_default_base(s, base))
        table = np.zeros((dim_out, s.size))
        table[:, 0] = c
        table[:, 1 : dim_in + 1] = A[:, ::-1]  # graded lex: x_{dim-1} comes first
        return cls(tuple(Jet(s, row, base_arr) for row in table))

    # -- inspection -----------------------------------------------------
    @property
    def space(self) -> JetSpace:
        return self.components[0].space

    @property
    def dim_in(self) -> int:
        return self.space.dim

    @property
    def dim_out(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def base(self) -> np.ndarray:
        return self.components[0].base

    @cached_property
    def coeffs(self) -> np.ndarray:
        """(dim_out, size) table, one row per component; read-only."""
        return _freeze(np.stack([c.coeffs for c in self.components]))

    @cached_property
    def partials(self) -> np.ndarray:
        """(dim_out, dim_in, size) table of every d_j f_i; read-only."""
        out = np.zeros((self.dim_out, self.dim_in, self.space.size))
        for v, (src, dst, fac) in enumerate(self.space.diff_tables):
            out[:, v, dst] = self.coeffs[:, src] * fac
        return _freeze(out)

    def monomials(self, x) -> np.ndarray:
        """The monomial vector (x - base)^exponents of the map's space."""
        return self.space.monomials(np.asarray(x, dtype=float) - self.base)

    def constant(self) -> np.ndarray:
        return self.coeffs[:, 0].copy()

    def linear(self) -> np.ndarray:
        """Jacobian at the base point."""
        return self.coeffs[:, self.dim_in : 0 : -1].copy()  # graded lex: x_{dim-1} comes first

    # -- evaluation -----------------------------------------------------
    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        # one product per row keeps the rounding of the single-jet route,
        # which one BLAS call over the whole table does not
        mono = self.monomials(pts)
        return np.stack([mono @ row for row in self.coeffs], axis=-1)

    eval = eval_many  # a single point x gives the (dim_out,) value

    def jacobian(self, x) -> np.ndarray:
        return self.partials @ self.monomials(x)

    # -- transforms -----------------------------------------------------
    def compose(self, inner: "PolyMap", *, exact: bool = False) -> "PolyMap":
        """self after inner; exact=True rebases exact-polynomial components
        onto inner's constant term instead of requiring aligned bases."""
        outs = []
        for comp in self.components:
            outer = comp.rebased(inner.constant()) if exact else comp
            outs.append(jet_compose(outer, inner, exact=exact))
        return PolyMap(tuple(outs))

    def rebased(self, new_base) -> "PolyMap":
        return PolyMap(tuple(c.rebased(new_base) for c in self.components))

    def with_order(self, order: int) -> "PolyMap":
        return PolyMap(tuple(c.with_order(order) for c in self.components))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolyMap<{self.dim_in}->{self.dim_out}, order {self.order}>"


def jet_invert(f: PolyMap) -> PolyMap:
    """Formal inverse of a square polynomial map with f(base) = base = 0
    and invertible linear part; f o g = id up to the truncation order."""
    if f.dim_in != f.dim_out:
        raise JetError(f"cannot invert a {f.dim_in}->{f.dim_out} map")
    const = f.constant()
    scale = max(1.0, float(np.max(np.abs(f.linear()))))
    if np.max(np.abs(const)) > 1e-9 * scale or np.max(np.abs(f.base)) > 1e-9:
        raise JetError("formal inverse needs zero base point and zero constant term")
    A = f.linear()
    det = np.linalg.det(A)
    if abs(det) < 1e-12 * max(1.0, np.max(np.abs(A)) ** f.dim_in):
        raise JetError(f"linear part is singular (det={det:.3e})")
    Ainv = np.linalg.inv(A)
    dim, order = f.dim_in, f.order
    s = f.space

    # nonlinear part N with f(x) = A x + N(x), deg N >= 2
    lin = PolyMap.affine(A, np.zeros(dim), order)
    N = PolyMap(tuple(fc - lc for fc, lc in zip(f.components, lin.components)))

    g = PolyMap.affine(Ainv, np.zeros(dim), order)
    ident = PolyMap.identity(dim, order)
    for _ in range(order - 1):
        ng = N.compose(g)
        resid = PolyMap(tuple(ic - nc for ic, nc in zip(ident.components, ng.components)))
        g = PolyMap.affine(Ainv, np.zeros(dim), order).compose(resid)
    return g
