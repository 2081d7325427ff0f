"""Exact calculus for shift-type operators on l2(N) tensor C^d.

An operator is a finite sum of modulated stripes and a finitely
supported block matrix.  The stripe with offset k, phase c and color
matrix M has the block entry exp(2 pi i c m) M at position (m, m - k)
for every site m >= max(0, k); phases are kept as exact Fractions mod 1
so that products, adjoints and identities like S* S = 1 and
S S* = 1 - P_0 come out exactly, not just to float precision.

Products of stripes are again stripes up to a finite correction:
the product of offsets k1 and k2 is supported on m >= max(0, k1, k1+k2),
while the canonical stripe with offset k1+k2 starts at max(0, k1+k2),
so the surplus rows (nonempty only when k1 > 0 > k2) are subtracted
into the finite part.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import FiberMismatch
from .linalg import dagger, opnorm

_QUARTER_EXACT = {
    Fraction(0): 1.0 + 0.0j,
    Fraction(1, 4): 1.0j,
    Fraction(1, 2): -1.0 + 0.0j,
    Fraction(3, 4): -1.0j,
}


def cispi_frac(c: Fraction) -> complex:
    """exp(2 pi i c) with exact values at the quarter turns."""
    c = c % 1
    if c in _QUARTER_EXACT:
        return _QUARTER_EXACT[c]
    return complex(np.exp(2j * np.pi * float(c)))


@lru_cache(maxsize=4096)
def _root(n: int, q: int) -> complex:
    """exp(2 pi i n / q) for a residue 0 <= n < q: `cispi_frac` of n / q,
    looked up by integers, so a loop over sites does no Fraction
    arithmetic.  The phase c = p / q at site m is `_root(p * m % q, q)`."""
    return cispi_frac(Fraction(n, q))


def _integer(x, what: str) -> int:
    """x as an int; FiberMismatch unless x is an integer in value."""
    try:
        i = int(x)
        if i == x:
            return i
    except (TypeError, ValueError, OverflowError):
        pass
    raise FiberMismatch(f"{what} {x!r} is not an integer")


def _nonzero(blocks: dict) -> dict:
    """`blocks` without its zero matrices, dropped in place (rebuilding
    the dictionary would hash every Fraction key again)."""
    for key in [key for key, m in blocks.items() if not m.any()]:
        del blocks[key]
    return blocks


def _merged(a: dict, b: dict) -> dict:
    """a + b blockwise in normal form: the blocks of one side are kept
    as they are, a shared key is summed (a first) and dropped if zero."""
    out = dict(a)
    for key, m in b.items():
        old = out.get(key)
        if old is None:
            out[key] = m
        elif (total := old + m).any():
            out[key] = total
        else:
            del out[key]
    return out


def _scale(z: complex, m: np.ndarray) -> np.ndarray:
    # multiplying by exactly 1 must be the identity at the bit level
    if z == 1.0:
        return m
    return z * m


class ShiftOp:
    """Finite sum of modulated stripes plus a finite block matrix.

    stripes maps (offset k, phase c) to a d_out x d_in color matrix;
    finite maps a site pair (r, s) to a color matrix.  The dictionaries
    are a normal form, so two operators are equal iff they match: offsets
    and sites are ints, phases are Fractions in [0, 1), every matrix is
    nonzero, and every matrix is 0 + m for the m it was summed to, so its
    zeros are +0.0.  The constructor validates its input and brings it to
    this form.  Arithmetic (+, -, scalar *, @, .H, `map_color`,
    `color_corner`) builds its result in the normal form directly and is
    not validated again; a result may share color matrices with its
    operands, so color matrices must not be written to.

    `window_assembly` keeps the site blocks that kernel windows are built
    from on the operator, so that every window asked of it shares one
    assembly.
    """

    __slots__ = ("d_out", "d_in", "stripes", "finite", "_assembly")

    def __init__(self, d_out: int, d_in: int,
                 stripes: dict[tuple[int, Fraction], np.ndarray] | None = None,
                 finite: dict[tuple[int, int], np.ndarray] | None = None):
        self.d_out = int(d_out)
        self.d_in = int(d_in)
        self._assembly = None
        self.stripes: dict[tuple[int, Fraction], np.ndarray] = {}
        self.finite: dict[tuple[int, int], np.ndarray] = {}
        for (k, c), m in (stripes or {}).items():
            k = _integer(k, "stripe offset")
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.d_out, self.d_in):
                raise FiberMismatch(
                    f"stripe {k} color matrix has shape {m.shape}, "
                    f"expected {(self.d_out, self.d_in)}")
            if m.any():
                key = (k, Fraction(c) % 1)
                self.stripes[key] = self.stripes.get(key, 0) + m
        for (r, s), m in (finite or {}).items():
            r, s = _integer(r, "finite site"), _integer(s, "finite site")
            if r < 0 or s < 0:
                raise FiberMismatch("finite part indexed by negative sites")
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.d_out, self.d_in):
                raise FiberMismatch(
                    f"finite block {(r, s)} has shape {m.shape}, "
                    f"expected {(self.d_out, self.d_in)}")
            if m.any():
                self.finite[(r, s)] = self.finite.get((r, s), 0) + m
        # summing may have produced fresh zeros
        self.stripes = _nonzero(self.stripes)
        self.finite = _nonzero(self.finite)

    @classmethod
    def _normal(cls, d_out: int, d_in: int, stripes: dict, finite: dict) -> "ShiftOp":
        """The operator of dictionaries already in normal form, unchecked."""
        op = object.__new__(cls)
        op.d_out, op.d_in, op.stripes, op.finite = d_out, d_in, stripes, finite
        op._assembly = None
        return op

    # ------------------------------------------------------------ queries

    @property
    def max_abs_shift(self) -> int:
        return max((abs(k) for k, _ in self.stripes), default=0)

    @property
    def finite_extent(self) -> int:
        """Number of leading sites that contain the whole finite part."""
        return max((max(r, s) + 1 for r, s in self.finite), default=0)

    def compact_defect(self) -> float:
        """Distance bound to the compacts: total stripe weight."""
        return float(sum(opnorm(m) for m in self.stripes.values()))

    def norm_upper(self) -> float:
        """Triangle-inequality bound; each stripe has norm exactly |M|."""
        bound = sum(opnorm(m) for m in self.stripes.values())
        n = self.finite_extent
        if n:
            bound += opnorm(dense_blocks(self.finite, range(n), range(n),
                                         self.d_out, self.d_in))
        return float(bound)

    def site_blocks(self, cols) -> dict[tuple[int, int], np.ndarray]:
        """The nonzero site blocks (r, s) in the column sites `cols`, on
        every row they reach.

        Each block starts from zero and adds the finite block, then the
        stripes in order, so a stripe and a finite entry that cancel
        leave an exact zero block, which is dropped.  Blocks may be shared
        between sites and must not be written to.
        """
        cols = set(cols)
        # a block starts as 0 + m (bitwise, as if added to a zero block)
        out = {(r, s): 0 + m for (r, s), m in self.finite.items() if s in cols}
        summed = set()
        for (k, c), m in self.stripes.items():
            # the phase of row r depends on r mod its denominator only
            p, q = c.numerator, c.denominator
            by_residue: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for s in cols:
                row = s + k
                if row < 0:
                    continue
                if row % q not in by_residue:
                    # an unmodulated stripe adds m itself, as _scale(1.0, m) would
                    v = m if q == 1 else _scale(_root(p * row % q, q), m)
                    by_residue[row % q] = v, 0 + v
                v, fresh = by_residue[row % q]
                old = out.get((row, s))
                if old is None:
                    out[(row, s)] = fresh
                else:
                    out[(row, s)] = old + v
                    summed.add((row, s))
        # one nonzero term stays nonzero; only a sum can cancel
        for rs in summed:
            if not out[rs].any():
                del out[rs]
        return out

    def window_assembly(self, window: int) -> "WindowAssembly":
        """The `WindowAssembly` of the first `window` columns, kept on the
        operator: one `site_blocks` call serves every window of an
        operator with one bulk stripe offset, and otherwise every window
        up to the widest asked for so far."""
        a = self._assembly
        if a is None or (a.offset is None and a.columns < window):
            a = self._assembly = WindowAssembly(self, window)
        return a

    def materialize(self, rows: int, cols: int | None = None) -> np.ndarray:
        """Dense window: the first `rows` x `cols` sites of the operator."""
        if cols is None:
            cols = rows
        return dense_blocks(self.site_blocks(range(cols)),
                            range(rows), range(cols), self.d_out, self.d_in)

    def __repr__(self) -> str:
        ks = sorted((k, str(c)) for k, c in self.stripes)
        return (f"ShiftOp(d={self.d_out}x{self.d_in}, stripes={ks}, "
                f"finite_blocks={len(self.finite)})")

    # ---------------------------------------------------------- arithmetic

    def _require_same_space(self, other: "ShiftOp") -> None:
        if (self.d_out, self.d_in) != (other.d_out, other.d_in):
            raise FiberMismatch("color dimensions differ")

    def __add__(self, other: "ShiftOp") -> "ShiftOp":
        if not isinstance(other, ShiftOp):
            return NotImplemented
        self._require_same_space(other)
        return ShiftOp._normal(self.d_out, self.d_in,
                               _merged(self.stripes, other.stripes),
                               _merged(self.finite, other.finite))

    def __neg__(self) -> "ShiftOp":
        return self * (-1.0)

    def __sub__(self, other: "ShiftOp") -> "ShiftOp":
        if not isinstance(other, ShiftOp):
            return NotImplemented
        return self + (-other)

    def __mul__(self, z) -> "ShiftOp":
        if not isinstance(z, (int, float, complex)):
            return NotImplemented
        return ShiftOp._normal(self.d_out, self.d_in,
                               _nonzero({k: 0 + z * v for k, v in self.stripes.items()}),
                               _nonzero({k: 0 + z * v for k, v in self.finite.items()}))

    __rmul__ = __mul__

    def __matmul__(self, other: "ShiftOp") -> "ShiftOp":
        if not isinstance(other, ShiftOp):
            return NotImplemented
        if self.d_in != other.d_out:
            raise FiberMismatch("color dimensions do not compose")
        stripes: dict[tuple[int, Fraction], np.ndarray] = {}
        finite: dict[tuple[int, int], np.ndarray] = {}
        # each key starts as 0 + m, then sums in the order of the loops
        own = [(k, c, c.numerator, c.denominator, m)
               for (k, c), m in self.stripes.items()]
        theirs = [(k, c, c.numerator, c.denominator, m)
                  for (k, c), m in other.stripes.items()]
        by_row: dict[int, list[tuple[int, np.ndarray]]] = {}
        for (r, s), m in other.finite.items():
            by_row.setdefault(r, []).append((s, m))

        for k1, c1, p1, q1, m1 in own:
            for k2, c2, p2, q2, m2 in theirs:
                k = k1 + k2
                c = c2 if not p1 else c1 if not p2 else (c1 + c2) % 1
                m = _scale(_root(-p2 * k1 % q2, q2), m1 @ m2)
                stripes[(k, c)] = stripes.get((k, c), 0) + m
                # the true product starts at max(0, k1, k); the canonical
                # stripe starts earlier, so subtract the surplus rows
                p, q = c.numerator, c.denominator
                for row in range(max(0, k), max(0, k1, k)):
                    finite[(row, row - k)] = (finite.get((row, row - k), 0)
                                              + _scale(-_root(p * row % q, q), m))
            for (r, s), m2 in other.finite.items():
                row = r + k1
                if row >= max(0, k1):
                    finite[(row, s)] = (finite.get((row, s), 0)
                                        + _scale(_root(p1 * row % q1, q1), m1 @ m2))
        for (r, s), m1 in self.finite.items():
            for k2, c2, p2, q2, m2 in theirs:
                if s >= max(0, k2):
                    finite[(r, s - k2)] = (finite.get((r, s - k2), 0)
                                           + _scale(_root(p2 * s % q2, q2), m1 @ m2))
            for s2, m2 in by_row.get(s, ()):
                finite[(r, s2)] = finite.get((r, s2), 0) + m1 @ m2
        return ShiftOp._normal(self.d_out, other.d_in, _nonzero(stripes), _nonzero(finite))

    @property
    def H(self) -> "ShiftOp":
        """Adjoint; stripes map to stripes, exactly."""
        stripes = {}
        for (k, c), m in self.stripes.items():
            p, q = c.numerator, c.denominator
            stripes[(-k, -c % 1)] = 0 + _scale(_root(-p * k % q, q), dagger(m))
        # the adjoint of a nonzero block is nonzero
        finite = {(s, r): 0 + dagger(m) for (r, s), m in self.finite.items()}
        return ShiftOp._normal(self.d_in, self.d_out, _nonzero(stripes), finite)


class WindowAssembly:
    """The site blocks that the kernel windows of an operator are built from.

    Take a square operator whose stripes all share one offset k (every
    shift and sector corner).  Its *touched* columns are the columns of
    the finite blocks, the columns r - k of the finite rows r and the
    columns s < -k; all of them lie below max |k| + `finite_extent` + 1.
    Every other (*bulk*) column s holds one block, at row s + k, alone in
    its row and its column, and its value depends only on (s + k) mod q,
    where q (`period`) is the lcm of the phase denominators.  One
    `site_blocks` call assembles the touched columns and one
    representative bulk column per residue class: `blocks` holds the
    blocks of the touched columns, `bulk` maps each representative site
    pair to its block, or to None where the stripes cancel exactly, and
    the bulk columns of a class are the untouched columns congruent to its
    representative mod q.  Since a block depends on its own column only,
    these are bit for bit the blocks of any window's full assembly.

    Any other operator (several offsets, non-square colours, no stripe)
    has no bulk: `offset` is None, `touched` is every column below
    `columns`, and `blocks` is `site_blocks(range(columns))`.

    `smallest` keeps the smallest singular values measured by
    `smallest_sv`, so that each matrix is measured once per operator.
    """

    def __init__(self, op: ShiftOp, window: int):
        offsets = {k for k, _ in op.stripes}
        self.offset = offsets.pop() if op.d_out == op.d_in and len(offsets) == 1 else None
        self.smallest: dict = {}
        if self.offset is None:
            self.period, self.columns, self.bulk = 1, window, {}
            self.touched = range(window)
            self.blocks = op.site_blocks(self.touched)
            return
        k = self.offset
        self.period = lcm(*(c.denominator for _, c in op.stripes))
        self.columns = None
        self.touched = sorted({s for _, s in op.finite}
                              | {r - k for r, _ in op.finite if r >= k} | set(range(-k)))
        start = self.touched[-1] + 1 if self.touched else 0
        reps = range(start, start + self.period)
        blocks = op.site_blocks([*self.touched, *reps])
        self.bulk = {(s + k, s): blocks.pop((s + k, s), None) for s in reps}
        self.blocks = blocks

    def smallest_sv(self, mats: dict) -> dict:
        """The smallest singular values kept so far, after measuring the
        matrices of `mats` (key -> square matrix) whose keys are new, in
        one stacked SVD."""
        new = [key for key in mats if key not in self.smallest]
        if new:
            sv = np.linalg.svd(np.stack([mats[key] for key in new]), compute_uv=False)
            self.smallest.update(zip(new, sv[:, -1].tolist()))
        return self.smallest


def dense_blocks(blocks: dict[tuple[int, int], np.ndarray], rows, cols,
                 d_out: int, d_in: int) -> np.ndarray:
    """Dense matrix of site blocks on the row and column sites given, in
    that order; blocks outside them are left out."""
    at_row = {r: i * d_out for i, r in enumerate(rows)}
    at_col = {s: j * d_in for j, s in enumerate(cols)}
    out = np.zeros((len(at_row) * d_out, len(at_col) * d_in), dtype=complex)
    for (r, s), b in blocks.items():
        if r in at_row and s in at_col:
            i, j = at_row[r], at_col[s]
            out[i:i + d_out, j:j + d_in] = b
    return out


# ------------------------------------------------------------ constructors

def identity_op(d: int) -> ShiftOp:
    return stripe_op(0, np.eye(d, dtype=complex))


def stripe_op(k: int, m: np.ndarray, c: Fraction = Fraction(0)) -> ShiftOp:
    m = np.asarray(m, dtype=complex)
    return ShiftOp(m.shape[0], m.shape[1], {(k, Fraction(c)): m})


def shift_op(d: int = 1) -> ShiftOp:
    """The unilateral shift (tensor the identity color)."""
    return stripe_op(1, np.eye(d, dtype=complex))


def finite_op(blocks: dict[tuple[int, int], np.ndarray], d: int) -> ShiftOp:
    return ShiftOp(d, d, finite=blocks)


def site_projection_op(sites: int, d: int = 1) -> ShiftOp:
    """Orthogonal projection onto the first `sites` sites."""
    eye = np.eye(d, dtype=complex)
    return finite_op({(m, m): eye.copy() for m in range(sites)}, d)


# -------------------------------------------------------------- color maps

def map_color(op: ShiftOp, f) -> ShiftOp:
    """Apply f to every color matrix; f must preserve a common shape."""
    stripes = {k: np.asarray(f(m), dtype=complex) for k, m in op.stripes.items()}
    finite = {k: np.asarray(f(m), dtype=complex) for k, m in op.finite.items()}
    shapes = {m.shape for m in stripes.values()} | {m.shape for m in finite.values()}
    if len(shapes) > 1:
        raise FiberMismatch(f"color map produced mixed shapes {shapes}")
    if shapes:
        d_out, d_in = next(iter(shapes))
    else:
        d_out, d_in = op.d_out, op.d_in
    return ShiftOp._normal(d_out, d_in,
                           _nonzero({k: 0 + m for k, m in stripes.items()}),
                           _nonzero({k: 0 + m for k, m in finite.items()}))


def color_corner(op: ShiftOp, rows, cols) -> ShiftOp:
    """Sub-operator picking the given color row/column indices."""
    rows = list(rows)
    cols = list(cols)
    sel = np.ix_(rows, cols)
    return ShiftOp._normal(len(rows), len(cols),
                           _nonzero({k: 0 + m[sel] for k, m in op.stripes.items()}),
                           _nonzero({k: 0 + m[sel] for k, m in op.finite.items()}))


def op_equal(a: ShiftOp, b: ShiftOp) -> bool:
    """Bitwise equality of the normal forms."""
    if (a.d_out, a.d_in) != (b.d_out, b.d_in):
        return False
    if set(a.stripes) != set(b.stripes) or set(a.finite) != set(b.finite):
        return False
    return (all(np.array_equal(a.stripes[k], b.stripes[k]) for k in a.stripes)
            and all(np.array_equal(a.finite[k], b.finite[k]) for k in a.finite))
