"""Explicit model of GF(p^k): arithmetic, trace, polynomials.

Elements are canonical integers in [0, q): the base-p digits of an encoding
are the coordinates in the polynomial basis of the chosen irreducible
modulus.  That encoding gives a total order used for canonical witnesses and
for primitive-element enumeration.  Every element argument is an element of
the same field or an int encoding in [0, q); anything else raises ValueError
(FieldSpec.encoding).  Multiplication reads the discrete-log lists of the
least generator g, built on first use in O(q) table steps: x -> x g is
F_p-linear in the digits of x, so one table of x g, made from the k images
X^d g, is walked once (FieldSpec.exp).  Addition is carry-free for every
field: three lists of q, q and (2p - 1)^k entries, built on first use, and
no q x q table (FieldSpec).  Polynomial values, power sums and
interpolation go through one length-(q - 1) DFT over GF(q), computed as a
single integer product (FieldSpec.transform).  field_build keeps the fields it built, so
each is planned once per process.  Intended for desk-scale fields (q up to
~10^4); irreducibility is certified by trial division.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .functable import FunctionTable


class FieldConstructionError(ValueError):
    """Invalid field parameters (non-prime p, reducible modulus, ...)."""


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q = p^k with p prime, or raise."""
    if q < 2:
        raise FieldConstructionError(f"{q} is not a prime power")
    ps = prime_factors(q)
    if len(ps) != 1:
        raise FieldConstructionError(f"{q} is not a prime power")
    p = ps[0]
    k = 0
    while q > 1:
        q //= p
        k += 1
    return p, k


# -- polynomial helpers over F_p (little-endian coefficient lists) ----------

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, for a with coefficients
    in [0, p): the irreducibility test's trial division, and the one
    reduction modulo a field's modulus (FieldSpec._raw_mul, the images
    X^d g of FieldSpec.exp, _chirp_plan)."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
        _fp_trim(a)
    return a


def _fp_is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division of a monic poly of degree >= 1 by every monic
    polynomial of degree 1..deg/2."""
    degree = len(poly) - 1
    if degree == 1:
        return True
    if poly[0] == 0:  # divisible by X
        return False
    for d in range(1, degree // 2 + 1):
        for enc in range(p**d):
            div = _digits_of(enc, p, d) + [1]
            if not _fp_mod(poly, div, p):
                return False
    return True


def _monic_irreducibles(p: int, k: int):
    """Monic irreducibles of degree k over F_p, as tuples, in encoding order
    of their non-leading coefficients (little-endian base p)."""
    for enc in range(p**k):
        cand = _digits_of(enc, p, k) + [1]
        if _fp_is_irreducible(cand, p):
            yield tuple(cand)


def _digits_of(e: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _encode_digits(digits, p: int) -> int:
    e = 0
    for d in reversed(digits):
        e = e * p + d
    return e


def _rebase(k: int, digit_values, base: int) -> list[int]:
    """out[e] = sum_i digit_values[d_i] * base^i, where d_0 .. d_(k-1) are the
    digits of e in base len(digit_values)."""
    out = [0]
    w = 1
    for _ in range(k):
        out = [s + t for t in [d * w for d in digit_values] for s in out]
        w *= base
    return out


def _linear_table(p: int, images) -> list[int]:
    """out[x] = sum_d x_d images[d] over F_p, for the base-p digits x_d of
    x: the table of the F_p-linear map that takes p^d to the k-digit vector
    images[d].

    x = lo + p^a hi, with a = ceil(k/2), splits the map into the images of
    lo and of hi: p^a and p^(k-a) digit vectors, built one digit at a time.
    Each is kept as its spread (base 2p - 1, as FieldSpec.spread), cut at
    digit a, so the two add without carry, and each half of a sum is reduced
    mod p by one list of (2p - 1)^a or (2p - 1)^(k-a) entries: no list of
    (2p - 1)^k entries is built."""
    k, base = len(images), 2 * p - 1
    a = (k + 1) // 2

    def spreads(imgs):
        vecs = [[0] * k]
        for img in imgs:  # each pass appends the next, more significant digit
            vecs = [[(s + j * c) % p for s, c in zip(v, img)] for j in range(p) for v in vecs]
        return [(_encode_digits(v[:a], base), _encode_digits(v[a:], base)) for v in vecs]

    lo, hi = spreads(images[:a]), spreads(images[a:])
    low = _rebase(a, [d % p for d in range(base)], p)
    high = _rebase(k - a, [d % p * p**a for d in range(base)], p)
    out = []
    for hl, hh in hi:
        out += [low[l + hl] + high[h + hh] for l, h in lo]
    return out


def _field_args(p: int, k: int, modulus) -> tuple[int, ...] | None:
    """Check the field parameters that need no search: p a prime int, k an
    int >= 1, and a given modulus monic of degree k with int coefficients in
    [0, p).  Returns the modulus as a tuple (None when absent)."""
    if type(p) is not int or not is_prime(p):
        raise FieldConstructionError(f"{p!r} is not prime")
    if type(k) is not int or k < 1:
        raise FieldConstructionError(f"extension degree must be an int >= 1, got {k!r}")
    if modulus is None:
        return None
    if k == 1:
        raise FieldConstructionError("prime fields take no modulus")
    modulus = tuple(modulus)
    if (
        len(modulus) != k + 1
        or any(type(c) is not int or not 0 <= c < p for c in modulus)
        or modulus[-1] != 1
    ):
        raise FieldConstructionError(
            "modulus must be monic of degree k with coefficients in [0, p)"
        )
    return modulus


class FieldSpec:
    """Immutable description of GF(p^k) with table-backed arithmetic on
    integer encodings.  Use :func:`field_build` to construct one.

    Multiplication goes through the discrete-log lists ``exp``/``log`` in
    every field, built on first use by walking one table of x * g, where g
    is the least generator (``_raw_pow`` tests the candidates).  Addition is
    carry-free for every p and k: ``spread[x]`` re-reads the base-p digits
    of x in base 2p - 1 and ``nspread[x] = spread[-x]``, so the digits of
    ``spread[a] + spread[b]`` and ``spread[a] + nspread[b]`` stay below
    2p - 1, and ``reduce`` maps either sum, digit by digit mod p, to the
    encoding of a + b or a - b.  The three lists hold q, q and (2p - 1)^k
    entries and are built on first use."""

    def __init__(self, p: int, k: int, modulus=None):
        modulus = _field_args(p, k, modulus)
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        if k > 1:
            if modulus is None:
                # canonical: the least non-leading coefficient encoding
                self.modulus = next(_monic_irreducibles(p, k))
            elif not _fp_is_irreducible(list(modulus), p):
                raise FieldConstructionError(f"modulus {list(modulus)} is reducible over F_{p}")

    def _raw_mul(self, a: int, b: int) -> int:
        """a * b for k >= 2, from the digit convolution reduced by _fp_mod."""
        p, k = self.p, self.k
        da = _digits_of(a, p, k)
        db = _digits_of(b, p, k)
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        return _encode_digits(_fp_mod(conv, self.modulus, p), p)

    def _raw_pow(self, x: int, e: int) -> int:
        """x^e by square and multiply over _raw_mul (pow mod p when k = 1):
        the generator test of exp, which reads no discrete log."""
        if self.k == 1:
            return pow(x, e, self.p)
        result = 1
        while e:
            if e & 1:
                result = self._raw_mul(result, x)
            x = self._raw_mul(x, x)
            e >>= 1
        return result

    @cached_property
    def exp(self) -> list[int]:
        """exp[i] = g^i for i < q - 1, where g is the least generator of the
        multiplicative group; built on first use.  The search for g starts
        at p when k >= 2, since every x < p lies in GF(p)* and has order
        below q - 1.  x -> x g is F_p-linear in the digits of x, so one
        table of x g (_linear_table, from the k images X^d g reduced by
        _fp_mod) gives exp[i] = times_g[exp[i - 1]], one lookup a power."""
        p, k, q = self.p, self.k, self.q
        factors = prime_factors(q - 1)
        gen = next(
            x for x in range(p if k > 1 else 1, q)
            if all(self._raw_pow(x, (q - 1) // ell) != 1 for ell in factors)
        )
        if k == 1:
            times_g = [x * gen % p for x in range(p)]
        else:
            g = _digits_of(gen, p, k)
            images = [_fp_mod([0] * d + g, self.modulus, p) for d in range(k)]
            times_g = _linear_table(p, [v + [0] * (k - len(v)) for v in images])
        out = [1] * (q - 1)
        x = 1
        for i in range(1, q - 1):
            x = out[i] = times_g[x]
        return out

    @cached_property
    def log(self) -> list[int]:
        """log[x] = the i with exp[i] = x, for x != 0 (log[0] is 0)."""
        out = [0] * self.q
        for i, v in enumerate(self.exp):
            out[v] = i
        return out

    @cached_property
    def frobenius_minima(self) -> list[int]:
        """The x != 0 that are least in their Frobenius orbit {x, x^p,
        x^(p^2), ...}, increasing; log(x^p) = p log(x) mod (q - 1)."""
        n, p, exp = self.q - 1, self.p, self.exp
        out = []
        for l, x in enumerate(exp):
            y = l * p % n
            while y != l and exp[y] > x:
                y = y * p % n
            if y == l:
                out.append(x)
        return sorted(out)

    # -- arithmetic on integer encodings ------------------------------------

    @cached_property
    def spread(self) -> list[int]:
        return _rebase(self.k, range(self.p), 2 * self.p - 1)

    @cached_property
    def nspread(self) -> list[int]:
        return _rebase(self.k, [(-d) % self.p for d in range(self.p)], 2 * self.p - 1)

    @cached_property
    def reduce(self) -> list[int]:
        elems = list(range(self.q))  # entries share the q int objects of one list
        sums = _rebase(self.k, [d % self.p for d in range(2 * self.p - 1)], self.p)
        return list(map(elems.__getitem__, sums))

    def add(self, a: int, b: int) -> int:
        return self.reduce[self.spread[a] + self.spread[b]]

    def neg(self, a: int) -> int:
        return self.reduce[self.nspread[a]]

    def sub(self, a: int, b: int) -> int:
        return self.reduce[self.spread[a] + self.nspread[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, x: int, e: int) -> int:
        """x^e = exp[log x * e mod (q - 1)]; negative e via the inverse."""
        if e < 0:
            return self.pow(self.inv(x), -e)
        if x == 0:
            return 1 if e == 0 else 0
        return self.exp[self.log[x] * e % (self.q - 1)]

    @cached_property
    def traces(self) -> list[int]:
        """traces[a] = Tr(a) = a + a^p + ... + a^(p^(k-1)), an encoding in
        [0, p).  The conjugates of X are the roots of the modulus m, so
        Tr(X^i) is their i-th power sum, which Newton's identities give from
        the coefficients of m: Tr(1) = k and, for 1 <= i < k,
        Tr(X^i) = -(i m_(k-i) + sum_(j<i) m_(k-j) Tr(X^(i-j))).  Tr is
        F_p-linear, Tr(sum d_i X^i) = sum d_i Tr(X^i), so the list follows
        from the traces of the basis X^i (encoding p^i)."""
        p, k, m = self.p, self.k, self.modulus
        basis = [k % p]
        for i in range(1, k):
            basis.append(-(i * m[k - i] + sum(m[k - j] * basis[i - j] for j in range(1, i))) % p)
        table = [0]
        for t in basis:  # extend from p^i to p^(i+1) encodings by digit i
            table = [(s + d * t) % p for d in range(p) for s in table]
        return table

    # -- helper tables (condition kernel) ------------------------------------

    def add_rows(self):
        """Row function add_rows()(a)[x] = x + a: each call builds q entries
        from q/p slices of reduce, as x = d + p*y has spread[x] = d + spread[p*y]."""
        p, spread, red = self.p, self.spread, self.reduce
        starts = spread[::p]

        def row(a: int) -> list[int]:
            sa, out = spread[a], []
            for t in starts:
                out += red[sa + t : sa + t + p]
            return out

        return row

    def sub_rows(self):
        """Row function sub_rows()(u)[v] = u - v: each call builds q entries."""
        spread, nspread, red = self.spread, self.nspread, self.reduce
        return lambda u: list(map(red.__getitem__, map(spread[u].__add__, nspread)))

    def trace_mul_rows(self):
        """Row function trace_mul_rows()(h)[c] = Tr(h*c): each call builds q
        entries."""
        tr, mul, q = self.traces, self.mul, self.q
        return lambda h: [tr[mul(h, c)] for c in range(q)]

    # -- the discrete Fourier transform over GF(q) -----------------------------

    @cached_property
    def _chirp_plan(self):
        """What transform reads for every input: the slot width in bytes and
        the array typecode it unpacks to; rows[x], the k base-p digits of x
        packed into 2k - 1 slots (the last k - 1 zero, room for a digit
        product); tri[m] = T(m) mod (q - 1); the chirp g^T(m), m < q - 1,
        packed into one int; and fold[h] = spread of sum_t h_t X^(k+t) mod
        the modulus, for the q/p words h of k - 1 high digits.

        A slot holds at most (q - 1) k (p - 1)^2, q - 1 terms each a sum of
        at most k digit products, so its width is that bound's byte length.
        Above 8 bytes, the widest array item, the plan raises ValueError
        before any list is built, rather than let a slot carry into the next."""
        p, k, n = self.p, self.k, self.q - 1
        width = (n * k * (p - 1) ** 2).bit_length() + 7 >> 3
        typecode = next((t for t in "BHIQ" if array(t).itemsize >= width), None)
        if typecode is None:
            raise ValueError(f"GF({p}^{k}): transform slots need {width} bytes, over the 8-byte limit")
        rows = [r.to_bytes(width * (2 * k - 1), "little") for r in _rebase(k, range(p), 256**width)]
        tri, t = [], 0
        for m in range(n):  # T(m + 1) = T(m) + m
            tri.append(t)
            t = (t + m) % n
        chirp = int.from_bytes(b"".join([rows[self.exp[t]] for t in tri]), "little")
        fold = [0]
        for j in range(k, 2 * k - 1):  # X^j mod the modulus, by _fp_mod
            step, multiples = _encode_digits(_fp_mod([0] * j + [1], self.modulus, p), p), [0]
            for _ in range(p - 1):
                multiples.append(self.add(multiples[-1], step))
            fold = [self.add(f, m) for m in multiples for f in fold]
        return width, typecode, rows, tri, chirp, [self.spread[f] for f in fold]

    def transform(self, a) -> list[int]:
        """X_j = sum_i a_i g^(ij) for j < q - 1, from the q - 1 encodings a_i,
        where g is the least generator (exp[1]).

        Bluestein's chirp-z identity ij = T(i + j) - T(i) - T(j), with
        T(n) = n(n - 1)/2, makes the transform one correlation:
        X_j = g^-T(j) sum_i (a_i g^-T(i)) c_(i+j), c_m = g^T(m).  Since
        g^T(q-1) = -1 in every GF(q), c_(m+q-1) = -c_m, so the correlation is
        negacyclic of length q - 1: P[q-2+j] - P[j-1] for the linear
        correlation P of the q - 1 terms with c_0 .. c_(q-2).  P is one int
        product of the packed digit rows (Kronecker substitution); no slot
        carries, since each holds at most (q - 1) k (p - 1)^2 in its width
        (_chirp_plan).  Slots of 3, 5, 6 or 7 bytes are widened to the next
        array item size by one slice assignment per byte.  Each output's
        2k - 1 slot differences are reduced mod p, and its k - 1 high digits
        folded back through the modulus."""
        width, typecode, rows, tri, chirp, fold = self._chirp_plan
        p, k, n = self.p, self.k, self.q - 1
        exp, log, red = self.exp, self.log, self.reduce
        if len(a) != n:
            raise ValueError(f"transform takes q - 1 = {n} encodings, got {len(a)}")
        b = [exp[(log[x] - t) % n] if x else 0 for x, t in zip(a, tri)]  # a_i g^-T(i)
        w = 2 * k - 1  # slots per index
        product = int.from_bytes(b"".join(map(rows.__getitem__, reversed(b))), "little") * chirp
        raw = product.to_bytes(2 * n * w * width, "little")
        slots = array(typecode)
        size = slots.itemsize
        if size != width:
            wide = bytearray(len(raw) // width * size)
            for i in range(width):
                wide[i::size] = raw[i::width]
            raw = wide
        slots.frombytes(raw)
        if sys.byteorder != "little":
            slots.byteswap()
        head = slots[(n - 1) * w : (2 * n - 1) * w]  # P[n - 1 + j]
        wrap = array(typecode, bytes(w * size)) + slots[: (n - 1) * w]  # P[j - 1]
        digits = [[(u - v) % p for u, v in zip(head[t::w], wrap[t::w])] for t in range(w)]
        low, high = digits[k - 1], [0] * n  # spread of the low digits, word of the high
        for col in reversed(digits[: k - 1]):
            low = [s * (2 * p - 1) + d for s, d in zip(low, col)]
        for col in reversed(digits[k:]):
            high = [h * p + d for h, d in zip(high, col)]
        y = [red[s + fold[h]] for s, h in zip(low, high)]
        return [exp[(log[v] - t) % n] if v else 0 for v, t in zip(y, tri)]

    # -- element / misc ------------------------------------------------------

    def encoding(self, x) -> int:
        """The encoding of an element argument: x itself if it is an int in
        [0, q), x.value if it is an element of this field.  Anything else
        (bools, floats, strings, out-of-range ints, elements of another
        field) raises ValueError."""
        if isinstance(x, FieldElement):
            if x.spec != self:
                raise ValueError("element from a different field")
            return x.value
        if type(x) is not int or not 0 <= x < self.q:
            raise ValueError(f"expected an element or an int encoding in [0, {self.q}), got {x!r}")
        return x

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self, value)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={list(self.modulus)})"


def field_build(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """GF(p^k), with the canonical modulus when none is supplied.  A field is
    built once and kept (the last 16 in a bounded cache), so its lists and
    transform plan are made once per process.  The parameters are checked
    before the lookup: True == 1 and 1.0 == 1 hash alike, so a modulus
    [2, 2, True] would otherwise find the field built from [2, 2, 1]."""
    return _cached_field(p, k, _field_args(p, k, modulus))


@lru_cache(maxsize=16)
def _cached_field(p: int, k: int, modulus) -> FieldSpec:
    return FieldSpec(p, k, modulus)


def all_irreducible_moduli(p: int, k: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree k over F_p, in encoding order."""
    return list(_monic_irreducibles(p, k))


@dataclass(frozen=True)
class FieldElement:
    spec: FieldSpec
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.spec.encoding(self.value))

    def __add__(self, other):
        return FieldElement(self.spec, self.spec.add(self.value, self.spec.encoding(other)))

    def __sub__(self, other):
        return FieldElement(self.spec, self.spec.sub(self.value, self.spec.encoding(other)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.value))

    def __mul__(self, other):
        return FieldElement(self.spec, self.spec.mul(self.value, self.spec.encoding(other)))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow(self.value, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.value))

    def trace(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.traces[self.value])

    def __int__(self):
        return self.value


def is_primitive(x: FieldElement) -> bool:
    """True iff x generates the multiplicative group: gcd(log x, q - 1) = 1."""
    if x.value == 0:
        raise ValueError("0 is not in the multiplicative group")
    return gcd(x.spec.log[x.value], x.spec.q - 1) == 1


def primitive_elements(spec: FieldSpec) -> list[FieldElement]:
    """The generators g^i with gcd(i, q - 1) = 1, in encoding order."""
    n = spec.q - 1
    gens = sorted(x for i, x in enumerate(spec.exp) if gcd(i, n) == 1)
    return [spec.element(x) for x in gens]


class FieldPoly:
    """Polynomial over a FieldSpec, little-endian coefficient encodings with
    trailing zeros trimmed.  A list of plain ints in [0, q) is taken in one
    C-level pass; any other coefficient goes through spec.encoding, which
    accepts elements of the field and refuses the rest."""

    def __init__(self, spec: FieldSpec, coeffs):
        self.spec = spec
        vals = list(coeffs)
        plain = {int}.issuperset(map(type, vals)) and (not vals or 0 <= min(vals) and max(vals) < spec.q)
        if not plain:
            vals = [spec.encoding(c) for c in vals]
        while vals and vals[-1] == 0:
            vals.pop()
        self.coeffs = tuple(vals)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __eq__(self, other):
        return (
            isinstance(other, FieldPoly)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        return f"FieldPoly({self.spec!r}, {list(self.coeffs)})"

    @cached_property
    def _values(self) -> tuple[int, ...]:
        """The value table, computed on first use (poly_values).

        For x = g^j, x^e = g^(j (e mod (q - 1))) when e >= 1, so folding c_e
        into slot e mod (q - 1) (and c_0 into slot 0) makes f(g^j) the
        transform's X_j; f(0) = c_0.  Exponents below q - 1 fill their own
        slot, so only those from q - 1 on are folded."""
        spec = self.spec
        n = spec.q - 1
        coeffs = self.coeffs or (0,)
        slots = list(coeffs[:n])
        slots += [0] * (n - len(slots))
        for e in range(n, len(coeffs)):
            if coeffs[e]:
                slots[e % n] = spec.add(slots[e % n], coeffs[e])
        out = [coeffs[0]] * spec.q
        for x, v in zip(spec.exp, spec.transform(slots)):
            out[x] = v
        return tuple(out)


def poly_eval(f: FieldPoly, x) -> FieldElement:
    """Horner evaluation."""
    spec = f.spec
    xv = spec.encoding(x)
    acc = 0
    for c in reversed(f.coeffs):
        acc = spec.add(spec.mul(acc, xv), c)
    return FieldElement(spec, acc)


def poly_values(f: FieldPoly) -> list[int]:
    """Value encodings of f at all q points, in encoding order.  The table is
    computed once per polynomial (FieldPoly._values) and copied out on each
    call."""
    return list(f._values)


def poly_table(f: FieldPoly) -> FunctionTable:
    """FunctionTable of f over the whole field, labels = value encodings."""
    return FunctionTable(f.spec.q, tuple(poly_values(f)))


def interpolate(table: FunctionTable, spec: FieldSpec) -> FieldPoly:
    """Unique reduced polynomial with the given value table, by inverting
    poly_values' transform.

    For x = g^l, f(g^l) = sum_(j < q-1) b_j g^(jl) with b_0 = c_0 + c_(q-1)
    and b_j = c_j otherwise.  Since (q - 1)^-1 = -1 in GF(q), the inverse
    transform is b_j = -X_((-j) mod (q - 1)) for the transform X of the
    values at g^0 .. g^(q-2); c_0 = f(0) and c_(q-1) = b_0 - c_0."""
    q = spec.q
    if table.domain_size != q:
        raise ValueError(f"table must cover all {q} field elements")
    if any(v >= q for v in table.values):
        raise ValueError("table labels must be field-element encodings")
    values, n = table.values, q - 1
    t = spec.transform([values[x] for x in spec.exp])
    b = [spec.neg(t[-j % n]) for j in range(n)]
    return FieldPoly(spec, [values[0], *b[1:], spec.sub(b[0], values[0])])
