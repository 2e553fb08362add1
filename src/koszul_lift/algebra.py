"""Graded polynomial algebra over an exact field.

The ambient ring is P = k[x_1..x_n] with the standard grading.  A
``GradedRing`` fixes a monomial ideal J (so Q = P/J keeps a monomial
k-basis in every degree) and a homogeneous sequence f_1..f_c inside Q.
Polynomials are stored as J-reduced representatives in P; arithmetic that
must land back in Q goes through ``GradedRing.normal_form`` or
``GradedRing.mul``.  R = Q/(f) has no monomial basis in general;
``GradedRing.quotient_basis`` gives each R_d a basis of monomials of Q_d
and, as ints, one ``den`` times the normal form of every monomial in it.

``PolyMatrix`` is sparse: each row is a ``{column: Poly}`` dict of the
nonzero entries only, and no stored entry is zero.  Products walk those
nonzeros; ``matrix_from_json`` reads JSON text straight into the row
dicts and ``matrix_to_json`` writes them back.  Polynomial columns have one
format, the nonzero ``(row, Poly)`` pairs of ``column_nonzeros``.  Two
coordinate builders take such columns and give a module map's k-matrix on
degree-d pieces as sparse columns {row: value}: ``graded_columns`` in the
monomial bases of Q, and ``quotient_columns`` for the map read over R, in
the bases of ``GradedRing.quotient_basis`` (over Q its integer columns are
the rational ones up to a nonzero scalar each; ``quotient_sums`` is its
loop, before the zero cells go).  ``coords_to_columns`` turns coordinate
vectors on either kind of basis back into such columns.  One dense view,
``dense_rows``, turns sparse columns into list rows for the eliminations
that still take them: ``graded_matrix_rows`` for
``linalg.rank`` in ``homology_dims`` over Q and ``linalg.rref`` in
``solve_graded_linear``, and the sums of ``quotient_sums`` for
``linalg.rank`` in ``homology_dims`` over R.

Both builders read multiplication by a monomial m0 from the ring's shift
tables (``GradedRing.shift_table`` and ``GradedRing.quotient_shift_table``),
so each term of an entry costs one tuple lookup per cell.  The ring caches
one table per distinct (m0, degree) pair it is asked for, so that cache
grows with the monomials and degrees a ring sees.

Matrix arithmetic is one function, ``product_sum``, a signed sum of
products (``PolyMatrix.mul`` is its one-term case): it adds all the term
products of an output cell into integer dicts {key: coefficient} and
reduces them (mod p, and mod J) once, when the cell's Poly is built, so no
partial product or sum is ever built.  Each entry's terms are read once,
as the product form cached on the immutable Poly, with each monomial
packed into one int key (``pack_monomial``), so a product's key is one int
addition.  Over Q it multiplies integer numerators, and only the surviving
monomials of a cell become Fractions, one per monomial.

Monomials are exponent tuples.  The canonical monomial order is total
degree first, then plain tuple comparison; bases and printed terms are
listed in descending order under it.
"""

from __future__ import annotations

import operator
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import InvalidInputError, KoszulLiftError, ParseError
from .fields import Field, field_from_spec
from . import _kernel, linalg

Monomial = tuple[int, ...]

# Longest regular sequence f_1..f_c accepted anywhere (2^c Koszul subsets).
MAX_C = 16


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_key(m: Monomial):
    return (sum(m), m)


# Exponents of a product factor lie below 2^31, so the sum of two packed
# 32-bit fields never carries into the next one.
EXPONENT_LIMIT = 1 << 31
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def pack_monomial(m: Monomial, nvars: int) -> int:
    """The exponents of ``m`` as one int, 32 bits each, the last variable
    lowest.  A monomial without ``nvars`` exponents, or an exponent outside
    0..2^31 - 1, is an InvalidInputError."""
    if len(m) != nvars:
        raise InvalidInputError(f"monomial {m} does not have {nvars} exponents")
    key = 0
    for e in m:
        if not 0 <= e < EXPONENT_LIMIT:
            raise InvalidInputError(
                f"exponent {e} of monomial {m} lies outside 0..2^31 - 1"
            )
        key = key << _FIELD_BITS | e
    return key


class _ProductMonomials(dict):
    """``GradedRing``'s map from the key of a product monomial (a sum of
    two ``pack_monomial`` keys) to its exponent tuple, or to None when the
    monomial lies in J.  An entry is made on the key's first lookup."""

    def __init__(self, nvars: int, relations):
        super().__init__()
        self.shifts = tuple(range(_FIELD_BITS * (nvars - 1), -1, -_FIELD_BITS))
        self.relations = relations

    def __missing__(self, key: int):
        m = tuple(key >> s & _FIELD_MASK for s in self.shifts)
        if any(mono_divides(g, m) for g in self.relations):
            m = None
        self[key] = m
        return m


def _monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, in descending lex order."""
    if nvars == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, d - e):
            yield (e,) + rest


class Poly:
    """Element of P (a J-reduced representative when produced by a ring op).

    ``terms`` maps exponent tuples to nonzero field elements.  A Poly is
    immutable: neither ``terms`` nor the dict it names changes after the
    Poly is built, and every operation returns a new Poly.  ``_of`` keeps
    the dict it is handed, so its caller must not change that dict later.
    The product form that ``_product_form`` caches relies on this.  A Poly
    that enters ``product_sum`` must have every exponent in 0..2^31 - 1,
    as its product form packs each exponent into 32 bits.
    The constructor checks and coerces outside input: a monomial that is
    not a tuple of ``ring.nvars`` non-negative int exponents is an
    InvalidInputError naming it.  Library code that already holds nonzero
    field elements on valid monomials uses ``Poly._of``, which checks
    nothing.
    """

    __slots__ = ("ring", "terms", "_form")

    def __init__(self, ring: "GradedRing", terms: Mapping[Monomial, object]):
        field = ring.field
        nvars = ring.nvars
        clean = {}
        for m, c in terms.items():
            if type(m) is not tuple or len(m) != nvars or any(
                type(e) is not int or e < 0 for e in m
            ):
                raise InvalidInputError(
                    f"monomial {m!r} is not a tuple of {nvars} non-negative int exponents"
                )
            c = field(c)
            if c:
                clean[m] = c
        self.ring = ring
        self.terms = clean
        self._form = None

    @staticmethod
    def _of(ring: "GradedRing", terms: dict) -> "Poly":
        """The Poly on ``terms`` as given, neither copied nor coerced: every
        value must already be a nonzero element of ``ring.field``."""
        out = Poly.__new__(Poly)
        out.ring, out.terms, out._form = ring, terms, None
        return out

    def _product_form(self) -> tuple:
        """``(den, ((key, coeff), ...))``, the terms as ``product_sum``
        multiplies them, in the order of ``terms``.  ``key`` packs the
        exponent tuple 32 bits per variable (``pack_monomial``), so the key
        of a product of two monomials is the sum of their keys.  Over F_p
        ``den`` is 1 and ``coeff`` the field's int; over Q ``den`` is the
        lcm of the denominators and ``coeff`` the int ``c * den``.  Built on
        the first call and kept; a monomial that ``pack_monomial`` cannot
        pack is an InvalidInputError."""
        form = self._form
        if form is None:
            ring = self.ring
            coeffs = dict(self.terms)
            den = 1 if ring.field.char else _kernel.clear_denominators(coeffs)
            form = self._form = (
                den,
                tuple((pack_monomial(m, ring.nvars), c) for m, c in coeffs.items()),
            )
        return form

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def degree(self):
        """Common degree of all terms; None when zero or inhomogeneous."""
        degrees = {sum(m) for m in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    # -- ring operations in P (no J reduction) ----------------------------

    def _same_ring(self, other: "Poly") -> bool:
        return self.ring is other.ring or (
            self.ring._signature() == other.ring._signature()
        )

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        assert self._same_ring(other)
        field = self.ring.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = field.add(terms.get(m, field.zero), c)
            if not s:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Poly._of(self.ring, terms)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Poly._of(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        field = self.ring.field
        if isinstance(other, Poly):
            assert self._same_ring(other)
            terms: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    s = field.add(terms.get(m, field.zero), field.mul(c1, c2))
                    if not s:
                        terms.pop(m, None)
                    else:
                        terms[m] = s
            return Poly._of(self.ring, terms)
        # scalar on the right
        c0 = field(other)
        if not c0:
            return self.ring.zero
        return Poly._of(self.ring, {m: field.mul(c, c0) for m, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self._same_ring(other)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"


def format_poly(p: Poly) -> str:
    """Render in the text grammar, terms in descending canonical order.  A
    coefficient too long for ``str`` is a KoszulLiftError naming the limit."""
    if not p.terms:
        return "0"
    ring = p.ring
    field = ring.field
    pieces = []
    for m in sorted(p.terms, key=mono_key, reverse=True):
        c = p.terms[m]
        negative = field.char == 0 and c < 0
        mag = -c if negative else c
        if any(m) and mag == field.one:
            body = ring.format_monomial(m)
        else:
            try:
                body = str(mag)
            except ValueError as exc:  # past Python's int-to-text digit limit
                raise KoszulLiftError(
                    "cannot write a coefficient with more digits than Python's "
                    f"limit of {sys.get_int_max_str_digits()} for integer string "
                    "conversion (sys.set_int_max_str_digits)"
                ) from exc
            if any(m):
                body += "*" + ring.format_monomial(m)
        pieces.append(("-" if negative else "+", body))
    sign0, body0 = pieces[0]
    text = ("-" if sign0 == "-" else "") + body0
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


_NUM_RE = re.compile(r"^\d+(/\d+)?$")
_SIGN_RE = re.compile(r"([+-])")
_VAR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?$")


def _parse_term(ring: "GradedRing", var_index, chunk: str, text: str):
    """One unsigned term ``chunk`` of ``text``: a '*'-separated product of
    integer-or-a/b numbers and variable powers ``x^k``.  Returns the
    numbers' product (None when there is none) and the exponent tuple."""
    field = ring.field
    number = None
    expts = [0] * ring.nvars
    for part in chunk.split("*"):
        if not part:
            raise ParseError(f"empty factor in {text!r}")
        if _NUM_RE.match(part):
            value = field(part)
            number = value if number is None else field.mul(number, value)
            continue
        mvar = _VAR_RE.match(part)
        if not mvar:
            raise ParseError(f"bad factor {part!r} in {text!r}")
        name, exp = mvar.group(1), mvar.group(2)
        if name not in var_index:
            raise ParseError(f"unknown variable {name!r}; ring has {ring.variables}")
        expts[var_index[name]] += 1 if exp is None else int(exp)
    return number, tuple(expts)


def parse_poly(ring: "GradedRing", text: str) -> Poly:
    """Parse the grammar ``term (('+'|'-') term)*`` where a term is a
    '*'-separated product of an optional integer-or-a/b coefficient and
    variable powers ``x^k``.  The result is J-reduced."""
    if not isinstance(text, str):
        raise ParseError(f"polynomial must be text, got {text!r}")
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise ParseError("empty polynomial text")
    # signed chunks: [sign, chunk, sign, chunk, ...]; exponents never
    # contain a sign, so every '+' and '-' is top level
    pieces = _SIGN_RE.split(compact)
    if pieces[0]:
        pieces.insert(0, "+")
    else:
        del pieces[0]
    chunks = list(zip(pieces[0::2], pieces[1::2]))
    if not all(chunk for _, chunk in chunks):
        raise ParseError(f"dangling operator in {text!r}")

    field = ring.field
    var_index = {name: k for k, name in enumerate(ring.variables)}
    terms: dict[Monomial, object] = {}
    for sgn, chunk in chunks:
        coeff = field.one if sgn == "+" else field.neg(field.one)
        number, m = _parse_term(ring, var_index, chunk, text)
        if number is not None:
            coeff = field.mul(coeff, number)
        s = field.add(terms.get(m, field.zero), coeff)
        if not s:
            terms.pop(m, None)
        else:
            terms[m] = s
    return ring.normal_form(Poly._of(ring, terms))


def json_int(value, what: str) -> int:
    """An integer read from JSON: an int or an integer string.  A bool, a
    float or anything else is a ParseError naming ``what``."""
    if type(value) in (int, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


def exact_int(value, what: str) -> int:
    """``value`` if it is an int but not a bool, else an InvalidInputError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def matrix_from_json(ring: "GradedRing", rows, nrows: int, ncols, what: str):
    """The PolyMatrix of JSON rows of polynomial strings.  Anything but a
    list of ``nrows`` lists of ``ncols`` cells (default: as many as the
    first row) is a ParseError naming ``what``.  The canonical ``"0"`` that
    ``matrix_to_json`` writes is skipped unparsed, and any other cell that
    parses to zero is dropped, so the rows go straight to sparse form.  A
    cell that is not polynomial text is a ParseError naming ``what`` and
    the cell."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{what} must be a list of rows")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ParseError(f"{what} must be {nrows} rows of {ncols} entries")
    sparse = []
    try:
        for i, row in enumerate(rows):
            out = {}
            for j, cell in enumerate(row):
                if cell != "0":
                    p = parse_poly(ring, cell)
                    if p.terms:
                        out[j] = p
            sparse.append(out)
    except ParseError as exc:
        raise ParseError(f"{what}, cell ({i}, {j}): {exc}") from exc
    return PolyMatrix._from_sparse(nrows, ncols, sparse, ring.zero)


def matrix_to_json(mat: "PolyMatrix") -> list:
    """JSON rows of polynomial strings, ``"0"`` for an absent cell: the
    inverse of ``matrix_from_json``."""
    out = []
    for row in mat._rows:
        cells = ["0"] * mat.ncols
        for j, p in row.items():
            cells[j] = str(p)
        out.append(cells)
    return out


class GradedRing:
    """Q = k[x_1..x_n]/J together with a homogeneous sequence f_1..f_c.

    J must be a monomial ideal, given by generator monomials; each f_i must
    be homogeneous of degree >= 1 and nonzero in Q.  Whether the sequence is
    actually regular is a separate check (see ``koszul.check_regular_up_to``).
    """

    def __init__(
        self,
        field: Field,
        variables: Iterable[str],
        relations: Iterable = (),
        sequence: Iterable = (),
    ):
        if not isinstance(field, Field):
            raise InvalidInputError(f"field must be QQ or GF(p), got {field!r}")
        self.field = field
        self.variables = tuple(variables)
        if not self.variables:
            raise InvalidInputError("need at least one variable")
        seen = set()
        for name in self.variables:
            if not isinstance(name, str) or not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", name):
                raise InvalidInputError(f"bad variable name {name!r}")
            if name in seen:
                raise InvalidInputError(f"duplicate variable {name!r}")
            seen.add(name)
        self.nvars = len(self.variables)
        self.zero = Poly._of(self, {})
        self.one = Poly._of(self, {(0,) * self.nvars: field.one})

        self.relations = self._canonical_relations(relations)
        self._nf_zero_cache: dict[Monomial, bool] = {}
        self._product_monomials = _ProductMonomials(self.nvars, self.relations)
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}
        self._basis_index_cache: dict[int, dict[Monomial, int]] = {}
        self._quotient_cache: dict[int, tuple] = {}
        self._shift_cache: dict[tuple, tuple] = {}
        self._quotient_shift_cache: dict[tuple, tuple] = {}

        if isinstance(sequence, Mapping) or not isinstance(sequence, Iterable):
            raise InvalidInputError(f"sequence must be a list of polynomials, got {sequence!r}")
        seq = []
        for f in sequence:
            if isinstance(f, str):
                f = parse_poly(self, f)
            elif isinstance(f, Poly):
                f = self.normal_form(Poly(self, f.terms))
            else:
                raise InvalidInputError(
                    f"sequence entry must be a polynomial string or a Poly, got {f!r}"
                )
            d = f.degree()
            if d is None or d < 1:
                raise InvalidInputError(
                    "sequence entries must be homogeneous of degree >= 1 "
                    f"and nonzero in Q; got {f}"
                )
            seq.append(f)
        self.sequence = tuple(seq)
        if len(self.sequence) > MAX_C:
            raise InvalidInputError(
                f"sequence length {len(self.sequence)} exceeds {MAX_C}"
            )
        self.seq_degrees = tuple(f.degree() for f in self.sequence)

    def _canonical_relations(self, relations) -> tuple[Monomial, ...]:
        monos = []
        for r in relations:
            if isinstance(r, str):
                m = self._parse_monomial(r)
            elif isinstance(r, Sequence):
                m = tuple(exact_int(e, "relation exponent") for e in r)
            else:
                raise InvalidInputError(
                    "relation must be a monomial string or a sequence of "
                    f"exponents, got {r!r}"
                )
            if len(m) != self.nvars or any(e < 0 for e in m):
                raise InvalidInputError(f"bad relation exponents {m}")
            if sum(m) < 1:
                raise InvalidInputError("relation generators must have degree >= 1")
            monos.append(m)
        # prune generators divisible by another generator
        monos = sorted(set(monos), key=mono_key)
        kept: list[Monomial] = []
        for m in monos:
            if not any(mono_divides(g, m) for g in kept):
                kept.append(m)
        return tuple(kept)

    def _parse_monomial(self, text: str) -> Monomial:
        # parse without J reduction: a relation generator is a bare
        # monomial, a term with no number in it
        var_index = {name: k for k, name in enumerate(self.variables)}
        try:
            number, m = _parse_term(self, var_index, text.replace(" ", ""), text)
            if number is None:
                return m
        except ParseError:
            pass
        raise ParseError(f"bad monomial {text!r}")

    # -- structure ---------------------------------------------------------

    @property
    def c(self) -> int:
        return len(self.sequence)

    def _signature(self):
        return (
            self.field.to_spec(),
            self.variables,
            self.relations,
            tuple(
                tuple(sorted(f.terms.items())) for f in getattr(self, "sequence", ())
            ),
        )

    def __eq__(self, other):
        return isinstance(other, GradedRing) and (
            self._signature() == other._signature()
        )

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        rel = ", ".join(self.format_monomial(m) for m in self.relations)
        seq = ", ".join(str(f) for f in self.sequence)
        return (
            f"GradedRing({self.field!r}, vars=({', '.join(self.variables)}), "
            f"J=({rel}), f=({seq}))"
        )

    def format_monomial(self, m: Monomial) -> str:
        factors = []
        for name, e in zip(self.variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors) if factors else "1"

    # -- element constructors ----------------------------------------------
    # ``zero`` and ``one`` are attributes, built once in ``__init__``.

    def parse(self, text: str) -> Poly:
        return parse_poly(self, text)

    # -- Q arithmetic --------------------------------------------------------

    def _mono_is_zero_in_q(self, m: Monomial) -> bool:
        flag = self._nf_zero_cache.get(m)
        if flag is None:
            flag = any(mono_divides(g, m) for g in self.relations)
            self._nf_zero_cache[m] = flag
        return flag

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative in Q: delete J-divisible monomials."""
        if not self.relations:
            return p if p.ring is self else Poly._of(self, p.terms)
        terms = {
            m: c for m, c in p.terms.items() if not self._mono_is_zero_in_q(m)
        }
        if len(terms) == len(p.terms) and p.ring is self:
            return p
        return Poly._of(self, terms)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.normal_form(a * b)

    # -- graded pieces -------------------------------------------------------

    def monomial_basis(self, d: int) -> tuple[Monomial, ...]:
        """Monomials of degree d surviving in Q, descending canonical order."""
        if d < 0:
            return ()
        basis = self._basis_cache.get(d)
        if basis is None:
            basis = tuple(
                m
                for m in _monomials_of_degree(self.nvars, d)
                if not self._mono_is_zero_in_q(m)
            )
            self._basis_cache[d] = basis
        return basis

    def basis_index(self, d: int) -> dict[Monomial, int]:
        index = self._basis_index_cache.get(d)
        if index is None:
            index = {m: i for i, m in enumerate(self.monomial_basis(d))}
            self._basis_index_cache[d] = index
        return index

    def dim(self, d: int) -> int:
        return len(self.monomial_basis(d))

    def sequence_span_columns(self, d: int) -> list:
        """Dense coordinate columns spanning (f_1..f_c)_d inside Q_d.  No
        library code calls this; perfbench/tracing.py looks it up by name."""
        return list(zip(*graded_matrix_rows(self, *span_map(self, (0,)), (0,), d)))

    def quotient_basis(self, d: int) -> tuple:
        """A basis of the degree-d piece of R = Q/(f), and normal forms in it.

        The generators of (f)_d, the columns of W_d (``graded_columns`` of
        ``span_map``), are brought to reduced row echelon form once, with
        columns in ``monomial_basis(d)`` order.  The monomials that are not
        pivots form a basis of R_d (the Macaulay-matrix normal form;
        Macaulay 1916, Lazard 1983).  Returns ``(basis, forms, den)``:
        ``basis`` lists those monomials in ``monomial_basis(d)`` order, and
        ``forms`` maps every monomial of Q_d to ``den`` times its class in
        R_d, a sparse dict {index into ``basis``: nonzero int}.  Over F_p
        ``den`` is 1; over Q it is the lcm of the leads of the primitive
        integer rows of ``_kernel.reduced_rows``, so that of the rational
        forms' denominators.  Cached per degree; do not mutate the result.
        """
        cached = self._quotient_cache.get(d)
        if cached is None:
            monos = self.monomial_basis(d)
            gens = graded_columns(self, *span_map(self, (0,)), (0,), d)
            pivots = _kernel.reduced_rows(gens, self.field.char)
            basis = tuple(m for i, m in enumerate(monos) if i not in pivots)
            index = {m: k for k, m in enumerate(basis)}
            den = lcm(*[row[i] for i, row in pivots.items()])  # 1 over F_p
            neg = self.field.neg
            forms = {}
            for i, m in enumerate(monos):
                row = pivots.get(i)
                if row is None:
                    forms[m] = {index[m]: den}
                else:
                    # m = (m - row / lead) modulo (f)_d, which lies on the basis
                    scale = den // row[i]
                    forms[m] = {index[monos[k]]: neg(v) * scale for k, v in row.items() if k != i}
            cached = self._quotient_cache[d] = (basis, forms, den)
        return cached

    # -- shift tables ----------------------------------------------------------
    # Multiplication by a monomial m0 on the degree-e piece, read by the
    # coordinate builders once per term of an entry.  Each cache keeps one
    # table per distinct (m0, e) asked for, as long as the ring lives.

    def shift_table(self, m0: Monomial, e: int) -> tuple:
        """For each monomial mu of ``monomial_basis(e)``, the index of
        m0 * mu in ``basis_index(e + |m0|)``, or -1 when m0 * mu lies in J."""
        key = (m0, e)
        table = self._shift_cache.get(key)
        if table is None:
            get = self.basis_index(e + sum(m0)).get
            table = tuple(get(mono_mul(m0, mu), -1) for mu in self.monomial_basis(e))
            self._shift_cache[key] = table
        return table

    def quotient_shift_table(self, m0: Monomial, e: int) -> tuple:
        """For each monomial mu of ``quotient_basis(e)[0]``, the integer form
        of m0 * mu in R_{e + |m0|}, a dict of ``quotient_basis(e + |m0|)[1]``,
        or None when m0 * mu lies in J."""
        key = (m0, e)
        table = self._quotient_shift_cache.get(key)
        if table is None:
            get = self.quotient_basis(e + sum(m0))[1].get
            table = tuple(get(mono_mul(m0, mu)) for mu in self.quotient_basis(e)[0])
            self._quotient_shift_cache[key] = table
        return table

    def in_sequence_ideal(self, p: Poly) -> bool:
        """Membership of p (taken mod J) in the ideal (f_1..f_c) of Q: every
        homogeneous part of p has normal form zero in R.  Sums plain ints:
        p's coefficients, scaled to ints, times the forms of ``quotient_basis``."""
        char = self.field.char
        terms = dict(self.normal_form(p).terms)
        _kernel.clear_denominators(terms)  # 1 over F_p, whose elements are ints
        acc: dict = {}
        for m, c in terms.items():
            d = sum(m)
            for k, v in self.quotient_basis(d)[1][m].items():
                acc[d, k] = acc.get((d, k), 0) + c * v
        return not any(v % char for v in acc.values()) if char else not any(acc.values())

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.to_spec(),
            "variables": list(self.variables),
            "relations": [self.format_monomial(m) for m in self.relations],
            "sequence": [str(f) for f in self.sequence],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GradedRing":
        if not isinstance(data, dict):
            raise ParseError("ring JSON must be an object")
        try:
            field = field_from_spec(data["field"])
            variables = data["variables"]
            relations = data.get("relations", [])
            sequence = data.get("sequence", [])
        except KeyError as exc:
            raise ParseError(f"ring JSON missing key {exc}") from exc
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ParseError("ring JSON variables must be a list of strings")
        if not isinstance(relations, list) or not all(
            isinstance(r, str)
            or (isinstance(r, list) and all(type(e) is int and e >= 0 for e in r))
            for r in relations
        ):
            raise ParseError(
                "ring JSON relations must be a list of monomial strings or "
                "lists of non-negative exponents"
            )
        if not isinstance(sequence, list) or not all(isinstance(f, str) for f in sequence):
            raise ParseError("ring JSON sequence must be a list of polynomial strings")
        return cls(field, variables, relations, sequence)


class PolyMatrix:
    """Immutable sparse matrix of polynomials with an explicit shape, so that
    rank-zero blocks survive composition.

    Each row is one ``{column: Poly}`` dict holding only the nonzero
    entries: no stored entry is zero, and ``entry(i, j)`` gives the ring's
    zero for an absent cell.  Every operation walks the stored nonzeros, so
    it costs their number rather than ``nrows * ncols``.  The constructor
    and ``from_rows`` take dense rows from outside callers; operations, and
    ``matrix_from_json``, build their results through ``_from_sparse``, and
    ``matrix_to_json`` writes the row dicts.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_zero", "_dense")

    def __init__(self, nrows: int, ncols: int, rows):
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(
                f"shape mismatch: declared {nrows}x{ncols}, got "
                f"{len(rows)} rows"
            )
        self.nrows = nrows
        self.ncols = ncols
        self._rows = tuple(
            {j: p for j, p in enumerate(row) if p.terms} for row in rows
        )
        self._zero = rows[0][0].ring.zero if nrows and ncols else None
        self._dense = None

    @classmethod
    def _from_sparse(cls, nrows: int, ncols: int, rows, zero: Poly) -> "PolyMatrix":
        """The matrix whose row i holds the nonzero entries ``rows[i]``, a
        ``{column: Poly}`` dict with no zero value.  The dicts are kept, not
        copied, and must not be changed afterwards."""
        out = object.__new__(cls)
        out.nrows = nrows
        out.ncols = ncols
        out._rows = tuple(rows)
        out._zero = zero
        out._dense = None
        return out

    @staticmethod
    def zeros(ring: GradedRing, nrows: int, ncols: int) -> "PolyMatrix":
        return PolyMatrix._from_sparse(
            nrows, ncols, [{} for _ in range(nrows)], ring.zero
        )

    @staticmethod
    def from_rows(rows, ncols=None) -> "PolyMatrix":
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return PolyMatrix(len(rows), ncols, rows)

    @property
    def rows(self) -> tuple:
        """Dense read-only view: a tuple of row tuples, zeros included.
        Built on first read and cached.  No library code reads it; it stays
        because the benchmark's ``perfbench/tracing._count_polymul`` does."""
        if self._dense is None:
            dense = []
            for row in self._rows:
                cells = [self._zero] * self.ncols
                for j, p in row.items():
                    cells[j] = p
                dense.append(tuple(cells))
            self._dense = tuple(dense)
        return self._dense

    def entry(self, i: int, j: int) -> Poly:
        return self._rows[i].get(range(self.ncols)[j], self._zero)

    def nonzeros(self):
        """The nonzero cells as ``(i, j, entry)``, row-major."""
        for i, row in enumerate(self._rows):
            for j in sorted(row):
                yield i, j, row[j]

    def column_nonzeros(self) -> list:
        """For each column, its nonzero cells as ``(i, entry)`` pairs in
        increasing row order."""
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, p in row.items():
                cols[j].append((i, p))
        return cols

    def is_zero(self) -> bool:
        return not any(self._rows)

    def mul(self, other: "PolyMatrix", ring: GradedRing) -> "PolyMatrix":
        """Matrix product with J-reduction of every entry: ``product_sum``
        of the one triple ``(1, self, other)``."""
        return product_sum(ring, [(1, self, other)])

    def map_entries(self, fn) -> "PolyMatrix":
        """Apply ``fn`` to every nonzero entry and drop the zero results.
        Zero cells are not visited, so ``fn`` must send 0 to 0."""
        out = []
        for row in self._rows:
            out_row = {}
            for j, p in row.items():
                q = fn(p)
                if q.terms:
                    out_row[j] = q
            out.append(out_row)
        return PolyMatrix._from_sparse(self.nrows, self.ncols, out, self._zero)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash(
            (self.nrows, self.ncols, tuple(frozenset(r.items()) for r in self._rows))
        )

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"


def product_sum(ring: GradedRing, products) -> PolyMatrix:
    """The sum of ``sign * a * b`` over the triples ``(sign, a, b)`` of the
    nonempty list ``products``, sign 1 or -1, J-reduced, in the shape of
    the first product; any other sign or shape is a ValueError.

    Each factor entry is read in its cached product form ``(den, ((key,
    coeff), ...))`` (``Poly._product_form``): over F_p the coefficients are
    the field's ints and ``den`` is 1, over Q they are integer numerators
    over the lcm ``den`` of the denominators.  Entry ``(i, j)`` adds every
    product of a term of ``a[i][k]`` (its terms negated once when sign is
    -1) and a term of ``b[k][j]``, over all the triples, into integer dicts
    {key: coefficient}, one per denominator ``den_a * den_b``: a product
    monomial's key is the sum of its factors' keys.  Only when the entry's
    Poly is built are the coefficients reduced mod p, or made into one
    normalized Fraction per monomial (several denominators are summed
    exactly first), and the keys read back through the ring's map of
    product keys, which also drops the monomials in J; an empty entry is
    dropped.  The monomials of an entry keep the order of their first
    products.  A factor monomial without ``ring.nvars`` exponents, or with
    one outside 0..2^31 - 1, is an InvalidInputError.
    """
    nrows, ncols = products[0][1].nrows, products[0][2].ncols
    factors = []
    for sign, a, b in products:
        if a.ncols != b.nrows:
            raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
        if (a.nrows, b.ncols) != (nrows, ncols) or sign not in (1, -1):
            raise ValueError(
                f"cannot add {sign!r} times a {a.nrows}x{b.ncols} product "
                f"to a {nrows}x{ncols} sum"
            )
        factors.append((sign < 0, a._rows, b._rows))
    sum_rows = _sum_rows_mod_p if ring.field.char else _sum_rows_qq
    return PolyMatrix._from_sparse(nrows, ncols, sum_rows(ring, factors, nrows), ring.zero)


def _sum_rows_mod_p(ring: GradedRing, factors, nrows: int) -> list:
    """``product_sum``'s row dicts over F_p."""
    char = ring.field.char
    monomials = ring._product_monomials
    out = []
    for i in range(nrows):
        acc = {}
        for negate, left, right in factors:
            for k, a in left[i].items():
                a_terms = a._product_form()[1]
                if negate:
                    a_terms = [(m, -c) for m, c in a_terms]
                for j, b in right[k].items():
                    cell = acc.get(j)
                    if cell is None:
                        cell = acc[j] = {}
                    b_terms = (b._form or b._product_form())[1]
                    for m1, c1 in a_terms:
                        for m2, c2 in b_terms:
                            m = m1 + m2
                            cell[m] = cell.get(m, 0) + c1 * c2
        out_row = {}
        for j, cell in acc.items():
            terms = {}
            for key, c in cell.items():
                c %= char
                if c:
                    m = monomials[key]
                    if m is not None:
                        terms[m] = c
            if terms:
                out_row[j] = Poly._of(ring, terms)
        out.append(out_row)
    return out


def _sum_rows_qq(ring: GradedRing, factors, nrows: int) -> list:
    """``product_sum``'s row dicts over Q, on integer numerators."""
    monomials = ring._product_monomials
    out = []
    for i in range(nrows):
        acc = {}  # column -> {denominator: {key: numerator}}
        for negate, left, right in factors:
            for k, a in left[i].items():
                den_a, a_terms = a._product_form()
                if negate:
                    a_terms = [(m, -n) for m, n in a_terms]
                for j, b in right[k].items():
                    den_b, b_terms = b._form or b._product_form()
                    cell = acc.get(j)
                    if cell is None:
                        cell = acc[j] = {}
                    den = den_a * den_b
                    bucket = cell.get(den)
                    if bucket is None:
                        bucket = cell[den] = {}
                    for m1, n1 in a_terms:
                        for m2, n2 in b_terms:
                            m = m1 + m2
                            bucket[m] = bucket.get(m, 0) + n1 * n2
        out_row = {}
        for j, cell in acc.items():
            if len(cell) == 1:
                [(den, bucket)] = cell.items()
            else:
                den = lcm(*cell)
                bucket = {}
                for d, part in cell.items():
                    scale = den // d
                    for m, n in part.items():
                        bucket[m] = bucket.get(m, 0) + n * scale
            terms = {}
            for key, n in bucket.items():
                if n:
                    m = monomials[key]
                    if m is not None:
                        terms[m] = Fraction(n, den) if den != 1 else Fraction(n)
            if terms:
                out_row[j] = Poly._of(ring, terms)
        out.append(out_row)
    return out


# -- graded coordinates ----------------------------------------------------------


def module_dim(ring: GradedRing, twists, d: int) -> int:
    return sum(ring.dim(d - a) for a in twists)


def span_map(ring: GradedRing, twists):
    """The map F tensor K_1 -> F of the Koszul complex on f, whose image is
    (f) * F, for the free module F with the given twists.

    Returns its columns, in the ``(row, entry)`` format of
    ``PolyMatrix.column_nonzeros``, and their source twists: column (j, i),
    taken generator-major, holds f_i in row j and has twist
    ``twists[j] + deg f_i``.
    """
    columns = [[(j, f)] for j in range(len(twists)) for f in ring.sequence]
    src = tuple(a + e for a in twists for e in ring.seq_degrees)
    return columns, src


def _column_terms(column, j: int, a: int, targets):
    """``(row offset, monomial, coefficient)`` of every term of ``column``,
    the source column j of twist a, entry by entry and term by term.
    ``targets[i]`` is the row offset (or any key of the block that the
    caller reads back) and twist of target block i.  A term
    whose degree is not ``a`` minus that twist is an InvalidInputError
    naming its entry, as the map would not be of degree 0."""
    for i, p in column:
        r0, b = targets[i]
        for m0, c0 in p.terms.items():
            if sum(m0) != a - b:
                raise InvalidInputError(
                    f"entry ({i}, {j}) = {p} is not homogeneous of degree {a - b}"
                )
            yield r0, m0, c0


def graded_columns(ring: GradedRing, columns, src_twists, tgt_twists, d: int):
    """The k-linear matrix of a degree-0 module map on degree-d pieces, as
    sparse columns {row: nonzero}.

    ``columns[j]`` holds the nonzero entries of the image of the generator
    of degree ``src_twists[j]``, as ``(row, Poly)`` pairs.  Rows follow the
    generator-major monomial basis of the degree-d piece of the target
    (generator index, then monomial in descending order); there is one
    column per element of that basis of the source.  Each term m0 of an
    entry writes one cell per such column through ``GradedRing.shift_table``
    and each cell is written at most once: distinct entries of a column lie
    in distinct row blocks, and distinct terms of an entry times one
    monomial stay distinct.  A column dict is filled entry by entry and
    term by term.
    """
    targets = []
    nrows = 0
    for b in tgt_twists:
        targets.append((nrows, b))
        nrows += ring.dim(d - b)
    out = []
    for j, a in enumerate(src_twists):
        cols = [{} for _ in ring.monomial_basis(d - a)]
        for r0, m0, c0 in _column_terms(columns[j], j, a, targets):
            if cols:
                for col, r in zip(cols, ring.shift_table(m0, d - a)):
                    if r >= 0:
                        col[r0 + r] = c0
        out += cols
    return out


def dense_rows(cols, nrows: int) -> list:
    """The sparse columns ``cols`` {row: value} of a matrix with ``nrows``
    rows as dense list rows, for the eliminations that take list rows.
    Empty cells hold the int 0 over either field, which the scan into dict
    rows skips without a call into ``Fraction``."""
    rows = [[0] * len(cols) for _ in range(nrows)]
    for k, col in enumerate(cols):
        for r, v in col.items():
            rows[r][k] = v
    return rows


def graded_matrix_rows(ring: GradedRing, columns, src_twists, tgt_twists, d: int):
    """``graded_columns`` as dense list rows, for the eliminations that
    take list rows: ``linalg.rank`` in ``complexes.homology_dims`` and
    ``linalg.rref`` in ``solve_graded_linear``.  They stay dense because
    ``perfbench/tracing.py`` counts the cells of ``rank``'s rows and reads
    the array that ``rref`` builds over F_p; see ``linalg``."""
    cols = graded_columns(ring, columns, src_twists, tgt_twists, d)
    return dense_rows(cols, module_dim(ring, tgt_twists, d))


def quotient_module_dim(ring: GradedRing, twists, d: int) -> int:
    """Dimension of the degree-d piece of the free R-module with the given
    twists, R = Q/(f)."""
    return sum(len(ring.quotient_basis(d - a)[0]) for a in twists)


def column_denominator(column) -> int:
    """The lcm of the coefficient denominators of the entries of a
    polynomial column over Q, given as ``(row, Poly)`` pairs; 1 when it is
    empty."""
    return lcm(*[c.denominator for _, p in column for c in p.terms.values()])


def quotient_sums(ring: GradedRing, columns, src_twists, tgt_twists, d: int):
    """The k-linear matrix on degree-d pieces of a degree-0 map, read as a
    map of free R-modules, R = Q/(f), as integer sums: ``(cols, nrows)``.

    The one R-coordinate builder.  Laid out as ``graded_columns`` from the
    same ``columns``, but over the bases of ``GradedRing.quotient_basis``:
    a column {row: integer} per basis monomial mu of R_{d-a} for each
    source twist a, on the ``nrows`` rows of R_{d-b} for the target twists
    b.  Each term m0 of an entry adds the normal form of m0 * mu to the
    entry's target block, read from ``GradedRing.quotient_shift_table``.
    The sums are left as they fall: a cell may hold 0, and over F_p it is
    not reduced mod p.  Over Q a column of source generator j is the
    rational column times ``column_denominator(columns[j])`` times the lcm
    of the ``den`` of ``GradedRing.quotient_basis`` over every target
    block, so it spans the same line.  The last factor is common to
    all columns, so a kernel vector of the sums becomes one of the rational
    matrix when each coordinate of generator j is multiplied by
    ``column_denominator(columns[j])``, which is how ``resolve`` reads its
    syzygies.  ``quotient_columns`` reduces the sums;
    ``complexes.homology_dims`` ranks their ``dense_rows``.
    """
    char = ring.field.char
    blocks = [ring.quotient_basis(d - b) for b in tgt_twists]
    top = lcm(*[den for _, _, den in blocks])
    targets = []
    nrows = 0
    for b, (basis, _, den) in zip(tgt_twists, blocks):
        # the block's scale travels with its row offset
        targets.append(((nrows, top // den), b))
        nrows += len(basis)
    out = []
    for j, a in enumerate(src_twists):
        cols = [{} for _ in ring.quotient_basis(d - a)[0]]
        if cols and not char:
            den = column_denominator(columns[j])
        for (r0, scale), m0, c0 in _column_terms(columns[j], j, a, targets):
            if cols:
                c = c0 if char else c0.numerator * (den // c0.denominator) * scale
                for col, form in zip(cols, ring.quotient_shift_table(m0, d - a)):
                    if form:  # None when m0 * mu lies in J
                        for r, v in form.items():
                            r += r0
                            col[r] = col.get(r, 0) + c * v
        out += cols
    return out, nrows


def quotient_columns(ring: GradedRing, columns, src_twists, tgt_twists, d: int):
    """``quotient_sums`` as sparse columns {row: nonzero}: mod p over F_p,
    and over Q integer columns, each the rational column times a nonzero
    integer."""
    cols, _ = quotient_sums(ring, columns, src_twists, tgt_twists, d)
    char = ring.field.char
    if char:
        return [{r: v for r, w in col.items() if (v := w % char)} for col in cols]
    return [{r: v for r, v in col.items() if v} for col in cols]


def coords_to_columns(ring: GradedRing, bases, vecs) -> list:
    """The polynomial columns of sparse coordinate vectors {index: nonzero}
    on a generator-major basis: generator j, then the monomials ``bases[j]``
    in order (``monomial_basis(d - a)`` for a degree-d piece over Q,
    ``quotient_basis(d - a)[0]`` for one over R).  Each column is its
    nonzero ``(generator, Poly)`` pairs in ascending generator order, the
    format ``graded_columns`` takes."""
    basis = [(j, m) for j, monos in enumerate(bases) for m in monos]
    out = []
    for vec in vecs:
        parts: dict = {}
        for i, c in vec.items():
            j, m = basis[i]
            parts.setdefault(j, {})[m] = c
        out.append([(j, Poly._of(ring, parts[j])) for j in sorted(parts)])
    return out


def solve_graded_linear(
    ring: GradedRing, mat: PolyMatrix, src_twists, tgt_twists, d: int, rhs: PolyMatrix
) -> list:
    """Solve ``mat * x = b`` in degree d for every column b of ``rhs``.

    ``mat`` is a degree-0 map between the free modules with the given
    twists, and each column of ``rhs`` is a degree-d element of the target.
    The k-matrix of ``[mat | rhs]`` is built and row reduced once.  Returns
    one entry per column of ``rhs``: the degree-d column x of the reduced
    row echelon solution with every free variable set to zero, as the
    nonzero ``(generator, Poly)`` pairs of ``coords_to_columns``, or None
    when b is not in the image.
    """
    field = ring.field
    src_twists = tuple(src_twists)
    columns = mat.column_nonzeros() + rhs.column_nonzeros()
    rows = graded_matrix_rows(ring, columns, src_twists + (d,) * rhs.ncols, tgt_twists, d)
    width = module_dim(ring, src_twists, d)
    red, pivots = linalg.rref(field, rows, width + rhs.ncols)
    rank = sum(1 for col in pivots if col < width)
    vecs = []
    for k in range(width, width + rhs.ncols):
        if any(red[r][k] for r in range(rank, len(pivots))):
            vecs.append(None)
        else:
            vecs.append({col: red[r][k] for r, col in enumerate(pivots[:rank]) if red[r][k]})
    bases = [ring.monomial_basis(d - a) for a in src_twists]
    cols = iter(coords_to_columns(ring, bases, [v for v in vecs if v is not None]))
    return [None if v is None else next(cols) for v in vecs]
