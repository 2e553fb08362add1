"""Systems of higher homotopies on a lifted complex.

For a lift F (over Q) of an R-complex, a homotopy family assigns to each
subset alpha of {1..c} a map t^alpha_n : F_n -> F_{n-|alpha|-1} of internal
degree -sum_{i in alpha} deg f_i, with t^{()} the differential of F, such
that for every subset gamma:

    sum over disjoint splittings gamma = alpha | beta of
        (-1)**(|beta| + inv(alpha, beta)) * t^beta o t^alpha
  + sum over i not in gamma of
        (-1)**(|gamma| + #{j in gamma : j < i}) * f_i * t^{gamma + i}
  = 0.

At gamma = () this says d o d = -sum f_i t^{e_i}; higher gamma are the
coherences.  ``solve_homotopies`` builds the family level by level: the
maps of size < L determine the pair sums, and the size-L maps enter
linearly.  At matrix entry (r, s) of entry degree e, the unknowns
t^mu[r][s] are hit by (-1)**(L-1) times the Koszul differential
K_L -> K_{L-1} on f, so the system is its degree-e strand with the
negated pair sums on the right.  One position's entries of one entry
degree share that strand and are eliminated together.  Echelon form with
free variables pinned to zero makes the result deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .algebra import PolyMatrix, json_int, matrix_from_json, matrix_to_json
from .algebra import solve_graded_linear
from .complexes import FreeComplex, homogeneity_failures
from .errors import InvalidInputError, ParseError
from .koszul import (
    index_from_json,
    index_to_json,
    insert_index,
    insertion_count,
    inversions,
    koszul_complex,
    subsets_of_size,
    validate_index,
)


class HomotopyFamily:
    """Solved homotopies up to a level: ``maps[alpha][n]`` is t^alpha_n for
    1 <= |alpha| <= level; t^{()} is read off the base complex."""

    def __init__(self, base: FreeComplex, level: int, maps):
        """Raises InvalidInputError unless the level lies in 0..c, every key
        is a nonempty subset of {1..c} no larger than the level, and every
        map has the shape the window determines at its position."""
        if base.over != "Q":
            raise InvalidInputError("homotopies live on a complex over Q")
        self.base = base
        self.ring = base.ring
        self.level = int(level)
        c = self.ring.c
        if not 0 <= self.level <= c:
            raise InvalidInputError(f"homotopy level must lie in 0..{c}, got {level}")
        self.maps = {}
        for key, positions in maps.items():
            alpha = validate_index(key, c)
            if not 0 < len(alpha) <= self.level:
                raise InvalidInputError(
                    f"index {alpha} is not a nonempty subset of size at most "
                    f"level {self.level}"
                )
            for n, mat in positions.items():
                src = base.known_rank(n)
                tgt = base.known_rank(n - len(alpha) - 1)
                if src is None or tgt is None:
                    raise InvalidInputError(f"t^{alpha} at {n} is outside the window")
                if (mat.nrows, mat.ncols) != (tgt, src):
                    raise InvalidInputError(
                        f"t^{alpha} at {n} is {mat.nrows}x{mat.ncols}, "
                        f"expected {tgt}x{src}"
                    )
            self.maps[alpha] = dict(positions)

    def map(self, alpha, n: int):
        """t^alpha at position n; implied zero matrices where a rank
        vanishes; None where the window leaves the map undetermined."""
        alpha = tuple(alpha)
        if not alpha:
            return self.base.differential(n)
        src = self.base.known_rank(n)
        tgt = self.base.known_rank(n - len(alpha) - 1)
        if src is None or tgt is None:
            return None
        stored = self.maps.get(alpha, {}).get(n)
        if stored is not None:
            return stored
        if src == 0 or tgt == 0:
            return PolyMatrix.zeros(self.ring, tgt, src)
        return None

    def entry_degree(self, alpha, src_twist: int, tgt_twist: int) -> int:
        drop = sum(self.ring.seq_degrees[i - 1] for i in alpha)
        return src_twist - tgt_twist - drop

    def to_json_dict(self) -> dict:
        maps = {}
        for alpha in sorted(self.maps, key=lambda a: (len(a), a)):
            pos = self.maps[alpha]
            key = json.dumps(index_to_json(alpha), separators=(",", ":"))
            maps[key] = {str(n): matrix_to_json(pos[n]) for n in sorted(pos)}
        return {"level": self.level, "maps": maps}

    @classmethod
    def from_json_dict(cls, base: FreeComplex, data) -> "HomotopyFamily":
        """Inverse of ``to_json_dict``; every malformed family is a
        ParseError."""
        ring = base.ring
        raw = data.get("maps", {}) if isinstance(data, dict) else None
        if not isinstance(raw, dict):
            raise ParseError("homotopy family JSON needs a maps object")
        level = json_int(data.get("level", 0), "homotopy level")
        maps = {}
        for key, positions in raw.items():
            try:
                # null, the zero index, is no subset either
                alpha = index_from_json(json.loads(key), ring.c) or ()
            except (ValueError, InvalidInputError) as exc:
                raise ParseError(f"bad index key {key!r}: {exc}") from exc
            if not isinstance(positions, dict):
                raise ParseError(f"maps of {key} must be an object")
            per = {}
            for nkey, rows in positions.items():
                n = json_int(nkey, f"position of map {key}")
                tgt = base.known_rank(n - len(alpha) - 1)
                src = base.known_rank(n)
                if tgt is None or src is None:
                    raise ParseError(f"map {key} at {n} outside the window")
                per[n] = matrix_from_json(ring, rows, tgt, src, f"map {key} at {n}")
            maps[alpha] = per
        try:
            return cls(base, level, maps)
        except InvalidInputError as exc:
            raise ParseError(str(exc)) from exc


def pair_sum(H: HomotopyFamily, gamma, n: int):
    """Sum of signed compositions t^beta o t^alpha over disjoint splittings
    of gamma, evaluated at source position n.  None if any piece is
    undetermined by the window."""
    F = H.base
    ring = H.ring
    src = F.known_rank(n)
    tgt = F.known_rank(n - len(gamma) - 2)
    if src is None or tgt is None:
        return None
    acc = PolyMatrix.zeros(ring, tgt, src)
    for asize in range(len(gamma) + 1):
        for alpha in combinations(gamma, asize):
            beta = tuple(i for i in gamma if i not in alpha)
            t_a = H.map(alpha, n)
            if t_a is None:
                return None
            t_b = H.map(beta, n - asize - 1)
            if t_b is None:
                return None
            prod = t_b.mul(t_a, ring)
            if (len(beta) + inversions(alpha, beta)) % 2:
                prod = prod.neg()
            acc = acc.add(prod)
    return acc


def relation_lhs(H: HomotopyFamily, gamma, n: int):
    """Full left-hand side of the defining relation at gamma, position n."""
    ring = H.ring
    acc = pair_sum(H, gamma, n)
    if acc is None:
        return None
    for i in range(1, ring.c + 1):
        if i in gamma:
            continue
        mu = insert_index(i, gamma)
        t_mu = H.map(mu, n)
        if t_mu is None:
            return None
        coeff = ring.sequence[i - 1]
        if (len(gamma) + insertion_count(i, gamma)) % 2:
            coeff = -coeff
        acc = acc.add(t_mu.scale_poly(coeff, ring))
    return acc


def solve_homotopies(F: FreeComplex, level: int) -> HomotopyFamily:
    """Construct the homotopy family on a lift F up to the given level.

    Raises InvalidInputError when a differential entry is not homogeneous
    of its forced degree, or when some graded system is inconsistent,
    which happens exactly when F is not a lift of a genuine R-complex up
    to the requested level.
    """
    ring = F.ring
    c = ring.c
    if F.over != "Q":
        raise InvalidInputError("solve_homotopies expects a complex over Q")
    if not (0 <= level <= c):
        raise InvalidInputError(f"level must lie in 0..{c}, got {level}")
    bad = next(homogeneity_failures(F), None)
    if bad is not None:
        raise InvalidInputError(bad.detail)

    kos = koszul_complex(ring)
    H = HomotopyFamily(F, 0, {})
    for size in range(1, level + 1):
        coeffs = kos.diffs[size] if size % 2 else kos.diffs[size].neg()
        gammas = list(subsets_of_size(c, size - 1))
        mus = list(subsets_of_size(c, size))
        new_maps = {mu: {} for mu in mus}
        for n in F.positions():
            src_rank = F.known_rank(n)
            tgt_rank = F.known_rank(n - size - 1)
            if not src_rank or not tgt_rank:
                continue
            residuals = [pair_sum(H, gamma, n) for gamma in gammas]
            if None in residuals:
                continue
            src_tw = F.twists[n]
            tgt_tw = F.known_twist(n - size - 1)
            groups = {}
            for r in range(tgt_rank):
                for s_ in range(src_rank):
                    groups.setdefault(src_tw[s_] - tgt_tw[r], []).append((r, s_))
            entries = {mu: [{} for _ in range(tgt_rank)] for mu in mus}
            failed = []
            for e, cells in groups.items():
                rhs_rows = [{} for _ in residuals]
                for res, row in zip(residuals, rhs_rows):
                    for k, (r, s_) in enumerate(cells):
                        p = res.entry(r, s_)
                        if p.terms:
                            row[k] = -p
                rhs = PolyMatrix._from_sparse(len(gammas), len(cells), rhs_rows, ring.zero)
                sols = solve_graded_linear(
                    ring, coeffs, kos.twists[size], kos.twists[size - 1], e, rhs
                )
                for (r, s_), sol in zip(cells, sols):
                    if sol is None:
                        failed.append((r, s_))
                        continue
                    for k, p in sol:
                        entries[mus[k]][r][s_] = p
            if failed:
                r, s_ = min(failed)
                raise InvalidInputError(
                    f"homotopy system inconsistent at level {size}, "
                    f"position {n}, entry ({r},{s_}); the input is "
                    "not a lift of an R-complex"
                )
            for mu in mus:
                new_maps[mu][n] = PolyMatrix._from_sparse(
                    tgt_rank, src_rank, entries[mu], ring.zero
                )
        merged = dict(H.maps)
        merged.update(new_maps)
        H = HomotopyFamily(F, size, merged)
    return H


@dataclass
class RelationReport:
    gamma: tuple
    ok: bool
    positions: list
    first_failure: tuple | None  # (position, row, col)


def checkable_gammas(H: HomotopyFamily):
    """Subsets whose relation is fully determined by a level-L family:
    |gamma| <= L-1 always, plus the top subset when L = c."""
    c = H.ring.c
    out = []
    for size in range(c + 1):
        if size <= H.level - 1 or (size == c and H.level == c):
            out.extend(subsets_of_size(c, size))
    return out


def verify_relation(H: HomotopyFamily, gamma) -> RelationReport:
    """Evaluate the defining relation at gamma across every position the
    window determines; reports the first violating entry if any."""
    ring = H.ring
    gamma = validate_index(gamma, ring.c)
    if gamma not in checkable_gammas(H):
        raise InvalidInputError(
            f"relation at {gamma} needs level {len(gamma) + 1} maps; family "
            f"has level {H.level}"
        )
    positions = []
    first = None
    ok = True
    for n in H.base.positions():
        lhs = relation_lhs(H, gamma, n)
        if lhs is None:
            continue
        positions.append(n)
        if first is None and not lhs.is_zero():
            ok = False
            i, j, _ = next(lhs.nonzeros())
            first = (n, i, j)
    return RelationReport(gamma, ok, positions, first)


@dataclass
class CheckItem:
    ok: bool
    positions: list
    first_failure: tuple | None


@dataclass
class EisenbudReport:
    ok: bool
    chain_maps: dict
    commutators: dict


def eisenbud_operator_checks(H: HomotopyFamily) -> EisenbudReport:
    """Eisenbud's operators are the level-one maps t^{e_i}.  Modulo (f) each
    is a chain map, and each commutator [t^{e_i}, t^{e_j}] is null-homotopic
    through h = t^{e_i e_j}.  These are the pair sums of the defining
    relation at gamma = (i,) and (i, j): d t^{e_i} - t^{e_i} d, and
    [t^{e_i}, t^{e_j}] + d h + h d.  The relation puts both in (f); this
    check tests every entry by ideal membership."""
    ring = H.ring
    c = ring.c
    if H.level < 1 and c >= 1:
        raise InvalidInputError("chain-map checks need a level >= 1 family")
    if H.level < 2 and c >= 2:
        raise InvalidInputError("commutator checks need a level >= 2 family")

    def check(gamma) -> CheckItem:
        """Every position where the pair sum at gamma is determined, and the
        first (position, row, col) whose entry lies outside (f)."""
        positions, first = [], None
        for n in H.base.positions():
            resid = pair_sum(H, gamma, n)
            if resid is None:
                continue
            positions.append(n)
            if first is None:
                first = next(
                    (
                        (n, i, j)
                        for i, j, p in resid.nonzeros()
                        if not ring.in_sequence_ideal(p)
                    ),
                    None,
                )
        return CheckItem(first is None, positions, first)

    chain = {i: check((i,)) for i in range(1, c + 1)}
    comms = {pair: check(pair) for pair in combinations(range(1, c + 1), 2)}
    ok = all(item.ok for item in chain.values()) and all(
        item.ok for item in comms.values()
    )
    return EisenbudReport(ok, chain, comms)
