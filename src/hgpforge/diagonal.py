"""Phase polynomials for diagonal circuits and their logical analysis.

A diagonal circuit on basis state |x> applies the phase
exp(i*pi*f(x)/2^(m-1)) where f is a multilinear polynomial over the binary
variables x_i with coefficients in Z_{2^m}.  Conjugating by an X-type Pauli
with support g turns f into f(x^g) - f(x), another phase polynomial, which
drives both the Clifford-hierarchy level computation and the
codespace-preservation check.

Everything here is exact symbolic arithmetic mod 2^m; no state vectors are
ever enumerated.  A monomial is the ascending tuple of its variables, and
one normalizer, `_normalized`, sums and reduces terms.  The codespace
check and the logical action share one pullback of f to x = L a + G b (L
the X logicals, G the independent Hx rows), which expands each XOR
multilinearly and prunes branches whose coefficient 2-adic valuation
reaches the modulus, keeping it polynomial-sized.  Each qubit's image is
one int mask, a shift of the qubit's word in the transposes of L and of G
per copy, and the pullback reads only the masks of f's variables and
accumulates monomials as int masks.  Terms of coefficient 2^(m-1), which
every C^(t-1)Z gate has, are pulled back mod 2:
2^(m-1) * g mod 2^m depends only on g mod 2, and mod 2 each factor is a
GF(2) linear form.  Such terms that share every variable but the last two
(their head) form one group: each entry of the second-to-last variable's
image keys a linear form, the XOR of the last variables' image masks, and
the head is expanded once, over singletons only, and crossed with those
forms.  The result is exactly the subset expansion's; other terms keep
that expansion.  The last pullback is kept on the code, so a claim checked
for codespace preservation and then for its logical action is pulled back
once.  The image masks are built once per code and copy count and kept on
the code while its logical basis object stays the same.

The transversal no-go survey is linear: f = sum c_i x_i pulls back to the
coefficient (-2)^(|T|-1) * (sum of c_i over the qubits whose image holds T)
on each monomial T.  One pass over the images' entries gives the rows for
T holding a b-variable (the congruences that cut out the preserving f,
each a sparse {qubit: 2^(|T|-1)} row) and for T made of a-variables only
(the logical action), so every solution's action is a vector in the a-row
space and no solution is pulled back.  The b-rows are solved by a column
echelon form over Z_{2^m} that keeps each working column in one integer,
one byte-aligned lane of at least 2m bits per entry, so a column rewrite
is one multiply-add.  The generators are checked and their levels read the
same way: each qubit's entries over the generators are one integer, so a
row's sums over every generator are one sum of integers, and a mask tests
them all.  An a-row's term sits at level m - v2 of its masked sum,
whatever its degree, so one OR of the masked sums of every a-row, read
through a 256-entry byte table, gives every generator's level at once, by
the rule `hierarchy_level` applies to terms; no action is built per
generator.  No combination of generators reaches a higher level, so only
the generator that reaches the maximum is confirmed through the public
pullback pair.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from . import correctability, f2la
from ._record import SlotRecord
from .css import CssCode, LogicalRep, PauliOperator, canonical_logical_basis

# A monomial is the ascending tuple of its variables; () is the constant.
Monomial = tuple

# Input caps: the modulus exponent m of a circuit or survey, the no-go
# survey's candidate congruence rows, the code copies a circuit spans (toric
# C^(t-1)Z layers need up to product.MAX_DIMENSION = 6), and the branches the
# pullback of one monomial holds (a toric layer needs <= 486).
MAX_MODULUS_LOG2 = 8
MAX_CONGRUENCE_ROWS = 1 << 14
MAX_COPIES = 8
MAX_TERM_BRANCHES = 1 << 20


def _normalized(nvars: int, modulus_log2: int, terms: Iterable[tuple[Monomial, int]]) -> dict:
    """The one normalizer: the (ascending tuple, coefficient) pairs summed per
    monomial, every variable checked against nvars (also in a monomial whose
    sum cancels), each sum reduced mod 2^m and zeros dropped.  m and nvars
    are checked before terms is read."""
    if modulus_log2 < 1:
        raise ValueError("modulus_log2 must be >= 1")
    if nvars < 0:
        raise ValueError("nvars must be >= 0")
    summed: dict[Monomial, int] = {}
    for mono, c in terms:
        summed[mono] = summed.get(mono, 0) + c
    if any(mono and (mono[0] < 0 or mono[-1] >= nvars) for mono in summed):
        raise ValueError("monomial variable out of range")
    mod = 1 << modulus_log2
    return {mono: r for mono, c in summed.items() if (r := c % mod)}


def _variables(variables: Iterable[int]) -> tuple[int, ...]:
    """The variables of one term as a tuple, each of them an int: a float,
    bool or str variable is refused, since the circuit text could not name
    it.  The public constructor and `poly_from_circuit` read terms through
    this; `_normalized` trusts it, and so does `parse_circuit_text`, whose
    qubits int() made."""
    variables = tuple(variables)
    for v in variables:
        if type(v) is not int:
            raise ValueError(f"monomial variable {v!r} is not an int")
    return variables


class PhasePolynomial:
    """Multilinear polynomial over binary variables, coefficients mod 2^m.

    A monomial is the ascending tuple of its variables, () the constant
    term; zero-coefficient terms are never stored.  Instances are immutable.

    `_normalized` normalizes the terms of this constructor (which reads any
    iterable of int variables as their set: (2, 0, 2) names x_0 x_2),
    `poly_from_circuit`, `__add__`, `renumber` and `difference`.  Code in
    this package that builds a polynomial from terms already in that form
    (a pullback, a renumbering by 0, a C^(t-1)Z layer) hands the dict to
    `_of`, which stores it as it is.
    """

    __slots__ = ("modulus_log2", "nvars", "_terms")

    def __init__(self, nvars: int, modulus_log2: int, terms: Optional[dict] = None):
        keyed = ((tuple(sorted(set(_variables(mono)))), c) for mono, c in (terms or {}).items())
        clean = _normalized(nvars, modulus_log2, keyed)
        object.__setattr__(self, "modulus_log2", modulus_log2)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _of(cls, nvars: int, modulus_log2: int, terms: dict[Monomial, int]) -> "PhasePolynomial":
        """The polynomial holding terms as they are: ascending tuples over
        variables below nvars, each coefficient reduced mod 2^m and nonzero.
        Nothing is checked, and the dict is shared, not copied."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "modulus_log2", modulus_log2)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("PhasePolynomial is immutable")

    @property
    def modulus(self) -> int:
        return 1 << self.modulus_log2

    def terms(self) -> list[tuple[Monomial, int]]:
        """Sorted (monomial, coefficient) pairs; canonical presentation:
        by degree, then by the monomial's tuple (`_by_degree`)."""
        return list(itertools.chain.from_iterable(_by_degree(self._terms)))

    def coefficient(self, mono: Iterable[int]) -> int:
        return self._terms.get(tuple(sorted(set(mono))), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not mono for mono in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhasePolynomial)
            and self.modulus_log2 == other.modulus_log2
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.modulus_log2, self.nvars, tuple(self.terms())))

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        if (self.nvars, self.modulus_log2) != (other.nvars, other.modulus_log2):
            raise ValueError("mismatched polynomials")
        terms = itertools.chain(self._terms.items(), other._terms.items())
        return PhasePolynomial._of(
            self.nvars, self.modulus_log2, _normalized(self.nvars, self.modulus_log2, terms)
        )

    def evaluate(self, x: int) -> int:
        """Value of f at the packed assignment x, reduced mod 2^m."""
        total = 0
        for mono, c in self._terms.items():
            if all((x >> v) & 1 for v in mono):
                total += c
        return total % self.modulus

    def renumber(self, offset: int, nvars: int) -> "PhasePolynomial":
        """Shift every variable index by offset (multi-copy embedding).  With
        offset 0 and no fewer variables, the result shares these terms."""
        if offset == 0 and nvars >= self.nvars:
            return PhasePolynomial._of(nvars, self.modulus_log2, self._terms)
        shifted = ((tuple(v + offset for v in mono), c) for mono, c in self._terms.items())
        return PhasePolynomial._of(
            nvars, self.modulus_log2, _normalized(nvars, self.modulus_log2, shifted)
        )

    def __repr__(self) -> str:
        if not self._terms:
            return f"PhasePolynomial(0 mod 2^{self.modulus_log2})"
        bits = [
            f"{c}*x{list(mono)}" if mono else str(c)
            for mono, c in self.terms()
        ]
        return f"PhasePolynomial({' + '.join(bits)} mod 2^{self.modulus_log2})"


def _by_degree(terms: dict[Monomial, int]) -> list[list[tuple[Monomial, int]]]:
    """The (monomial, coefficient) items of terms, one list per degree,
    lowest degree first, each sorted by its plain tuples (the monomials are
    distinct keys, so no coefficient is ever compared)."""
    groups: dict[int, list[tuple[Monomial, int]]] = {}
    for item in terms.items():
        groups.setdefault(len(item[0]), []).append(item)
    return [sorted(groups[degree]) for degree in sorted(groups)]


def poly_zero(nvars: int, modulus_log2: int) -> PhasePolynomial:
    return PhasePolynomial(nvars, modulus_log2, {})


def poly_from_circuit(
    gates: Iterable[tuple[int, Iterable[int]]], modulus_log2: int, nvars: Optional[int] = None
) -> PhasePolynomial:
    """Sum monomials contributed by (coefficient, qubit set) gate terms.

    A C^{j-1}Z on a qubit set contributes 2^(m-1) times the product of its
    variables; a Z rotation by 2pi/2^l on one qubit contributes 2^(m-l)
    times that variable (see the coefficient helpers below).  Every gate is
    read, and a qubit that is not an int or repeats in its gate refused,
    before `_normalized` sums the terms and checks their range; nvars
    defaults to one past the highest qubit.
    """
    return _gate_poly(((coeff, _variables(qubits)) for coeff, qubits in gates), modulus_log2, nvars)


def _gate_poly(
    gates: Iterable[tuple[int, tuple[int, ...]]], modulus_log2: int, nvars: Optional[int] = None
) -> PhasePolynomial:
    """`poly_from_circuit` on gates whose qubits are tuples of ints already,
    as `parse_circuit_text` makes them with int()."""
    terms: list[tuple[Monomial, int]] = []
    for coeff, qubits in gates:
        mono = tuple(sorted(set(qubits)))
        if len(mono) != len(qubits):
            raise ValueError(f"repeated qubit in gate {qubits}")
        terms.append((mono, coeff))
    if nvars is None:
        nvars = max([0, *(mono[-1] + 1 for mono, _ in terms if mono)])
    return PhasePolynomial._of(nvars, modulus_log2, _normalized(nvars, modulus_log2, terms))


def controlled_z_coeff(modulus_log2: int) -> int:
    """Coefficient of any C^{j-1}Z family gate: 2^(m-1)."""
    return 1 << (modulus_log2 - 1)


def z_rotation_coeff(level: int, modulus_log2: int) -> int:
    """Coefficient of Z^(1/2^(level-1)) (level 1 = Z, 2 = S, 3 = T, ...)."""
    if level < 1:
        raise ValueError("rotation level must be >= 1")
    if level > modulus_log2:
        raise ValueError(
            f"modulus 2^{modulus_log2} too small for a level-{level} rotation"
        )
    return 1 << (modulus_log2 - level)


def difference(f: PhasePolynomial, g: int) -> PhasePolynomial:
    """Exact multilinear form of f(x XOR g) - f(x) mod 2^m.

    Per monomial c*x_S with S1 = S intersect supp(g): substituting
    x_i -> 1 - x_i on S1 and expanding gives one term per subset D of S1,
    c*(-1)^(|S1| - |D|) on S minus D; the original monomial is subtracted
    once, and `_normalized` sums the terms.
    """
    if g < 0 or g >> f.nvars:
        raise ValueError("difference vector does not fit the variable count")
    if not f._terms:  # the zero polynomial is its own difference
        return f
    terms: list[tuple[Monomial, int]] = []
    for mono, c in f._terms.items():
        s1 = [v for v in mono if (g >> v) & 1]
        if not s1:
            continue
        for size in range(len(s1) + 1):
            coeff = c if (len(s1) - size) % 2 == 0 else -c
            for dropped in itertools.combinations(s1, size):
                terms.append((tuple(v for v in mono if v not in dropped), coeff))
        terms.append((mono, -c))
    return PhasePolynomial._of(f.nvars, f.modulus_log2, _normalized(f.nvars, f.modulus_log2, terms))


def hierarchy_level(f: PhasePolynomial) -> int:
    """Diagonal Clifford-hierarchy level from the monomial structure.

    A term c*x_S with 2-adic valuation v = v2(c) sits at level
    |S| + (m - 1 - v); the polynomial's level is the maximum over terms
    (`_level`).  Constants are trivial (level 0).  Cross-checked against
    iterated truth-table differences in the test suite.
    """
    return _level(((len(mono), c) for mono, c in f._terms.items()), f.modulus_log2)


def _level(terms: Iterable[tuple[int, int]], modulus_log2: int) -> int:
    """The highest |T| + m - 1 - v2(c) over the (|T|, c) pairs with |T| >= 1
    and c nonzero mod 2^m, or 0 if there is none.  Below 2^m, v2(c) is the
    valuation of c's residue, so c need not be reduced."""
    mod = 1 << modulus_log2
    return max(
        (size + modulus_log2 - (c & -c).bit_length() for size, c in terms if size and c % mod),
        default=0,
    )


def _refuse_wide_terms(f: PhasePolynomial, widths: dict[int, int]) -> None:
    """Raise ValueError if the pullback of a monomial of f would hold more
    than MAX_TERM_BRANCHES branches at some step (widths: the number of
    distinct entries in each variable's image).

    A variable lists at most 2^width - 1 subsets, so the widest image and
    the highest degree bound every term's branches and every listing.  Past
    that bound, each term is counted exactly by the subset expansion's
    recurrence on the branches per room left, also for a term that
    `substitute` folds mod 2 and so expands less.
    """
    widest, degree = max(widths.values(), default=0), max(map(len, f._terms), default=0)
    if max((1 << widest) - 1, 1) ** degree <= MAX_TERM_BRANCHES:
        return
    m = f.modulus_log2
    for mono, c in f._terms.items():
        rooms, peak = {m + 1 - (c & -c).bit_length(): 1}, 1  # open branches per room
        for v in mono:
            width, grown = widths[v], {}
            for room, count in rooms.items():
                for size in range(1, min(room, width) + 1):
                    left = room + 1 - size
                    grown[left] = grown.get(left, 0) + count * math.comb(width, size)
            rooms = grown
            peak = max(peak, sum(rooms.values()))
        if peak > MAX_TERM_BRANCHES:
            raise ValueError(
                f"a monomial's pullback holds up to {peak} branches, "
                f"above the cap of {MAX_TERM_BRANCHES}"
            )


def _singletons(mask: int) -> list[int]:
    """The set bits of mask, each as its own int."""
    return [1 << j for j in f2la.indices_of(mask)]


def _expand_subsets(
    terms: list[tuple[Monomial, int]], masks: dict[int, int], m: int
) -> dict[int, int]:
    """Pull the (monomial, coefficient) terms back by the subset expansion:
    {monomial mask: coefficient mod 2^m}, zero coefficients left out.

    Each variable's subsets are listed once, as (size, bitmask) pairs up to
    the deepest size a term holding it can reach, m - v2(c).
    """
    mod = 1 << m
    reach: dict[int, int] = {}
    for mono, c in terms:
        depth = m + 1 - (c & -c).bit_length()
        for v in mono:
            if reach.get(v, 0) < depth:
                reach[v] = depth
    subsets = {}
    for v, depth in reach.items():
        row = _singletons(masks[v])
        subsets[v] = [
            (size, sum(t))
            for size in range(1, min(depth, len(row)) + 1)
            for t in itertools.combinations(row, size)
        ]
    out: dict[int, int] = {}
    for mono, c in terms:
        # (monomial mask, coefficient, m - its valuation) per open branch
        branches = [(0, c, m + 1 - (c & -c).bit_length())]
        for v in mono:
            factor = subsets[v]
            # |T| - 1 extra powers of two per factor; deeper subsets vanish.
            branches = [
                (acc | mask, (coeff if size & 1 else -coeff) << (size - 1), room + 1 - size)
                for acc, coeff, room in branches
                for size, mask in factor
                if size <= room
            ]
        for acc, coeff, _ in branches:
            # A monomial whose coefficient cancels leaves the accumulator.
            total = (out.pop(acc, 0) + coeff) % mod
            if total:
                out[acc] = total
    return out


def _odd_monomials(monos: list[Monomial], masks: dict[int, int]) -> set[int]:
    """The monomial masks of the GF(2) polynomial
    sum over monos of prod over v in mono of (XOR of v's image), mod 2.

    The monomials are grouped by their head mono[:-2], every variable but
    the last two.  In a group, each entry of the second-to-last variable's
    image keys the XOR of the last variables' image masks, one linear form
    per entry, and an entry whose form cancels leaves the group's map; a
    degree-1 monomial joins the empty head under the empty key 0.  Each
    head is expanded once, over the singletons of its variables' images,
    and each branch | key XORs in the form of key.  Equal branches of
    different heads share one form, and on a codespace-preserving layer
    almost all of these cancel.  Each bit left in a branch's form then
    toggles the monomial branch | bit.  A group's map has at most as many
    entries as its monomials' second-to-last images, so crossing it takes
    no more steps than expanding each monomial on its own.
    """
    singletons: dict[int, list[int]] = {}
    groups: dict[tuple[int, ...], dict[int, int]] = {}  # head -> {key: form}
    for mono in monos:
        form = masks[mono[-1]]
        if len(mono) == 1:
            head, keys = (), (0,)
        else:
            head, keys = mono[:-2], singletons.get(mono[-2])
            if keys is None:
                keys = singletons[mono[-2]] = _singletons(masks[mono[-2]])
        keyed = groups.get(head)
        if keyed is None:
            keyed = groups[head] = {}
        for key in keys:
            # an entry whose form cancels leaves the map
            left = keyed.pop(key, 0) ^ form
            if left:
                keyed[key] = left
    at: dict[int, int] = {}  # branch monomial -> its GF(2) linear form
    while groups:
        head, keyed = groups.popitem()  # each map is freed once crossed
        if not keyed:
            continue
        accs = [0]
        for v in head:
            bits = singletons.get(v)
            if bits is None:
                bits = singletons[v] = _singletons(masks[v])
            accs = [acc | bit for acc in accs for bit in bits]
        for key, form in keyed.items():
            for acc in accs:
                # a branch whose form cancels leaves the map
                branch = acc | key
                left = at.pop(branch, 0) ^ form
                if left:
                    at[branch] = left
    odd: set[int] = set()
    for acc, form in at.items():
        for bit in _singletons(form):
            key = acc | bit
            if key in odd:
                odd.remove(key)
            else:
                odd.add(key)
    return odd


def substitute(
    f: PhasePolynomial, images: Sequence[Sequence[int] | int], new_nvars: int
) -> PhasePolynomial:
    """Compose f with the GF(2)-linear map x_i = XOR of images[i], each
    distinct entry of an image counted once.  An image is a sequence of
    variable indices or an int mask whose set bits are its entries.

    The XOR of p bits has multilinear form sum over nonempty subsets T of
    (-2)^(|T|-1) * product(T), so a degree-d monomial expands into a
    product of such sums.  Branches whose coefficient valuation reaches m
    are pruned, which caps the expansion sharply for small m.

    A nonconstant term of coefficient 2^(m-1) (every C^(t-1)Z gate, and
    every term at m = 1) is pulled back mod 2 instead (`_odd_monomials`,
    which groups them by every variable but the last two and expands each
    group's head once).  2^(m-1) * g mod 2^m depends only on g mod 2, and
    mod 2 each factor is the GF(2) linear form of its image, so these terms
    sum to 2^(m-1) times the product of those forms, expanded with 0/1
    coefficients.  A multilinear polynomial mod 2^m is fixed by its values,
    so the result is the one the subset expansion gives; for these terms
    that expansion keeps only singletons, since any larger subset reaches
    the modulus.  Terms of any other valuation, and constants, keep the
    subset expansion (`_expand_subsets`), and the two parts add up mod 2^m.

    Only the images of f's variables are read: each sequence is built once
    as a bitmask, which drops repeated entries, and a mask is taken as it
    is, after the same range check.  An image of a variable f does not use
    is never read, so an out-of-range one raises nothing.  Subsets are
    listed only for the variables of terms that are not folded.  Before
    anything is expanded, `_refuse_wide_terms` refuses a monomial whose
    subset expansion would hold more than MAX_TERM_BRANCHES branches.
    """
    if len(images) != f.nvars:
        raise ValueError("need one image per variable")
    m = f.modulus_log2
    masks: dict[int, int] = {}
    for mono in f._terms:
        for v in mono:
            if v not in masks:
                img = images[v]
                if isinstance(img, int):
                    if img < 0 or img >> new_nvars:
                        raise ValueError("image variable out of range")
                    masks[v] = img
                    continue
                if img and (min(img) < 0 or max(img) >= new_nvars):
                    raise ValueError("image variable out of range")
                masks[v] = f2la.vector_from_indices(img)
    _refuse_wide_terms(f, {v: mask.bit_count() for v, mask in masks.items()})
    half = 1 << (m - 1)
    folded = [mono for mono, c in f._terms.items() if c == half and mono]
    out = _expand_subsets(
        [(mono, c) for mono, c in f._terms.items() if c != half or not mono], masks, m
    )
    for acc in _odd_monomials(folded, masks):
        total = (out.pop(acc, 0) + half) % (1 << m)
        if total:
            out[acc] = total
    return PhasePolynomial._of(
        new_nvars, m, {tuple(f2la.indices_of(acc)): c for acc, c in out.items()}
    )


# -- codespace preservation ---------------------------------------------------


class PreservationResult(NamedTuple):
    preserves: bool
    violating_copy: Optional[int] = None
    violating_row: Optional[int] = None

    def __bool__(self) -> bool:
        return self.preserves


def _infer_copies(f: PhasePolynomial, code: CssCode, copies: Optional[int]) -> int:
    if copies is None:
        if code.n == 0 or f.nvars % code.n:
            raise ValueError(
                f"cannot infer copies: {f.nvars} variables over blocks of {code.n}"
            )
        copies = f.nvars // code.n
    if not 1 <= copies <= MAX_COPIES:
        raise ValueError(f"copies must be >= 1 and <= {MAX_COPIES}")
    if f.nvars != copies * code.n:
        raise ValueError(
            f"polynomial has {f.nvars} variables, expected {copies}x{code.n}"
        )
    return copies


def _coordinates(code: CssCode) -> tuple[list[int], list[int]]:
    """L and G's Hx row indices: G is the Hx rows that extend the span of the rows
    before them (`code.hx_basis_rows`), L the X logicals or a bare code's
    completion of the Hx span to ker Hz.  The completion keeps the ker Hz
    words whose coset keys modulo the Hx span (`hx_space.reduce`, linear
    with kernel the span) extend the keys before them."""
    if code.logicals is None and code.complex is None:
        keys = f2la.RowSpace(cols=code.n)
        lead = [v for v in code.x_domain_basis() if keys.extend(code.hx_space.reduce(v))]
        return lead, code.hx_basis_rows
    basis = code.logicals or canonical_logical_basis(code)
    return [rep.pauli.x for rep in basis.x_reps], code.hx_basis_rows


def _images(code: CssCode, copies: int) -> tuple[tuple[int, ...], int, int, list[int]]:
    """Each qubit's image of x = L a + G b per copy as one int mask (G the
    independent Hx rows), the a count, the variable count and G's Hx row
    indices.

    Qubit i's a-part is its column word in L, i.e. word i of transpose(L),
    and its b-part its word in transpose(G); copy c shifts them to its
    a- and b-variables.  Memoised on the code per copy count: an entry is
    reused while `code.logicals` is the very object it was built from (Hx is
    fixed at construction; `set_logical_basis` and `canonical_logical_basis`
    install a new basis object).
    """
    hit = code._images.get(copies)
    if hit is not None and hit[0] is code.logicals:
        return hit[1]
    lead_rows, g_index = _coordinates(code)
    k, r = len(lead_rows), len(g_index)
    a_total = copies * k
    a_cols = f2la.transpose(f2la.BinaryMatrix(k, code.n, lead_rows)).bits
    b_cols = f2la.transpose(f2la.BinaryMatrix(r, code.n, [code.hx.bits[g] for g in g_index])).bits
    images = tuple(
        a << (c * k) | b << (a_total + c * r) for c in range(copies) for a, b in zip(a_cols, b_cols)
    )
    result = (images, a_total, a_total + copies * r, g_index)
    code._images[copies] = (code.logicals, result)
    return result


def _pullback(
    f: PhasePolynomial, code: CssCode, copies: int
) -> tuple[PhasePolynomial, int, list[int]]:
    """f at x = L a + G b per copy, the a count and G's Hx row indices.

    The last result is kept on the code and reused for the very same f
    object (polynomials are immutable) at the same copy count while
    `code.logicals` is the object it was built from, so a codespace check
    followed by the logical action substitutes once.
    """
    hit = code._last_pullback
    if hit is not None and hit[0] is f and hit[1] == copies and hit[2] is code.logicals:
        return hit[3]
    images, a_total, nvars, g_index = _images(code, copies)
    result = (substitute(f, images, nvars), a_total, g_index)
    code._last_pullback = (f, copies, code.logicals, result)
    return result


def preserves_codespace(
    f: PhasePolynomial, code: CssCode, copies: Optional[int] = None
) -> PreservationResult:
    """Symbolic check that the diagonal circuit fixes the codespace.

    The stabilizer G_j on copy c shifts the pullback's b-coordinates by a
    unit vector, so f(x XOR G_j) = f(x) on ker Hz exactly when the b-dependent
    part is unchanged by it.  A dependent Hx row is a sum of earlier rows, so
    the first violating row is a G row.  Exact; never enumerates states.
    """
    copies = _infer_copies(f, code, copies)
    full, a_total, g_index = _pullback(f, code, copies)
    moving = {mono: c for mono, c in full._terms.items() if mono and mono[-1] >= a_total}
    moving = PhasePolynomial._of(full.nvars, f.modulus_log2, moving)
    for c in range(copies):
        for j, r in enumerate(g_index):
            if not difference(moving, 1 << (a_total + c * len(g_index) + j)).is_zero():
                return PreservationResult(False, c, r)
    return PreservationResult(True)


def logical_action(
    f: PhasePolynomial, code: CssCode, copies: Optional[int] = None
) -> PhasePolynomial:
    """Reduced polynomial of the induced logical gate.

    Substitutes x = L a + G b per copy (L from `_coordinates`, G the
    independent Hx rows) and verifies every b-dependent term cancels, which
    must happen when the circuit preserves the codespace.  Returns the
    polynomial over the k*copies logical variables.
    """
    copies = _infer_copies(f, code, copies)
    full, a_total, _ = _pullback(f, code, copies)
    if any(mono and mono[-1] >= a_total for mono in full._terms):
        raise AssertionError(
            "stabilizer dependence failed to cancel; circuit does not "
            "preserve the codespace"
        )
    return PhasePolynomial._of(a_total, f.modulus_log2, full._terms)


# -- circuit text format -------------------------------------------------------
#
#   MOD m
#   PHASE c q        adds c * x_q
#   CZ a b           adds 2^(m-1) * x_a x_b
#   CCZ a b c        adds 2^(m-1) * x_a x_b x_c
#   CNZ q1 ... qt    adds 2^(m-1) * x_q1 ... x_qt
#
# Multi-copy circuits address qubit (copy, index) as copy*n + index.


def parse_circuit_text(text: str) -> PhasePolynomial:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if not head or head[0] != "MOD":
        raise ValueError("circuit file must start with a 'MOD m' header")
    if len(head) != 2:
        raise ValueError(f"bad circuit header {lines[0]!r}")
    m = int(head[1])
    if not 1 <= m <= MAX_MODULUS_LOG2:
        raise ValueError(f"modulus exponent must be >= 1 and <= {MAX_MODULUS_LOG2}")
    cz, arity = controlled_z_coeff(m), {"CZ": 2, "CCZ": 3, "CNZ": None}
    gates: list[tuple[int, tuple[int, ...]]] = []
    for ln in lines[1:]:
        parts = ln.split()
        op, args = parts[0].upper(), parts[1:]
        if op == "PHASE":
            if len(args) != 2:
                raise ValueError(f"PHASE needs a coefficient and a qubit: {ln!r}")
            gates.append((int(args[0]), (int(args[1]),)))
        elif op in arity:
            qubits = tuple(map(int, args))
            expected = arity[op]
            if expected is not None and len(qubits) != expected:
                raise ValueError(f"{op} needs {expected} qubits: {ln!r}")
            if not qubits:
                raise ValueError(f"empty gate line {ln!r}")
            gates.append((cz, qubits))
        else:
            raise ValueError(f"unknown circuit line {ln!r}")
    return _gate_poly(gates, m)


def format_circuit_text(f: PhasePolynomial, comment: Optional[str] = None) -> str:
    """Serialize a polynomial whose multi-variable terms are C^(j-1)Z shaped.

    The lines follow `terms()`: each degree's monomials, sorted, go through
    one "%s" line template, which writes each variable as str() does.  A
    constant term, or a multi-qubit coefficient other than 2^(m-1), raises
    at the first such term in that order.
    """
    out = [f"# {ln}" for ln in comment.splitlines()] if comment else []
    out.append(f"MOD {f.modulus_log2}")
    cz, names = controlled_z_coeff(f.modulus_log2), {2: "CZ", 3: "CCZ"}
    for group in _by_degree(f._terms):
        degree = len(group[0][0])
        if degree == 0:
            raise ValueError("constant phase terms are not representable")
        if degree == 1:
            out += [f"PHASE {c} {v}" for (v,), c in group]
            continue
        monos = [mono for mono, c in group if c == cz]
        if len(monos) < len(group):
            mono, c = next(item for item in group if item[1] != cz)
            raise ValueError(f"multi-qubit term {mono} has coefficient {c}, not 2^(m-1)")
        template = " ".join([names.get(degree, "CNZ")] + ["%s"] * degree)
        out += map(template.__mod__, monos)
    return "\n".join(out) + "\n"


# -- support calculus ----------------------------------------------------------

TRANSVERSAL = "transversal"
CONSTANT_DEPTH = "constant_depth"


class CircuitSupportModel(SlotRecord):
    """Declared support behaviour of a circuit under conjugation.

    ``spread_map`` (constant-depth only) sends a qubit set to the union of
    the supports its image may touch; it is supplied by the caller from the
    declared gate layout, never inferred.  A transversal circuit keeps every
    support in place, so a transversal model refuses a ``spread_map``, and a
    constant-depth model without one spreads nothing.
    """

    __slots__ = ("kind", "spread_map")

    def __init__(
        self, kind: str, spread_map: Optional[Callable[[frozenset[int]], Iterable[int]]] = None
    ):
        if kind not in (TRANSVERSAL, CONSTANT_DEPTH):
            raise ValueError(f"unknown circuit kind {kind!r}")
        if kind == TRANSVERSAL and spread_map is not None:
            raise ValueError("transversal circuits cannot spread supports")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spread_map", spread_map)

    def image(self, qubits: Iterable[int]) -> frozenset[int]:
        """Upper bound on supp(U P U^dagger) given supp(P) = qubits."""
        qubits = frozenset(qubits)
        if self.spread_map is None:
            return qubits
        return qubits | frozenset(self.spread_map(qubits))


def transversal_model() -> CircuitSupportModel:
    return CircuitSupportModel(TRANSVERSAL)


def commutator_support_bound(
    p_image: Iterable[int], q_support: Iterable[int], model: CircuitSupportModel
) -> frozenset[int]:
    """Support bound of [U P U^dagger, Q] given supp bounds of both sides.

    The commutator only sees V = Q restricted to the image of P; a
    transversal circuit leaves V in place while a constant-depth circuit
    can spread it once more.
    """
    return model.image(frozenset(p_image) & frozenset(q_support))


class CascadeStep(NamedTuple):
    j: int
    support: tuple[int, ...]
    correctable: bool


class CascadeReport(NamedTuple):
    steps: tuple[CascadeStep, ...]
    concluded_level: Optional[int]

    @property
    def conclusion(self) -> str:
        if self.concluded_level is None:
            return "no correctable bound reached"
        return f"U in P_{self.concluded_level}"


def bk_cascade(
    code: CssCode,
    reps: Sequence[PauliOperator | LogicalRep],
    model: CircuitSupportModel,
) -> CascadeReport:
    """Iterated group-commutator support bounds (Bravyi-Koenig style).

    K_1 bounds U reps[0] U^dagger; each later K_j = [K_{j-1}, reps[j]] is
    bounded through the support calculus and tested for correctability.
    The first correctable bound at step j certifies the circuit's logical
    action lies in level j of the hierarchy.
    """
    if not reps:
        raise ValueError("need at least one representative")
    steps: list[CascadeStep] = []
    current = None
    for j, rep in enumerate(reps, start=1):
        support = (rep.pauli if isinstance(rep, LogicalRep) else rep).support
        if current is None:
            current = model.image(support)
        else:
            current = commutator_support_bound(current, support, model)
        correctable = bool(correctability.is_correctable(code, correctability.Region.of(current)))
        steps.append(CascadeStep(j, tuple(sorted(current)), correctable))
        if correctable:
            return CascadeReport(tuple(steps), j)
    return CascadeReport(tuple(steps), None)


# -- transversal diagonal no-go harness ----------------------------------------


def kernel_mod_power_of_two(
    rows: Sequence[Mapping[int, int]], ncols: int, modulus_log2: int
) -> list[tuple[int, ...]]:
    """Generators of {c : M c = 0 mod 2^m} for an integer matrix M, each row
    given sparsely as a {column: entry} mapping (absent columns are 0).

    Column echelon form over Z_{2^m} (Howell 1986; Storjohann-Mulders 1998)
    by column operations only.  Each working column holds M's column and
    then its column of the transform U, which starts as the identity.  Every
    M entry left is divisible by 2^a, where a only grows; a step pops the
    first column with an entry of valuation exactly a (the minimum over
    (a, column, row)) and clears that entry's row from every other column
    with an exact multiple of it.  The popped columns are triangular over
    their pivot rows, so the kernel is 2^(m-a) U_j per pivot with a >= 1
    plus U_j per column left at the end: ncols - rank(M mod 2) generators.

    A working column is one int of w-bit lanes, lowest first, w = 2m
    rounded up to whole bytes: the entries of M's rows, then the ncols
    entries of U (the identity column j is one bit).  Every lane holds a
    residue below 2^m, so clearing an entry by adding g < 2^m times the
    pivot column is one multiply-add of whole columns: x + g*y <= (2^m - 1)
    * 2^m < 2^w carries into no other lane, and a mask reduces every lane
    mod 2^m.  The columns with an entry of valuation a are those that meet
    bit a of some row lane, and the lowest such bit is the first such row.
    The pivot order and the arithmetic are the ones above, lane for lane,
    so the generators do not depend on the packing.  For m <= 8 a residue
    is its lane's low byte, so one sliced `to_bytes` reads a generator.
    """
    mod = 1 << modulus_log2
    nbytes = (modulus_log2 + 3) // 4
    w = 8 * nbytes
    u_at = len(rows) * w
    ones = ((1 << (u_at + ncols * w)) - 1) // ((1 << w) - 1)  # 1 in every lane
    mask = ones * (mod - 1)
    row_ones = ones & ((1 << u_at) - 1)
    cols = [1 << (u_at + j * w) for j in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j] |= (x % mod) << (i * w)
    gens = []
    for a in range(modulus_log2):  # every M entry left is divisible by 2^a
        valuation_a = row_ones << a
        top = (mod >> a) - 1
        while (j := next((j for j, col in enumerate(cols) if col & valuation_a), None)) is not None:
            piv = cols.pop(j)
            hit = piv & valuation_a
            at = ((hit & -hit).bit_length() - 1) // w * w + a  # bit a of the pivot entry
            entry = top << at  # masking first shifts only the lanes below the pivot row
            neg_inv = mod - pow((piv & entry) >> at, -1, mod)
            cols = [
                (col + (x >> at) * neg_inv % mod * piv) & mask if (x := col & entry) else col
                for col in cols
            ]
            if a:
                gens.append((piv >> u_at) * (mod >> a) & mask)
    gens += [col >> u_at for col in cols]
    if modulus_log2 <= 8:  # every residue is its lane's low byte
        return [tuple(_low_bytes(u, ncols, nbytes)) for u in gens]
    return [tuple(u >> at & (mod - 1) for at in range(0, ncols * w, w)) for u in gens]


def _preservation_congruences(
    code: CssCode, modulus_log2: int
) -> tuple[list[dict[int, int]], list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """The b-rows and the a-rows of the pullback of f(x) = sum c_i x_i, and
    the a count.

    Pulled back to x = L a + G b, f has the coefficient (-2)^(|T|-1) * (sum
    of c_i over the qubits i whose image holds T) on the monomial T, so
    |T| <= m.  One pass over the images lists every such T with its qubits.
    The b-rows are the congruences over Z_{2^m} that cut out the
    codespace-preserving f: one row per T holding a b-variable, the sparse
    {qubit: 2^(|T|-1)} over its qubits (the sign leaves the solutions
    alone), each distinct row once.  They come in the order of their dense
    n-tuples: the key [(-i, w) for each qubit i] compares two rows as their
    dense forms do (the lower first qubit, then the larger weight, then the
    lower first qubit where they part, then the longer support is larger).
    The a-rows are the (T, qubits) pairs of the T made of a-variables only,
    sorted by T; on a preserving f they give the logical action.  Refused
    above MAX_CONGRUENCE_ROWS candidate monomials, counted from the image
    sizes before any row is built."""
    masks, a_total, _, _ = _images(code, 1)
    images = [f2la.indices_of(mask) for mask in masks]
    bound = sum(math.comb(len(img), s) for img in images for s in range(1, modulus_log2 + 1))
    if bound > MAX_CONGRUENCE_ROWS:
        raise ValueError(
            f"up to {bound} congruence rows exceed the cap of {MAX_CONGRUENCE_ROWS}"
        )
    members: dict[tuple[int, ...], list[int]] = {}
    for i, img in enumerate(images):
        for size in range(1, modulus_log2 + 1):
            for t in itertools.combinations(img, size):
                members.setdefault(t, []).append(i)
    distinct = {
        (tuple(qubits), 1 << (len(t) - 1)) for t, qubits in members.items() if t[-1] >= a_total
    }
    b_rows = [
        dict.fromkeys(qubits, w)
        for qubits, w in sorted(distinct, key=lambda row: [(-i, row[1]) for i in row[0]])
    ]
    a_rows = sorted((t, tuple(qubits)) for t, qubits in members.items() if t[-1] < a_total)
    return b_rows, a_rows, a_total


def _pack(values: Iterable[int], nbytes: int) -> int:
    """The values, each below 2^8, in lanes of nbytes bytes, lowest first."""
    low = bytes(values)
    if nbytes == 1:
        return int.from_bytes(low, "little")
    buf = bytearray(len(low) * nbytes)
    buf[::nbytes] = low
    return int.from_bytes(buf, "little")


def _low_bytes(packed: int, count: int, nbytes: int) -> bytes:
    """The low byte of each of the count nbytes-byte lanes of packed."""
    return packed.to_bytes(count * nbytes, "little")[::nbytes]


def _linear_survey(
    code: CssCode, modulus_log2: int
) -> tuple[list[tuple[int, ...]], list[bool], bytes]:
    """The solution-module generators, whether each satisfies every b-row,
    and the hierarchy level of each generator's logical action, one byte
    per generator.

    Qubit i's entries over the generators are packed into one int, one lane
    per generator, lowest first, of m + bit_length(widest row support) bits
    rounded up to whole bytes (so packing is a bytes copy of the slice
    [i::n] of the generators laid end to end).  A row's sums over every
    generator are then one sum of its qubits' ints, and no lane carries.  A
    b-row of weight 2^k holds on a generator exactly when the low m - k bits
    of its lane are zero, a mask test (multiplying the sum by the weight
    would carry across lanes).  An a-row T's term in the action has the
    coefficient (-2)^k * S mod 2^m, k = |T| - 1, S its lane, and so the
    level |T| + m - 1 - v2((-2)^k * S) = m - v2(S mod 2^(m-k)) whenever
    S mod 2^(m-k) is nonzero: the same mask as a b-row of weight 2^k, and a
    level that does not depend on |T|.  v2 of an OR of lanes is their least
    v2, and the OR is zero only when every lane is, so the masked sums of
    every a-row ORed into one int give each generator's level through one
    256-entry table (`_level_table`).  Every lane left is below 2^m <= 2^8,
    so its low byte holds it.
    """
    b_rows, a_rows, _ = _preservation_congruences(code, modulus_log2)
    gens = kernel_mod_power_of_two(b_rows, code.n, modulus_log2)
    mod, count = 1 << modulus_log2, len(gens)
    widest = max(map(len, itertools.chain(b_rows, (qubits for _, qubits in a_rows))), default=0)
    nbytes = (modulus_log2 + widest.bit_length() + 7) // 8
    flat = bytes(itertools.chain.from_iterable(gens))
    packed = [_pack(flat[i :: code.n], nbytes) for i in range(code.n)]
    ones = _pack([1] * count, nbytes)
    low_bits = {1 << k: ones * ((mod >> k) - 1) for k in range(modulus_log2)}  # by row weight
    failed = 0
    for row in b_rows:
        failed |= sum(map(packed.__getitem__, row)) & low_bits[next(iter(row.values()))]
    preserving = [not x for x in _low_bytes(failed, count, nbytes)]
    acted = 0  # the OR of every a-row's masked sums
    for t, qubits in a_rows:
        acted |= sum(map(packed.__getitem__, qubits)) & low_bits[1 << (len(t) - 1)]
    levels = _low_bytes(acted, count, nbytes).translate(_level_table(modulus_log2))
    return gens, preserving, levels


@functools.cache
def _level_table(modulus_log2: int) -> bytes:
    """The `bytes.translate` table taking a lane value c < 2^m to the level
    m - v2(c), and 0 to 0."""
    levels = [modulus_log2 + 1 - (c & -c).bit_length() for c in range(1, 1 << modulus_log2)]
    return bytes([0, *levels]).ljust(256, b"\0")


class NogoReport(NamedTuple):
    modulus_log2: int
    generator_count: int
    levels: tuple[int, ...]
    max_level: int
    all_preserve: bool

    def to_json(self) -> dict:
        return {
            "modulus_log2": self.modulus_log2,
            "generator_count": self.generator_count,
            "max_level": self.max_level,
            "all_preserve": self.all_preserve,
            "clifford_bound_respected": self.max_level <= 2,
        }


def transversal_nogo_harness(code: CssCode, modulus_log2: int) -> NogoReport:
    """Survey every codespace-preserving transversal diagonal family.

    Solves the b-row congruences for f(x) = sum c_i x_i over Z_{2^m} and
    reads the level of each solution-module generator's logical action off
    the a-rows in bulk (`_linear_survey`): every generator's level comes
    from one OR of the a-rows' packed sums, by the rule `hierarchy_level`
    applies to a polynomial's terms, so no action is built per generator.
    `all_preserve` is the exact check that every generator satisfies every
    b-row, so every combination preserves the codespace too.  A
    combination's level never exceeds its summands' largest, since v2 of a
    sum is at least the smaller v2, so no combination is drawn.  The
    maximum-level generator is confirmed through `preserves_codespace`,
    `logical_action` and `hierarchy_level`, and a disagreement raises
    AssertionError.  For hypergraph product codes with distance >= 3 the
    maximum must come out <= 2 (Clifford).
    """
    if not 1 <= modulus_log2 <= MAX_MODULUS_LOG2:
        raise ValueError(f"modulus_log2 must be >= 1 and <= {MAX_MODULUS_LOG2}")
    gens, preserving, levels = _linear_survey(code, modulus_log2)
    if gens:
        w = max(range(len(gens)), key=levels.__getitem__)
        f = PhasePolynomial._of(
            code.n, modulus_log2, {(i,): c for i, c in enumerate(gens[w]) if c}
        )
        preserves = bool(preserves_codespace(f, code, copies=1))
        if preserves != preserving[w] or (
            preserves and hierarchy_level(logical_action(f, code, copies=1)) != levels[w]
        ):
            raise AssertionError(
                "the a-row survey and the pullback disagree on the maximum-level generator"
            )
    return NogoReport(
        modulus_log2=modulus_log2,
        generator_count=len(gens),
        levels=tuple(levels),
        max_level=max(levels, default=0),
        all_preserve=all(preserving),
    )
