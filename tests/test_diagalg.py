"""Tests for exact arithmetic in the diagram algebra.

The descending Murphy element, the symmetrizer, the star flip and the
generators s_k, p_k and p_(k+1/2) live here, beside the only identities
and reference products that use them.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import clear_memos
from stablekron import diagalg
from stablekron.branching import (
    NotAPath, Tableau, enumerate_std, error_path, is_dvir, remove_box,
    swap_adjacent,
)
from stablekron.diagalg import (
    Diagram, Element, NotDvir, RankMismatch, SwapUndefined, _half_coeff,
    _int_coeff, dvir_diagram_check, e_half, e_int, maximal_path, multiply,
    murphy_u, s_range, verify_thm33,
)
from stablekron.partitions import partition, partitions_up_to, size


def diagram_star(d: Diagram) -> Diagram:
    """Flip top and bottom rows."""
    flip = lambda c: c + d.r if c <= d.r else c - d.r
    return Diagram(d.r, [tuple(flip(c) for c in b) for b in d.blocks])


def element_star(u: Element) -> Element:
    """Flip top and bottom rows of every diagram of u."""
    return Element(u.r, {(diagram_star(d), e): c
                         for (d, e), c in u.terms.items()})


def murphy_d(t):
    """The descending Murphy element: down coefficients, bottom level first."""
    r = len(t.steps)
    out = Element.one(r)
    for k, (a, b) in enumerate(t.steps):
        lam, nu = t.shapes[k], t.shapes[k + 1]
        out = (out * _int_coeff(k, lam, a, r)
               * _half_coeff(k, remove_box(lam, a), nu, b, r))
    return out


def x_element(nu, r: int) -> Element:
    """The idempotent-times-symmetrizer appearing in the round-trip
    identity for Murphy elements: e_int times the sum of the permutation
    diagrams of the Young subgroup acting on the consecutive strand
    blocks cut out by nu (identity beyond |nu|)."""
    blocks = []
    pos = 1
    for row in partition(nu):
        blocks.append(list(range(pos, pos + row)))
        pos += row
    young = Element(r)
    for choice in product(*[list(permutations(b)) for b in blocks]):
        image = {j: j for j in range(1, r + 1)}
        for block, images in zip(blocks, choice):
            image.update(zip(block, images))
        d = Diagram(r, [(j, r + image[j]) for j in range(1, r + 1)])
        young = young + Element.from_diagram(d)
    return Element.from_diagram(e_int(r, r - size(nu), r)) * young


def random_diagram(rng, r):
    """A uniform-ish random set partition of the 2r points."""
    blocks = {}
    for pt in range(1, 2 * r + 1):
        key = rng.randrange(1, pt + 2)
        blocks.setdefault(min(key, len(blocks) + 1), []).append(pt)
    return Diagram(r, blocks.values())


def random_permutation(rng, r):
    """A uniform random permutation diagram: every block joins one
    southern point to one northern point."""
    image = list(range(1, r + 1))
    rng.shuffle(image)
    return Diagram(r, [(j, r + m) for j, m in enumerate(image, start=1)])


def _reference_multiply(x: Diagram, y: Diagram) -> tuple[Diagram, int]:
    """The product by a union-find over the points of the three rows:
    the reference for multiply's union-find over block labels."""
    if x.r != y.r:
        raise RankMismatch(f"ranks {x.r} and {y.r} differ")
    r = x.r
    parent = list(range(3 * r + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for block in y.blocks:
        for c in block[1:]:
            union(block[0], c)
    for block in x.blocks:
        mapped = [c + r for c in block]
        for c in mapped[1:]:
            union(mapped[0], c)

    comps: dict[int, list[int]] = {}
    for pt in range(1, 3 * r + 1):
        comps.setdefault(find(pt), []).append(pt)

    loops = 0
    blocks = []
    for members in comps.values():
        outer = [m if m <= r else m - r for m in members if m <= r or m > 2 * r]
        if outer:
            blocks.append(outer)
        elif all(r < m <= 2 * r for m in members):
            loops += 1
    return Diagram(r, blocks), loops


class TestDiagrams:
    def test_canonical_form_and_str(self):
        d = Diagram(2, [(4,), (2, 1, 3)])
        assert str(d) == "{1,2,1'}{2'}"
        assert d == Diagram(2, [(3, 2, 1), (4,)])

    def test_partition_check(self):
        with pytest.raises(ValueError):
            Diagram(2, [(1, 2), (2, 3, 4)])
        with pytest.raises(ValueError):
            Diagram(2, [(1, 2), (3,)])
        with pytest.raises(ValueError):
            Diagram(1, [(1, 2), ()])

    def test_labels_are_canonical(self):
        # a diagram is the tuple of its canonical labels: shuffling the
        # blocks and the points inside them changes neither the tuple nor
        # the hash, and blocks reads back the sorted form
        rng = random.Random(7)
        for _ in range(500):
            d = random_diagram(rng, rng.randint(1, 6))
            blocks = [list(b) for b in d.blocks]
            for b in blocks:
                rng.shuffle(b)
            rng.shuffle(blocks)
            e = Diagram(d.r, blocks)
            by_least = sorted(blocks, key=min)
            labels = tuple(next(i for i, b in enumerate(by_least) if pt in b)
                           for pt in range(1, 2 * d.r + 1))
            assert isinstance(e, tuple) and e == labels
            assert e == d and hash(e) == hash(d)
            assert e.blocks == tuple(sorted(tuple(sorted(b)) for b in blocks))
            assert e[0] == 0 and max(e) == len(blocks) - 1
        for r in range(4):
            for _ in range(5):
                assert random_diagram(rng, r).r == r
        assert Diagram(0, []).r == 0
        # one block of all the points, at ranks 1 and 2
        assert Diagram(1, [(1, 2)]) != Diagram(2, [(1, 2, 3, 4)])

    def test_star_is_involutive_flip(self):
        assert diagram_star(gen_p(1, 2)) == gen_p(1, 2)
        d = Diagram(2, [(1, 2, 3), (4,)])
        assert str(diagram_star(d)) == "{1,1',2'}{2}"
        assert diagram_star(diagram_star(d)) == d

    def test_identity_is_unit(self):
        rng = random.Random(11)
        for r in (1, 2, 3, 4):
            e = Diagram.identity(r)
            for _ in range(10):
                d = random_diagram(rng, r)
                assert multiply(e, d) == (d, 0)
                assert multiply(d, e) == (d, 0)

    def test_generator_products(self):
        p = gen_p(1, 1)
        assert multiply(p, p) == (p, 1)  # closed middle loop scales by n
        s = gen_s(1, 2)
        assert multiply(s, s) == (Diagram.identity(2), 0)
        ph = gen_p_half(1, 2)
        assert multiply(ph, ph) == (ph, 0)

    def test_multiply_is_associative(self):
        rng = random.Random(23)
        for r in (1, 2, 3, 4):
            for _ in range(12):
                x = Element.from_diagram(random_diagram(rng, r))
                y = Element.from_diagram(random_diagram(rng, r))
                z = Element.from_diagram(random_diagram(rng, r))
                assert (x * y) * z == x * (y * z)

    def test_multiply_matches_union_find(self):
        # equality gate for the label product: 20,000 seeded pairs, a
        # quarter each with a permutation on the left, on the right, on
        # both sides and on neither
        rng = random.Random(20_000)
        kinds = [(random_permutation, random_diagram),
                 (random_diagram, random_permutation),
                 (random_permutation, random_permutation),
                 (random_diagram, random_diagram)]
        for i in range(20_000):
            r = rng.randint(1, 6)
            left, right = kinds[i % 4]
            x, y = left(rng, r), right(rng, r)
            got, want = multiply(x, y), _reference_multiply(x, y)
            assert got[0].blocks == want[0].blocks and got[1] == want[1], (x, y)

    def test_first_seen_matches_dict_renumbering(self):
        # equality gate: _first_seen equals a dict renumbering on every
        # label tuple of length <= 6 over 0..5
        def reference(labels):
            names = {}
            return tuple(names.setdefault(c, len(names)) for c in labels)
        for k in range(7):
            for labels in product(range(6), repeat=k):
                assert tuple(diagalg._first_seen(labels)) == \
                    reference(labels), labels

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            multiply(gen_p(1, 1), gen_p(1, 2))
        with pytest.raises(RankMismatch):
            multiply(gen_s(1, 2), gen_s(1, 3))
        with pytest.raises(RankMismatch):
            Element.one(1) + Element.one(2)


class TestElements:
    def test_linear_structure(self):
        one = Element.one(2)
        p = Element.from_diagram(gen_p(1, 2))
        assert one + p - p == one
        assert (p - p) == Element(2)

    def test_one_diagram_at_two_powers_is_two_terms(self):
        p = Element.from_diagram(gen_p(1, 1))
        assert (p * p - p).terms == {(gen_p(1, 1), 1): 1, (gen_p(1, 1), 0): -1}
        assert p * p - p * p == Element(1)

    def test_star_reverses_products(self):
        rng = random.Random(5)
        for r in (2, 3):
            for _ in range(8):
                x = Element.from_diagram(random_diagram(rng, r))
                y = Element.from_diagram(random_diagram(rng, r))
                assert element_star(x * y) == element_star(y) * element_star(x)

    def test_loop_coefficient_is_polynomial(self):
        p = Element.from_diagram(gen_p(1, 1))
        sq = p * p
        assert sq.terms == {(gen_p(1, 1), 1): 1}  # n * p

    def test_other_operands_are_not_implemented(self):
        # a diagram is a tuple, not an element: arithmetic with one, or
        # with any scalar, ints included, raises TypeError rather than
        # reading the operand's attributes
        one, s = Element.one(2), gen_s(1, 2)
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y):
            for x, y in ((one, s), (s, one), (one, 1.5), (one, "x"),
                         (one, 3), (3, one)):
                with pytest.raises(TypeError):
                    op(x, y)
        for other in (s, 1, None):
            assert one.__eq__(other) is NotImplemented
            assert one != other
        assert one == Element.from_diagram(Diagram.identity(2))


# -- generators --------------------------------------------------------------


def gen_s(k: int, r: int) -> Diagram:
    """The transposition of strands k and k+1."""
    if not 1 <= k <= r - 1:
        raise IndexError(f"s_{k} needs 1 <= k <= r-1={r - 1}")
    blocks = [(j, r + j) for j in range(1, r + 1) if j not in (k, k + 1)]
    blocks += [(k, r + k + 1), (k + 1, r + k)]
    return Diagram(r, blocks)


def gen_p(k: int, r: int) -> Diagram:
    """The diagram isolating strand k into two singletons."""
    if not 1 <= k <= r:
        raise IndexError(f"p_{k} needs 1 <= k <= r={r}")
    blocks = [(j, r + j) for j in range(1, r + 1) if j != k]
    blocks += [(k,), (r + k,)]
    return Diagram(r, blocks)


def gen_p_half(k: int, r: int) -> Diagram:
    """The diagram merging strands k and k+1 into one 4-point block."""
    if not 1 <= k <= r - 1:
        raise IndexError(f"p_{k}+1/2 needs 1 <= k <= r-1={r - 1}")
    blocks = [(j, r + j) for j in range(1, r + 1) if j not in (k, k + 1)]
    blocks += [(k, k + 1, r + k, r + k + 1)]
    return Diagram(r, blocks)


def _generator_product(gens, r: int) -> Element:
    out = Element.one(r)
    for d in gens:
        out = out * Element.from_diagram(d)
    return out


def _reference_factor(name: str, x: int, y: int, r: int) -> Element:
    """e_int, e_half and s_range as products of the generators, with
    their identity and undefined-argument conventions."""
    if name == "s_range":
        l, k = x, y
        if l == 0 or k == 0:
            return Element.one(r)
        js = range(l, k) if l < k else range(l - 1, k - 1, -1)
        return _generator_product([gen_s(j, r) for j in js], r)
    k, l = x, y
    if k == 0 or l == 0:
        return Element.one(r)
    if l < 0 or k - l + 1 < 1:
        raise ValueError(f"{name}({k}, {l}) is not defined")
    gen = gen_p if name == "e_int" else gen_p_half
    return _generator_product([gen(j, r) for j in range(k - l + 1, k + 1)], r)


class TestConventions:
    def test_s_range(self):
        r = 4
        assert s_range(0, 3, r) == Diagram.identity(r)
        assert s_range(2, 0, r) == Diagram.identity(r)
        assert s_range(3, 3, r) == Diagram.identity(r)
        chain = Element.from_diagram(gen_s(2, r)) \
            * Element.from_diagram(gen_s(3, r))
        assert chain.terms == {(s_range(2, 4, r), 0): 1}
        # southern 2, 3, 4 go to northern 3, 4, 2, and back when k < l
        assert str(s_range(2, 4, r)) == "{1,1'}{2,3'}{3,4'}{4,2'}"
        assert str(s_range(4, 2, r)) == "{1,1'}{2,4'}{3,2'}{4,3'}"

    def test_e_factors(self):
        assert e_int(3, 0, 4) == Diagram.identity(4)
        assert e_int(0, 2, 4) == Diagram.identity(4)
        assert str(e_int(2, 2, 4)) == "{1}{2}{3,3'}{4,4'}{1'}{2'}"
        assert str(e_half(2, 2, 4)) == "{1,2,3,1',2',3'}{4,4'}"
        with pytest.raises(ValueError):
            e_int(1, 3, 4)
        with pytest.raises(ValueError):
            e_half(1, -1, 4)

    def test_factors_match_generator_products(self):
        # equality gate for the closed forms: every argument pair from -1
        # to r+2 at every rank r <= 6 gives the product of the generators,
        # as a diagram at power 0, or the same error; strands outside
        # 1..r raise IndexError, as the generators do
        names = {"e_int": e_int, "e_half": e_half, "s_range": s_range}
        outcomes = Counter()
        for r in range(7):
            for name, factor in names.items():
                for x, y in product(range(-1, r + 3), repeat=2):
                    try:
                        want = _reference_factor(name, x, y, r)
                    except (IndexError, ValueError) as err:
                        with pytest.raises(type(err)):
                            factor(x, y, r)
                        outcomes[type(err).__name__] += 1
                        continue
                    got = factor(x, y, r)
                    assert isinstance(got, Diagram) and got.r == r
                    assert Element.from_diagram(got) == want, (name, x, y, r)
                    outcomes["product"] += 1
        # at rank r: products s_range r^2 + 2r + 10, e_int 2r + 7 +
        # r(r+1)/2, e_half 2r + 7 + r(r-1)/2; strands beyond the rank
        # s_range 6r + 6, e_int 2r + 3, e_half 3r + 3; e_int and e_half
        # undefined (l < 0 or l > k, neither 0) (r+3)(r+4)/2 each
        assert outcomes == {"product": 476, "IndexError": 315,
                            "ValueError": 322}


def special_path(nu, r):
    """Additions row by row, then dummies: the distinguished path used
    in the absorption identity."""
    steps = []
    for row, count in enumerate(nu, start=1):
        steps += [(0, row)] * count
    steps += [(0, 0)] * (r - size(nu))
    return Tableau((), steps)


def _reference_murphy_u(t):
    """The ascending Murphy element as the uncached top-down product of
    the up coefficients."""
    r = len(t.steps)
    out = Element.one(r)
    for k in range(r - 1, -1, -1):
        (a, b), lam, nu = t.steps[k], t.shapes[k], t.shapes[k + 1]
        out = (out * _int_coeff(k + 1, nu, b, r)
               * _half_coeff(k, remove_box(lam, a), lam, a, r))
    return out


class TestMurphyElements:
    def test_requires_empty_start(self):
        with pytest.raises(ValueError):
            murphy_u(Tableau((1,), [(0, 1)]))

    def test_requires_a_strand_per_step(self):
        # the rank is the number of steps, dummy steps included
        for steps in ([], [(0, 1)], [(0, 1), (1, 0), (0, 0)],
                      [(0, 1), (0, 1), (0, 2)]):
            t = Tableau((), steps)
            u = murphy_u(t)
            assert u.r == len(steps) and u == _reference_murphy_u(t)
        assert verify_thm33(t, 2)

    def test_matches_top_down_product(self):
        # equality gate for the level and prefix memos: every path from
        # the empty partition with r <= 5, from cold memos
        clear_memos()
        paths = 0
        for r in range(1, 6):
            for nu in partitions_up_to(r):
                for t in enumerate_std((), nu, r):
                    want = _reference_murphy_u(t)
                    assert murphy_u(t).terms == want.terms, t
                    paths += 1
        assert paths == 1203

    def test_matches_union_find_products(self, monkeypatch):
        # equality gate for the label product: every path from the
        # empty partition with r <= 5, against Murphy elements built with
        # the point-level union-find throughout, each side from cold memos
        paths = [t for r in range(1, 6) for nu in partitions_up_to(r)
                 for t in enumerate_std((), nu, r)]
        assert len(paths) == 1203
        clear_memos()
        fast = [murphy_u(t).terms for t in paths]
        monkeypatch.setattr(diagalg, "multiply", _reference_multiply)
        clear_memos()
        try:
            slow = [murphy_u(t).terms for t in paths]
        finally:
            clear_memos()
        assert fast == slow

    def test_times_s_matches_product(self):
        # equality gate for the label transposition: every Murphy element
        # of every path from the empty partition with 3 <= r <= 5, at
        # every k, against the product with the diagram of s_k
        cases = 0
        for r in range(3, 6):
            gens = [Element.from_diagram(gen_s(k, r)) for k in range(1, r)]
            for nu in partitions_up_to(r):
                for t in enumerate_std((), nu, r):
                    u = murphy_u(t)
                    for k, s in enumerate(gens, start=1):
                        assert u.times_s(k) == u * s, (t, k)
                        cases += 1
        assert cases == 4550

    def test_times_s_rejects_missing_generator(self):
        u = Element.one(3)
        for k in (0, 3):
            with pytest.raises(IndexError):
                u.times_s(k)

    def test_cached_element_survives_arithmetic(self):
        r = 4
        paths = enumerate_std((), (2, 1), r)
        t, other = paths[0], paths[-1]
        want = _reference_murphy_u(t)
        u, v = murphy_u(t), murphy_u(other)
        s = Element.from_diagram(gen_s(1, r))
        # the arithmetic the sweeps do, then an in-place edit of the copy
        u * s, s * u, u.times_s(1), u + v, u - v, -u, element_star(u)
        u.terms.clear()
        assert murphy_u(t) == want
        assert murphy_u(other) == _reference_murphy_u(other)

    def test_absorption_identity(self):
        # d of the special path absorbs into u of any path to the same
        # shape, and u factors through the symmetrizer
        for r in (1, 2, 3):
            for nu in partitions_up_to(r):
                sp = special_path(nu, r)
                for t in enumerate_std((), nu, r):
                    u = murphy_u(t)
                    assert murphy_d(sp) * u == u
                    assert u == x_element(nu, r) * element_star(murphy_d(t))

    def test_star_duality(self):
        for r in (1, 2, 3):
            for nu in partitions_up_to(r):
                paths = enumerate_std((), nu, r)
                for s in paths:
                    for t in paths:
                        lhs = element_star(murphy_d(s) * murphy_u(t))
                        assert lhs == murphy_d(t) * murphy_u(s)

    def test_northern_points_beyond_shape_are_singletons(self):
        for r in (1, 2, 3, 4):
            for nu in partitions_up_to(r):
                for t in enumerate_std((), nu, r):
                    u = murphy_u(t)
                    for d, _ in u.terms:
                        for pt in range(r + size(nu) + 1, 2 * r + 1):
                            assert (pt,) in d.blocks, (t, d)

    def test_basis_linear_independence_rank_two(self):
        # the 15 products d_s u_t at r = 2 are linearly independent: full
        # rank after specializing n (exact rational elimination)
        r, n = 2, 5
        vectors = []
        for nu in partitions_up_to(r):
            paths = enumerate_std((), nu, r)
            for s in paths:
                for t in paths:
                    el = murphy_d(s) * murphy_u(t)
                    vec = {}
                    for (d, e), c in el.terms.items():
                        vec[str(d)] = vec.get(str(d), 0) + c * n ** e
                    vectors.append(vec)
        assert len(vectors) == 15
        keys = sorted({k for v in vectors for k in v})
        matrix = [[Fraction(v.get(k, 0)) for k in keys] for v in vectors]
        rank = 0
        for col in range(len(keys)):
            pivot = next((i for i in range(rank, len(matrix))
                          if matrix[i][col] != 0), None)
            if pivot is None:
                continue
            matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
            for i in range(len(matrix)):
                if i != rank and matrix[i][col] != 0:
                    factor = matrix[i][col] / matrix[rank][col]
                    matrix[i] = [a - factor * b
                                 for a, b in zip(matrix[i], matrix[rank])]
            rank += 1
        assert rank == 15


class TestSwapIdentity:
    def test_exhaustive_rank_two(self):
        for nu in partitions_up_to(2):
            for t in enumerate_std((), nu, 2):
                if swap_adjacent(t, 1) is None:
                    continue
                assert verify_thm33(t, 1)

    def test_dummy_correction_case(self):
        # a case where the rerouted correction path exists and is nonzero
        t = Tableau((), [(0, 1), (0, 1), (1, 0)])
        assert error_path(t, 2) is not None
        assert verify_thm33(t, 2)

    def test_undefined_swap_raises(self):
        # from the empty partition a box in row 2 cannot come first
        t = Tableau((), [(0, 1), (0, 2)])
        assert swap_adjacent(t, 1) is None
        with pytest.raises(SwapUndefined):
            verify_thm33(t, 1)


class TestRadicalDiagrams:
    RADICAL_PATH = Tableau((2, 1), [(2, 2), (0, 2), (2, 0)])
    # radical (it removes two boxes from row 1 of (1,)); it ends at ()
    # after 3 steps
    SHORT_RADICAL_PATH = Tableau((1,), [(1, 0), (0, 1), (1, 0)])

    def test_displayed_expansion(self):
        # the composed Murphy element of the displayed radical path
        # expands into exactly these four unit-coefficient diagrams
        full = Tableau((), maximal_path((2, 1)).steps
                       + self.RADICAL_PATH.steps)
        u = murphy_u(full)
        expansion = {(str(d), e): c for (d, e), c in u.terms.items()}
        assert expansion == {
            ("{1,1'}{2,2'}{3,4,6}{5,3'}{4'}{5'}{6'}", 0): 1,
            ("{1,1'}{2,2'}{3,4,3'}{5,6}{4'}{5'}{6'}", 0): 1,
            ("{1,2'}{2,1'}{3,4,6}{5,3'}{4'}{5'}{6'}", 0): 1,
            ("{1,2'}{2,1'}{3,4,3'}{5,6}{4'}{5'}{6'}", 0): 1,
        }

    def test_maximal_path(self):
        assert maximal_path((2, 1)).steps == ((0, 1),) * 2 + ((0, 2),)
        assert maximal_path((2, 1)).shapes == ((), (1,), (2,), (2, 1))
        assert maximal_path(()).steps == ()

    def test_displayed_path_passes(self):
        assert is_dvir(self.RADICAL_PATH) == 2
        assert dvir_diagram_check(self.RADICAL_PATH)

    def test_wrong_end_rejected(self):
        # the end shape is read off the path, so a path ending below its
        # start checks out on |lam| + s = 4 strands, and one stepping
        # past the empty partition is not a path at all
        t = self.SHORT_RADICAL_PATH
        assert is_dvir(t) == 1 and t.end == ()
        assert dvir_diagram_check(t)
        full = Tableau((), maximal_path(t.start).steps + t.steps)
        assert murphy_u(full).r == 4
        with pytest.raises(NotAPath, match="cannot step"):
            Tableau(t.start, t.steps + ((1, 0),))

    def test_wrong_step_count_rejected(self):
        # the step count is read off the path: the shorter prefixes of
        # the radical path are not radical, and longer radical paths are
        # checked on their own number of strands
        t = self.SHORT_RADICAL_PATH
        for s in (0, 1, 2):
            prefix = Tableau(t.start, t.steps[:s])
            with pytest.raises(NotDvir):
                dvir_diagram_check(prefix)
        for last in ((0, 1), (0, 0)):
            longer = Tableau(t.start, t.steps + (last,))
            assert is_dvir(longer) is not None
            assert dvir_diagram_check(longer)
            full = Tableau((), maximal_path(t.start).steps + longer.steps)
            assert murphy_u(full).r == 5

    def test_identity_expansion_fails(self, monkeypatch):
        # the check can fail: were the composed Murphy element the
        # identity, the s = 3 southern points above r - s = 3 would each
        # join a northern point, three blocks where at most two may
        monkeypatch.setattr(diagalg, "murphy_u",
                            lambda t: Element.one(len(t.steps)))
        assert not dvir_diagram_check(self.RADICAL_PATH)

    def test_not_dvir_rejected(self):
        t = Tableau((2, 1), [(0, 1), (1, 0)])
        assert is_dvir(t) is None
        with pytest.raises(NotDvir):
            dvir_diagram_check(t)

    def test_dummy_position_gives_southern_singleton(self):
        # paths whose radical membership comes from a dummy step leave
        # the corresponding southern point isolated in every diagram
        lam = (2,)
        for t in enumerate_std(lam, (2,), 2):
            if is_dvir(t) != 0:
                continue
            full = Tableau((), maximal_path(lam).steps + t.steps)
            u = murphy_u(full)
            for k, st in enumerate(full.steps, start=1):
                if st != (0, 0):
                    continue
                for d, _ in u.terms:
                    assert (k,) in d.blocks
