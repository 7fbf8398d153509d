"""The finite-level pairing: values, bilinearity, nondegeneracy, and the
double-dual evaluation identity; the scan's nondegeneracy flags against a
search through the public `pair`."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bidual_eval, circle_add, prufer_add, rand_prufer
from tatedual import duality
from tatedual.duality import CIRCLE_ZERO, CircleElement, pair, perfectness_check
from tatedual.errors import DomainError, PrecisionError
from tatedual.gamma import PruferElement, prufer_image
from tatedual.numutil import factorize
from tatedual.padic import PAdicInt, padic_from_integer


def F(*args):
    return Fraction(*args)


# --- pairing values --------------------------------------------------------

def test_pair_examples():
    z0 = padic_from_integer(0, 2, 4)
    assert pair(z0, PruferElement(2, 3, 3)) == CIRCLE_ZERO

    one = padic_from_integer(1, 3, 4)
    g = PruferElement(3, 2, 4)
    assert pair(one, g).value == F(4, 9)  # unit acts as plain inclusion

    z = padic_from_integer(5, 2, 3)
    assert pair(z, PruferElement(2, 3, 1)).value == F(5, 8)


def test_pair_depends_only_on_low_digits():
    g = PruferElement(2, 3, 1)
    base = padic_from_integer(5, 2, 3)
    rng = random.Random(3)
    for _ in range(20):
        extended = PAdicInt(2, base.digits + tuple(rng.randrange(2) for _ in range(5)))
        assert pair(extended, g) == pair(base, g)


def test_pair_rejections():
    z = padic_from_integer(1, 2, 2)
    with pytest.raises(DomainError, match="mismatch"):
        pair(z, PruferElement(3, 1, 1))
    with pytest.raises(PrecisionError) as exc:
        pair(z, PruferElement(2, 5, 3))
    assert exc.value.required_precision == 5


def test_bidual_examples():
    z = padic_from_integer(7, 3, 4)
    assert bidual_eval(PruferElement(3, 0, 0), z) == CIRCLE_ZERO

    z = padic_from_integer(2, 3, 3)
    assert bidual_eval(PruferElement(3, 1, 1), z).value == F(2, 3)

    z = padic_from_integer(3, 2, 4)
    assert bidual_eval(PruferElement(2, 2, 3), z).value == F(1, 4)


def test_bidual_matches_pair_on_random_inputs():
    rng = random.Random(5)
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        g = rand_prufer(rng, p, 6)
        z = padic_from_integer(rng.randrange(0, p ** 8), p, rng.randint(max(g.level, 1), 10))
        assert bidual_eval(g, z) == pair(z, g)


# --- bilinearity -----------------------------------------------------------

def test_additive_in_z():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        g = rand_prufer(rng, p, 5)
        n = max(g.level, 1) + rng.randint(0, 3)
        z1 = padic_from_integer(rng.randrange(p ** n), p, n)
        z2 = padic_from_integer(rng.randrange(p ** n), p, n)
        assert pair(z1 + z2, g) == circle_add(pair(z1, g), pair(z2, g))


def test_additive_in_gamma():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        g1 = rand_prufer(rng, p, 5)
        g2 = rand_prufer(rng, p, 5)
        both = prufer_add(g1, g2)
        n = max(g1.level, g2.level, both.level, 1)
        z = padic_from_integer(rng.randrange(p ** n), p, n)
        assert pair(z, both) == circle_add(pair(z, g1), pair(z, g2))


# --- kernel characterization ------------------------------------------------

def test_kernel_is_exactly_multiples_of_p_to_n():
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        mod = p ** n
        torsion = [prufer_image(F(c, mod), p) for c in range(mod)]
        for z_val in range(mod):
            z = padic_from_integer(z_val, p, n)
            vanishes = all(pair(z, g) == CIRCLE_ZERO for g in torsion)
            assert vanishes == (z_val % mod == 0)


# --- perfectness -----------------------------------------------------------

def test_perfectness_small_levels():
    report = perfectness_check(2, 3)
    assert report.perfect
    assert report.modulus == 8
    assert report.counterexamples == ()

    assert perfectness_check(3, 1).perfect


def test_perfectness_level_zero_vacuous():
    report = perfectness_check(7, 0)
    assert report.perfect
    assert report.modulus == 1


def test_perfectness_guard():
    with pytest.raises(DomainError, match="guard"):
        perfectness_check(2, 21)
    with pytest.raises(DomainError):
        perfectness_check(2, -1)


def pair_nondegeneracy(p, level):
    """(left, right) nondegeneracy at level >= 1, searched element by element
    through `pair`: every residue z != 0 and every torsion element g != 0
    needs a partner it pairs with nontrivially."""
    modulus = p ** level
    torsion = [prufer_image(F(c, modulus), p) for c in range(modulus)]
    residues = [padic_from_integer(z, p, level) for z in range(modulus)]
    left = all(any(pair(z, g) != CIRCLE_ZERO for g in torsion) for z in residues[1:])
    right = all(any(pair(z, g) != CIRCLE_ZERO for z in residues) for g in torsion[1:])
    return left, right


def nondegeneracy(report):
    return report.left_nondegenerate, report.right_nondegenerate


@settings(deadline=None, max_examples=10)
@given(case=st.sampled_from(
    [(p, k) for p in (2, 3, 5, 7) for k in range(1, 13) if p ** k <= 4096]))
def test_scan_nondegeneracy_matches_pair_search(case):
    assert nondegeneracy(perfectness_check(*case)) == pair_nondegeneracy(*case)


@settings(deadline=None, max_examples=5)
@given(p=st.sampled_from([n for n in range(11, 2048) if factorize(n) == {n: 1}]))
def test_scan_nondegeneracy_matches_pair_search_at_large_primes(p):
    assert nondegeneracy(perfectness_check(p, 1)) == pair_nondegeneracy(p, 1)


def test_perfect_table_pairs_nothing_and_builds_no_elements(monkeypatch):
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(duality, "pair", counted("pair", duality.pair))
    for cls in (PAdicInt, PruferElement):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    assert perfectness_check(3, 5).perfect
    assert calls == []
    # the counters are live: one pairing by hand trips all three
    duality.pair(padic_from_integer(1, 3, 1), PruferElement(3, 1, 1))
    assert calls == ["PAdicInt", "PruferElement", "pair"]


def test_circle_element_validation_and_addition():
    with pytest.raises(DomainError):
        CircleElement(F(3, 2))
    assert circle_add(CircleElement(F(2, 3)), CircleElement(F(2, 3))).value == F(1, 3)
