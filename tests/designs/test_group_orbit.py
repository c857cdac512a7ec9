"""Tests for projective-line group actions and orbit designs."""

import pytest

from repro.designs.group_orbit import (
    frobenius_permutation,
    orbit_of_block,
    pgammal2_generators,
    pgl2_generators,
    psl2_generators,
    search_orbit_steiner,
)


def is_permutation(perm, size):
    return sorted(perm) == list(range(size))


class TestGenerators:
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
    def test_pgl_generators_are_permutations(self, q):
        for perm in pgl2_generators(q):
            assert is_permutation(perm, q + 1)

    @pytest.mark.parametrize("q", [5, 9, 13])
    def test_psl_generators_are_permutations(self, q):
        for perm in psl2_generators(q):
            assert is_permutation(perm, q + 1)

    def test_frobenius_fixes_prime_subfield(self):
        perm = frobenius_permutation(9)
        # GF(3) = {0, 1, 2} lives inside GF(9) as the prime field.
        assert perm[0] == 0 and perm[1] == 1
        assert perm[9] == 9  # infinity fixed
        assert is_permutation(perm, 10)

    def test_pgammal_includes_frobenius(self):
        gens = pgammal2_generators(9)
        assert len(gens) == 4

    def test_group_order_pgl(self):
        # |PGL(2,5)| = 120: closure of generators acting on tuples.
        q = 5
        gens = pgl2_generators(q)
        identity = tuple(range(q + 1))
        seen = {identity}
        frontier = [identity]
        while frontier:
            current = frontier.pop()
            for gen in gens:
                image = tuple(gen[current[i]] for i in range(q + 1))
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
        assert len(seen) == q * (q * q - 1)


class TestOrbits:
    def test_orbit_closure_under_generators(self):
        gens = pgl2_generators(5)
        orbit = orbit_of_block({0, 1, 2}, gens)
        for block in orbit:
            for gen in gens:
                assert frozenset(gen[p] for p in block) in orbit

    def test_pgl_is_3_transitive_on_triples(self):
        # One orbit = all C(6,3) triples of PG(1,5).
        orbit = orbit_of_block({0, 1, 5}, pgl2_generators(5))
        assert len(orbit) == 20


class TestOrbitSearch:
    def test_witt_design_found_under_psl_2_11(self):
        design = search_orbit_steiner(12, 6, 5, psl2_generators(11))
        assert design is not None
        assert design.num_blocks == 132
        assert design.is_design(5, 1)

    def test_returns_none_when_divisibility_fails(self):
        # C(7,2)/C(4,2) is not integral: no S(2,4,7).
        assert search_orbit_steiner(7, 4, 2, pgl2_generators(7)[:1]) is None

    def test_returns_none_when_no_invariant_design(self):
        # SQS(10) exists but is not a single PSL(2,9) orbit (discovered
        # during development; the DLX path covers construction instead).
        assert search_orbit_steiner(10, 4, 3, psl2_generators(9)) is None
