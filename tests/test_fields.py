import random
from fractions import Fraction

import pytest

from modgeo.errors import (
    InvalidInputError,
    NotTotallyRealError,
    SquarefreeRequiredError,
    WrongSignatureError,
)
from modgeo.fields import (
    _rational_roots,
    alternating_matrix,
    enumerate_rm_types,
    find_compatible_symplectic,
    hilbert_special_point,
    isolate_real_roots,
    number_field,
    pfaffian,
    siegel_special_point,
    subfield_embed,
    verify_hilbert_lilac,
    verify_psi,
)
from modgeo.parse import parse_intpoly
from modgeo.polyutil import (
    count_real_roots,
    is_squarefree,
    peval,
    pmul,
    pnormalize,
    sturm_chain,
    variations_at_infinity,
)
from oracles import (
    BETA,
    I_BETA,
    MINUS_BETA,
    divisor_rational_roots,
    qib_embedding_vector,
    qib_is_zero,
    qib_pairing,
    scan_compatible_symplectic,
)

E_SQRT2 = number_field((-2, 0, 1))
F_BIQUAD = number_field((1, 0, -10, 0, 1))
K_QUARTIC = number_field((-2, 0, 0, 0, 1))


class TestNumberField:
    def test_reducible_rejected(self):
        for coeffs in [(-1, 0, 0, 0, 1), (2, 0, 3, 0, 1), (4, 0, -4, 0, 1),
                       (-4, 0, 1), (4, -4, 1), (0, 1, 1), (0, 0, 1, 0, 1)]:
            with pytest.raises(InvalidInputError):
                number_field(coeffs)

    def test_normalization(self):
        nf = number_field((-4, 0, 2))
        assert nf.coeffs == (-2, 0, 1)
        nf2 = number_field((2, 0, -1))
        assert nf2.coeffs == (-2, 0, 1)

    def test_irreducible_accepted(self):
        for coeffs in [(-2, 0, 1), (1, 0, 1), (-2, 0, 0, 0, 1), (1, 0, -10, 0, 1),
                       (1, 0, 0, 0, 1), (-3, 1)]:
            number_field(coeffs)

    def test_unsupported_degree(self):
        with pytest.raises(InvalidInputError):
            number_field((1, 0, 0, 1))

    def test_rational_roots_match_divisor_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            p = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(0, 3)):  # rational linear factors
                p = list(pmul(p, (rng.randint(-5, 5), rng.randint(1, 4))))
            if rng.random() < 0.3:  # a repeated factor
                p = list(pmul(p, p[:2]))
            p = [int(c) for c in p]
            if any(p):
                assert _rational_roots(tuple(p)) == divisor_rational_roots(p)

    def test_large_coefficients(self):
        # trial division of these coefficients, or of the resolvent cubic's,
        # takes minutes
        number_field((-3, 0, 0, 0, 10**6 + 3))
        with pytest.raises(InvalidInputError):
            number_field(tuple(pmul((7, -(10**15), 1), (3, 0, 1))))
        s4 = siegel_special_point(number_field((1 - 10**8, 3, 10**8, 0, 1)))
        assert find_compatible_symplectic(s4, 2) is None
        d4 = siegel_special_point(number_field((-(10**12 + 39), 0, 0, 0, 1)))
        assert find_compatible_symplectic(d4, 1) == alternating_matrix((0, 0, -1, 1, 0, 0))


class TestIsolation:
    def test_signatures(self):
        assert isolate_real_roots((-2, 0, 0, 0, 1)).signature == (2, 1)
        assert isolate_real_roots((1, 0, -10, 0, 1)).signature == (4, 0)
        assert isolate_real_roots((1, 0, 1)).signature == (0, 1)

    def test_squarefree_required(self):
        with pytest.raises(SquarefreeRequiredError):
            isolate_real_roots((4, 0, -4, 0, 1))  # (x^2 - 2)^2

    def test_intervals_isolate(self):
        emb = isolate_real_roots((1, 0, -10, 0, 1))
        roots = emb.real_roots
        assert len(roots) == 4
        for a, b in zip(roots, roots[1:]):
            assert a.hi < b.lo
        for r in roots:
            assert peval(r.poly, r.lo) * peval(r.poly, r.hi) < 0

    def test_refinement_narrows(self):
        emb = isolate_real_roots((-2, 0, 0, 0, 1))
        r = emb.real_roots[1]
        w0 = r.width()
        r.refine_below(Fraction(1, 10**9))
        assert r.width() < Fraction(1, 10**9) < w0 or w0 <= Fraction(1, 10**9)

    def test_sturm_vs_infinity_variations_random(self):
        rng = random.Random(41)
        tried = 0
        while tried < 100:
            coeffs = tuple(rng.randint(-9, 9) for _ in range(4)) + (rng.randint(1, 9),)
            p = pnormalize(coeffs)
            if not is_squarefree(p):
                continue
            tried += 1
            chain = sturm_chain(p)
            expected = variations_at_infinity(chain, False) - variations_at_infinity(
                chain, True
            )
            assert count_real_roots(p) == expected
            emb = isolate_real_roots(coeffs)
            assert len(emb.real_roots) == expected


class TestSubfield:
    def test_sqrt2_in_biquadratic(self):
        s = subfield_embed(E_SQRT2, F_BIQUAD)
        assert s == (Fraction(0), Fraction(-9, 2), Fraction(0), Fraction(1, 2))

    def test_sqrt5_not_in_biquadratic(self):
        assert subfield_embed(number_field((-5, 0, 1)), F_BIQUAD) is None

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            subfield_embed(E_SQRT2, E_SQRT2)

    def test_verify_by_exact_squaring(self):
        # (alpha^3 - 9 alpha)/2 squared reduces to 2 modulo x^4 - 10x^2 + 1
        from modgeo.polyutil import pdivmod, pmul

        s = (Fraction(0), Fraction(-9, 2), Fraction(0), Fraction(1, 2))
        m = pnormalize((1, 0, -10, 0, 1))
        sq = pdivmod(pmul(s, s), m)[1]
        assert sq == (Fraction(2),)

    def test_sqrt3_and_sqrt6_also_embed(self):
        assert subfield_embed(number_field((-3, 0, 1)), F_BIQUAD) is not None
        assert subfield_embed(number_field((-6, 0, 1)), F_BIQUAD) is not None


class TestRMTypes:
    def test_paper_example_four_types(self):
        types = enumerate_rm_types(F_BIQUAD, E_SQRT2)
        assert len(types) == 4
        assert sorted(t.chosen for t in types) == [(0, 1), (0, 3), (2, 1), (2, 3)]
        for t in types:
            assert t.fibers == ((0, 2), (1, 3))

    def test_rational_base(self):
        types = enumerate_rm_types(E_SQRT2, number_field((0, 1)))
        assert len(types) == 2

    def test_wrong_signature(self):
        with pytest.raises(NotTotallyRealError):
            enumerate_rm_types(K_QUARTIC, E_SQRT2)

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            enumerate_rm_types(F_BIQUAD, number_field((0, 1)))


class TestHilbert:
    def test_special_points_verify(self):
        types = enumerate_rm_types(F_BIQUAD, E_SQRT2)
        lilacs = [hilbert_special_point(F_BIQUAD, E_SQRT2, t) for t in types]
        for lil in lilacs:
            cert = verify_hilbert_lilac(lil)
            assert cert["direct_sum"] is True
            assert cert["stable"] is True
            assert sorted(cert["sign_pattern"]) == [-1, -1, 1, 1]

    def test_swapping_choice_changes_projection(self):
        types = enumerate_rm_types(F_BIQUAD, E_SQRT2)
        l0 = hilbert_special_point(F_BIQUAD, E_SQRT2, types[0])
        l1 = hilbert_special_point(F_BIQUAD, E_SQRT2, types[1])
        assert l0.x_embeddings != l1.x_embeddings

    def test_rational_base_point(self):
        types = enumerate_rm_types(E_SQRT2, number_field((0, 1)))
        lil = hilbert_special_point(E_SQRT2, number_field((0, 1)), types[0])
        assert verify_hilbert_lilac(lil)["direct_sum"] is True


class TestSiegel:
    def test_example_dims(self):
        pt = siegel_special_point(K_QUARTIC)
        assert pt.dims == (1, 1, 2)

    def test_wrong_signatures(self):
        with pytest.raises(WrongSignatureError):
            siegel_special_point(F_BIQUAD)
        with pytest.raises(WrongSignatureError):
            siegel_special_point(number_field((1, 0, 0, 0, 1)))
        with pytest.raises(WrongSignatureError):
            siegel_special_point(E_SQRT2)

    def test_signature_sweep_small_biquadratics(self):
        # dims are (1,1,2) exactly when the signature is (2,1)
        swept = 0
        for a in range(-10, 11):
            for b in range(-10, 11):
                coeffs = (b, 0, a, 0, 1)
                try:
                    K = number_field(coeffs)
                except InvalidInputError:
                    continue
                swept += 1
                emb = isolate_real_roots(coeffs)
                if emb.signature == (2, 1):
                    pt = siegel_special_point(K)
                    assert pt.dims == (1, 1, 2)
                else:
                    with pytest.raises(WrongSignatureError):
                        siegel_special_point(K)
        assert swept > 200


def _exact_pairing_values(psi):
    """Independent oracle: the two pairing numbers in Q(i)[x]/(x^4-2).

    Real roots sorted: beta1 = -2^(1/4), beta2 = +2^(1/4); gamma = i 2^(1/4).
    """
    u1 = qib_embedding_vector(MINUS_BETA)
    u2 = qib_embedding_vector(BETA)
    w = qib_embedding_vector(I_BETA)
    return qib_pairing(psi, u1, w), qib_pairing(psi, u2, w)


class TestPsi:
    def test_found_psi_is_frozen_first(self):
        pt = siegel_special_point(K_QUARTIC)
        psi = find_compatible_symplectic(pt, 3)
        assert psi == alternating_matrix((-1, 0, -3, 3, 0, -2))
        assert pfaffian(psi) == -7

    def test_found_psi_exact_oracle(self):
        pt = siegel_special_point(K_QUARTIC)
        psi = find_compatible_symplectic(pt, 3)
        v1, v2 = _exact_pairing_values(psi)
        assert qib_is_zero(v1) and qib_is_zero(v2)

    def test_zero_and_degenerate_rejected(self):
        pt = siegel_special_point(K_QUARTIC)
        zero = tuple(tuple(0 for _ in range(4)) for _ in range(4))
        res = verify_psi(pt, zero)
        assert not res.accepted and res.reason == "degenerate"

    def test_nonisotropic_candidate_rejected_with_witness(self):
        pt = siegel_special_point(K_QUARTIC)
        psi = alternating_matrix((0, 1, 0, 0, 0, 0))  # psi02 breaks isotropy
        res = verify_psi(pt, psi)
        assert not res.accepted
        v1, v2 = _exact_pairing_values(psi)
        assert not qib_is_zero(v1) or not qib_is_zero(v2)

    def test_twenty_random_rejections_match_oracle(self):
        rng = random.Random(2026)
        pt = siegel_special_point(K_QUARTIC)
        rejected = 0
        while rejected < 20:
            entries = tuple(rng.randint(-3, 3) for _ in range(6))
            psi = alternating_matrix(entries)
            res = verify_psi(pt, psi)
            v1, v2 = _exact_pairing_values(psi)
            exact_ok = (
                qib_is_zero(v1) and qib_is_zero(v2) and pfaffian(psi) != 0
            )
            assert res.accepted == exact_ok
            if not res.accepted:
                rejected += 1

    def test_solution_family_all_accepted(self):
        # by the exact root relations: psi02 = psi13 = 0, psi23 = 2 psi01,
        # psi12 = -psi03, nondegenerate iff 2 a^2 != b^2 (always for ints != 0)
        pt = siegel_special_point(K_QUARTIC)
        for a in (-2, -1, 0, 1, 2):
            for b in (-3, -1, 0, 1, 3):
                if (a, b) == (0, 0):
                    continue
                psi = alternating_matrix((a, 0, b, -b, 0, 2 * a))
                res = verify_psi(pt, psi)
                assert res.accepted
                v1, v2 = _exact_pairing_values(psi)
                assert qib_is_zero(v1) and qib_is_zero(v2)

    def test_validation(self):
        pt = siegel_special_point(K_QUARTIC)
        with pytest.raises(InvalidInputError):
            verify_psi(pt, tuple(tuple(1 for _ in range(4)) for _ in range(4)))

    def test_other_quartic_with_solution(self):
        # x^4 - 3 has the same root symmetry; at height 2 the first hit is
        # the anti-diagonal pairing of the extreme power-basis vectors
        pt = siegel_special_point(number_field((-3, 0, 0, 0, 1)))
        psi = find_compatible_symplectic(pt, 2)
        assert psi == alternating_matrix((0, 0, -2, 2, 0, 0))
        assert verify_psi(pt, psi).accepted

    def test_quartic_without_small_solution(self):
        # a (2,1) quartic without the extra symmetry: absence is a result
        pt = siegel_special_point(number_field((-1, -1, 0, 0, 1)))
        assert find_compatible_symplectic(pt, 1) is None

    def test_conjugation_symmetry_of_isotropy(self):
        # pairing against the conjugate eigenline vanishes exactly when the
        # pairing against the eigenline does (real vectors, conjugate line)
        import random

        from oracles import qib

        rng = random.Random(99)
        minus_i_beta = qib((Fraction(0), Fraction(0)),
                           (Fraction(0), Fraction(-1)))
        wbar = qib_embedding_vector(minus_i_beta)
        u1 = qib_embedding_vector(MINUS_BETA)
        w = qib_embedding_vector(I_BETA)
        for _ in range(40):
            psi = alternating_matrix(tuple(rng.randint(-3, 3) for _ in range(6)))
            assert qib_is_zero(qib_pairing(psi, u1, w)) == qib_is_zero(
                qib_pairing(psi, u1, wbar)
            )


# D4: x^4-2, x^4-3, x^4+x^2-1, 2x^4-1 and three with odd-degree terms;
# S4: x^4-x-1, x^4-3x+1
DIFFERENTIAL_QUARTICS = (
    "x^4-2", "x^4-3", "x^4+x^2-1", "x^4-x-1", "x^4-3*x+1", "2*x^4-1",
    "x^4+2*x^3-3*x^2+2*x-1", "x^4+x^3-3*x^2+x+1", "x^4-2*x^3+x^2-2",
)


class TestGaloisSearch:
    @pytest.mark.parametrize("K", DIFFERENTIAL_QUARTICS)
    def test_matches_brute_force_scan(self, K):
        field = number_field(parse_intpoly(K))
        for H in (0, 1, 2):
            expected = scan_compatible_symplectic(siegel_special_point(field), H)
            assert find_compatible_symplectic(siegel_special_point(field), H) == expected

    def test_height_50(self):
        pt = siegel_special_point(K_QUARTIC)
        psi = find_compatible_symplectic(pt, 50)
        assert max(abs(x) for row in psi for x in row) <= 50
        assert verify_psi(pt, psi).accepted
        s4 = siegel_special_point(number_field((-1, -1, 0, 0, 1)))
        assert find_compatible_symplectic(s4, 50) is None

    def test_negative_bound_rejected(self):
        pt = siegel_special_point(K_QUARTIC)
        with pytest.raises(InvalidInputError):
            find_compatible_symplectic(pt, -1)
        assert find_compatible_symplectic(pt, 0) is None
