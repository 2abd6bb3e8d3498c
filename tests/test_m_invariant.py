import random
from itertools import repeat

import pytest

from normtower import galois_module
from normtower.errors import (
    CrossCheckMismatch,
    FactorizationError,
    InadmissibleSpec,
    NotFoundBelowLimit,
)
from normtower.m_invariant import (
    BiquadraticSpec,
    BrauerRowenSpec,
    FunctionFieldSpec,
    LocalCyclotomicSpec,
    LocalKummerSpec,
    compute_m,
    cross_check_profile,
    explain_m,
    find_dirichlet_prime,
    index_bound_check,
    residue_norm_test,
    spec_from_json,
    spec_to_json,
)
from normtower.mvalue import NEG_INF, UNDETERMINED_LE0, format_m
from normtower.numtheory import is_prime, valuation
from normtower.roots import RootOfUnityContent
from padic_reference import (
    PadicNumber,
    padic_add,
    padic_mul,
    padic_neg,
    sum_of_two_squares_Q2,
    two_squares_class_oracle,
)
import padic_reference


def test_brauer_rowen_hits_every_t():
    for p, n in ((2, 3), (3, 2), (5, 4)):
        for t in range(n):
            assert compute_m(BrauerRowenSpec(p, n, t)) == t
    with pytest.raises(InadmissibleSpec):
        compute_m(BrauerRowenSpec(2, 3, 3))
    with pytest.raises(InadmissibleSpec):
        compute_m(BrauerRowenSpec(4, 2, 0))


def test_function_field_content_chain():
    assert compute_m(FunctionFieldSpec(2, 3, RootOfUnityContent.cyclotomic(8))) == 0
    assert compute_m(FunctionFieldSpec(2, 3, RootOfUnityContent.cyclotomic(16))) == NEG_INF
    assert compute_m(FunctionFieldSpec(3, 2, RootOfUnityContent.finite_field(13))) == 1
    # n = 1 degenerate tower: xi_p present but not xi_{p^2} forces m = 0
    assert compute_m(FunctionFieldSpec(3, 1, RootOfUnityContent.cyclotomic(3))) == 0
    with pytest.raises(InadmissibleSpec):
        compute_m(FunctionFieldSpec(3, 2, RootOfUnityContent.cyclotomic(8)))


def test_find_dirichlet_prime():
    assert find_dirichlet_prime(2, 2) == 5
    assert find_dirichlet_prime(3, 1) == 13
    assert find_dirichlet_prime(2, 1) == 3
    with pytest.raises(NotFoundBelowLimit):
        find_dirichlet_prime(3, 1, limit=12)
    with pytest.raises(ValueError):
        find_dirichlet_prime(3, 1, limit=2)


def test_find_dirichlet_prime_proves_candidates_past_the_exact_bound():
    # q - 1 = 100 * 3^64 and (3^64)^2 > q: Pocklington's criterion with base 2
    assert find_dirichlet_prime(3, 64, limit=10**40) == 1 + 100 * 3**64
    # with n = 1 the candidates pass p^2, so p^n proves nothing and the
    # Miller-Rabin refusal stands
    with pytest.raises(FactorizationError) as err:
        find_dirichlet_prime(2000000000003, 1, limit=10**30)
    assert str(err.value).startswith("68000000000206000000000157 passes every")


def test_residue_norm_test_examples():
    assert residue_norm_test(2, 2, 5) is False
    assert residue_norm_test(3, 1, 13) is False
    with pytest.raises(InadmissibleSpec):
        residue_norm_test(2, 2, 7)  # wrong congruence class
    with pytest.raises(InadmissibleSpec):
        residue_norm_test(2, 2, 21)  # not prime
    # past MR_EXACT_BELOW, proved as find_dirichlet_prime proves it
    assert residue_norm_test(3, 64, 1 + 100 * 3**64) is False


def residue_norm_exhaustive(p, n, q):
    """The exhaustive route residue_norm_test took below q = 200,000: the
    set of p^n-th powers in F_q^x against its set of elements of order p,
    both read off the p-th power map of the whole group."""
    images = list(map(pow, range(q), repeat(p), repeat(q)))  # x -> x^p mod q
    order_p, x = set(), 1
    while 1 in images[x + 1 :]:
        x = images.index(1, x + 1)
        order_p.add(x)
    powers = set(images[1:])
    for _ in range(n - 1):
        powers = {images[y] for y in powers}
    return bool(order_p & powers)


def test_residue_norm_test_structural_agrees_with_exhaustive():
    # every admissible (p, n, q) with p <= 7, n <= 3 and q < 20,000
    checked = 0
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            for q in range(1 + p**n, 20000, p ** (n + 1)):
                if is_prime(q):
                    assert residue_norm_test(p, n, q) is residue_norm_exhaustive(p, n, q) is False
                    checked += 1
    assert checked == 2725
    # the oracle does find order-p p^n-th powers off the precondition
    assert residue_norm_exhaustive(2, 1, 13) and residue_norm_exhaustive(3, 1, 19)


def test_local_cyclotomic_m_zero():
    result = explain_m(LocalCyclotomicSpec(2, 2, 5))
    assert result.m == 0
    assert any("coprime" in line for line in result.evidence)
    assert compute_m(LocalCyclotomicSpec(3, 1, 13)) == 0


def test_local_kummer_always_minus_infinity():
    for p, n, l in ((2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 2, 5), (5, 3, 5)):
        result = explain_m(LocalKummerSpec(p, n, l))
        assert result.m == NEG_INF
        assert any("norm" in line for line in result.evidence)


def test_biquadratic_seventeen():
    result = explain_m(BiquadraticSpec(17, -1))
    assert result.m == 1
    result = explain_m(BiquadraticSpec(17, 1))
    assert result.m is UNDETERMINED_LE0


def test_biquadratic_larger_parameters():
    # a = 1 + 8^2 = 65 and a = 1 + 12^2 = 145 with d = -1: the real-place
    # certificate never depends on a
    assert compute_m(BiquadraticSpec(65, -1)) == 1
    assert compute_m(BiquadraticSpec(145, -1)) == 1


def biquadratic_two_adic_reference(a, d):
    """m and the (valuation, unit mod 8, sum of two squares) of d(a + sqrt(a))
    and d(a - sqrt(a)), read off p-adic numbers at 4 bitlen(a) + 8 digits,
    far more than the 2 v_2(c) - 1 that the cancellation in a - sqrt(a) eats."""
    prec = 4 * a.bit_length() + 8
    a2 = PadicNumber.from_fraction(2, a, prec)
    root = padic_reference.hensel_sqrt(a2)
    branches = []
    for branch in (root, padic_neg(root)):
        value = padic_mul(PadicNumber.from_fraction(2, d, prec), padic_add(a2, branch))
        is_sum = sum_of_two_squares_Q2(value)
        assert is_sum == two_squares_class_oracle(value)
        branches.append((value.valuation, value.residue_unit(3), is_sum))
    certified = d < 0 or not all(is_sum for _, _, is_sum in branches)
    return (1 if certified else UNDETERMINED_LE0), branches


def test_biquadratic_matches_the_high_precision_reference():
    cs = [4 * k for k in range(1, 301)]
    cs += [b * 2**j for b in (1, 3) for j in range(2, 200)]
    for c in cs:
        a = 1 + c * c
        for d in (1, -1):
            result = explain_m(BiquadraticSpec(a, d))
            m, branches = biquadratic_two_adic_reference(a, d)
            assert result.m == m, (c, d)
            for label, (v, unit8, is_sum) in zip(("a + sqrt(a)", "a - sqrt(a)"), branches):
                line = f"d({label}) has valuation {v} and unit {unit8} mod 8: "
                line += "a sum" if is_sum else "not a sum"
                assert any(e.startswith(line) for e in result.evidence), (c, d, label)


def test_biquadratic_evidence_has_closed_forms():
    # sqrt(a) = 1 mod 8 as 16 | c^2; a + sqrt(a) = sqrt(a)(sqrt(a) + 1) has
    # valuation 1, a - sqrt(a) = a c^2 / (a + sqrt(a)) has 2 v_2(c) - 1, and
    # both units are d(1 + 4 (c/4 mod 2)) mod 8: a sum of two squares in Q_2
    # exactly when d = 1
    cs = [4 * k for k in range(1, 400)]
    cs += [b * 2**j for b in (1, 3, 5, 7) for j in range(2, 120)]
    rng = random.Random(11)
    cs += [4 * rng.randrange(1, 10**60) for _ in range(200)]
    for c in cs:
        v2 = valuation(c, 2)
        for d in (1, -1):
            unit8 = d * (1 + 4 * (c // 4 % 2)) % 8
            verdict = "a sum" if d == 1 else "not a sum"
            result = explain_m(BiquadraticSpec(1 + c * c, d))
            assert result.m == (1 if d == -1 else UNDETERMINED_LE0)
            assert result.evidence[3] == (
                f"d(a + sqrt(a)) has valuation 1 and unit {unit8} mod 8: "
                f"{verdict} of two squares in Q_2"
            ), (c, d)
            assert result.evidence[4] == (
                f"d(a - sqrt(a)) has valuation {2 * v2 - 1} and unit {unit8} mod 8: "
                f"{verdict} of two squares in Q_2"
            ), (c, d)


def test_biquadratic_rejections():
    for a, d in ((18, -1), (5, -1), (17, 2), (2, 1), (1, -1)):
        with pytest.raises(InadmissibleSpec):
            compute_m(BiquadraticSpec(a, d))


def test_biquadratic_past_the_printable_digits():
    # a = 1 + c^2 has 8,003 digits, past the 4,300 Python prints, so a is
    # named by its bit length; c, with 4,002, is printed
    c = 4 * (10**4000 + 1)
    a = 1 + c * c
    shown = f"<int of {a.bit_length()} bits>"
    for d, m in ((1, UNDETERMINED_LE0), (-1, 1)):
        result = explain_m(BiquadraticSpec(a, d))
        assert result.m == m
        assert result.evidence[0].startswith(f"a = {shown} = 1 + {c}^2 with 4 | {c}; ")
        assert result.evidence[2].startswith(f"sqrt({shown}) exists")
    with pytest.raises(InadmissibleSpec, match=f"a = <int of {a.bit_length() + 1} bits> is not"):
        compute_m(BiquadraticSpec(2 * a, 1))
    with pytest.raises(InadmissibleSpec, match=f"c = {c // 2} must"):
        compute_m(BiquadraticSpec(1 + (c // 2) ** 2, 1))


def test_index_bound_check():
    assert index_bound_check(NEG_INF, 1, 2) is True
    assert index_bound_check(NEG_INF, 2, 2) is False
    assert index_bound_check(0, 2, 2) is True
    assert index_bound_check(0, 4, 2) is False
    assert index_bound_check(2, 8, 2) is True
    assert index_bound_check(2, 16, 2) is False
    assert index_bound_check(3, 1, 2) is True
    assert index_bound_check(1, 9, 3) is True
    with pytest.raises(ValueError, match="^index 6 is not a power of 2$"):
        index_bound_check(1, 6, 2)
    with pytest.raises(ValueError, match="^index 9 is not a power of 2$"):
        index_bound_check(1, 9, 2)
    with pytest.raises(ValueError):
        index_bound_check(-2, 4, 2)


def test_cross_check_consistent_cases():
    spec = LocalCyclotomicSpec(3, 1, 13)  # m = 0
    mod = galois_module.synthesize(
        galois_module.DecompositionShape(3, 1, (1, 0), 0)
    )
    verdict = cross_check_profile(spec, mod)
    assert verdict.spec_m == 0 and verdict.shape_m == 0

    quartic = BiquadraticSpec(17, -1)  # m = 1, p = 2, n = 2
    mod = galois_module.synthesize(
        galois_module.DecompositionShape(2, 2, (1, 0, 0), 1)
    )
    verdict = cross_check_profile(quartic, mod)
    assert verdict.spec_m == 1

    kummer = LocalKummerSpec(2, 2, 3)  # m = -inf: all-free shape is fine
    mod = galois_module.synthesize(
        galois_module.DecompositionShape(2, 2, (0, 1, 1), None)
    )
    cross_check_profile(kummer, mod)


def test_cross_check_p2_m0_free_block_convention():
    spec = LocalCyclotomicSpec(2, 2, 5)  # m = 0 at p = 2
    with_block = galois_module.synthesize(
        galois_module.DecompositionShape(2, 2, (0, 1, 0), None)
    )
    verdict = cross_check_profile(spec, with_block)
    assert "free block" in verdict.note
    without = galois_module.synthesize(
        galois_module.DecompositionShape(2, 2, (1, 0, 0), None)
    )
    with pytest.raises(CrossCheckMismatch):
        cross_check_profile(spec, without)


def test_cross_check_mismatches():
    spec = LocalCyclotomicSpec(3, 1, 13)  # m = 0
    all_free = galois_module.synthesize(
        galois_module.DecompositionShape(3, 1, (0, 1), None)
    )
    with pytest.raises(CrossCheckMismatch):
        cross_check_profile(spec, all_free)
    exceptional_m1 = galois_module.synthesize(
        galois_module.DecompositionShape(3, 2, (0, 0, 0), 1)
    )
    with pytest.raises(CrossCheckMismatch) as err:
        cross_check_profile(BrauerRowenSpec(3, 2, 0), exceptional_m1)  # m = 0
    assert (err.value.first, err.value.second) == ("0", "1")
    wrong_pn = galois_module.synthesize(
        galois_module.DecompositionShape(3, 2, (1, 0, 0), None)
    )
    with pytest.raises(ValueError):
        cross_check_profile(spec, wrong_pn)


P_N_VARIANTS = {
    "brauer_rowen": lambda p, n: BrauerRowenSpec(p, n, 0),
    "function_field": lambda p, n: FunctionFieldSpec(p, n, RootOfUnityContent.cyclotomic(3)),
    "local_cyclotomic": lambda p, n: LocalCyclotomicSpec(p, n, 13),
    "local_kummer": lambda p, n: LocalKummerSpec(p, n, 5),
}


@pytest.mark.parametrize("make", P_N_VARIANTS.values(), ids=P_N_VARIANTS.keys())
def test_shared_p_n_preconditions(make):
    with pytest.raises(InadmissibleSpec, match="^4 is not prime$"):
        compute_m(make(4, 1))
    with pytest.raises(InadmissibleSpec, match="^n must be >= 1$"):
        compute_m(make(3, 0))


def test_local_kummer_names_n_before_l():
    with pytest.raises(InadmissibleSpec, match="^n must be >= 1$"):
        compute_m(LocalKummerSpec(3, 0, 6))
    with pytest.raises(InadmissibleSpec, match="^6 is not prime$"):
        compute_m(LocalKummerSpec(3, 1, 6))


def test_int_fields_refuse_bool_and_float():
    for make in P_N_VARIANTS.values():
        with pytest.raises(InadmissibleSpec, match="^n must be an integer, got True$"):
            compute_m(make(3, True))
    with pytest.raises(InadmissibleSpec, match="^t must be an integer, got True$"):
        compute_m(BrauerRowenSpec(3, 2, True))
    with pytest.raises(InadmissibleSpec, match="^a must be an integer, got 17.0$"):
        compute_m(BiquadraticSpec(17.0, -1))
    with pytest.raises(InadmissibleSpec, match="^q must be an integer, got 13.0$"):
        compute_m(LocalCyclotomicSpec(3, 1, 13.0))


def test_spec_json_roundtrip():
    specs = (
        BrauerRowenSpec(2, 3, 1),
        FunctionFieldSpec(3, 2, RootOfUnityContent.finite_field(13)),
        LocalCyclotomicSpec(2, 2, 5),
        LocalKummerSpec(2, 2, 3),
        BiquadraticSpec(17, -1),
    )
    for spec in specs:
        data = spec_to_json(spec)
        assert spec_from_json(data) == spec
    with pytest.raises(ValueError):
        spec_from_json({"variant": "unknown"})
    with pytest.raises(ValueError):
        spec_from_json({"variant": "biquadratic", "a": 17})


def test_m_text_format():
    assert format_m(NEG_INF) == "-inf"
    assert format_m(2) == "2"
    assert explain_m(BiquadraticSpec(17, 1)).m_text == "undetermined<=0"
