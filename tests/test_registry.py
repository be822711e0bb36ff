import pytest

from exactntt import modular, registry
from exactntt.errors import BadInput, IndexTooLarge, VerificationFailed

TABLE_ROWS = {
    641: (5, 64, 16),
    2424833: (9, 1024, 32),
    319489: (11, 4096, 32),
    13631489: (18, 524288, 32),
}


def test_builtin_rows():
    entries = {e.prime: e for e in registry.builtin_rader_primes()}
    assert set(entries) == set(TABLE_ROWS)
    for prime, (j, n_max, word) in TABLE_ROWS.items():
        e = entries[prime]
        assert e.fermat_index == j
        assert e.n_max == n_max
        assert e.word_size_bits == word


def test_registry_invariants():
    for e in registry.builtin_rader_primes():
        assert modular.is_prime(e.prime)
        assert modular.multiplicative_order(2, e.prime) == e.n_max
        assert modular.is_power_of_two(e.n_max)
        # divisibility without materializing the Fermat number
        assert pow(2, 1 << e.fermat_index, e.prime) == e.prime - 1
        # factors of F_j have the form k * 2^(j+2) + 1
        assert (e.prime - 1) % (1 << (e.fermat_index + 2)) == 0


def test_admits_length():
    e = registry.find_modulus(641)
    assert e.admits_length(64) and e.admits_length(1) and e.admits_length(16)
    assert not e.admits_length(128)
    assert not e.admits_length(3)


# -- fermat / rader numbers -----------------------------------------------


def test_fermat_numbers():
    assert registry.fermat_number(0).value == 3
    assert registry.fermat_number(1).value == 5
    assert registry.fermat_number(4).value == 65537
    assert registry.fermat_number(5).value == 4294967297
    assert registry.fermat_number(5).value == 641 * 6700417
    with pytest.raises(IndexTooLarge):
        registry.fermat_number(7)
    with pytest.raises(IndexTooLarge):
        registry.fermat_number(-1)


def test_rader_numbers():
    assert registry.rader_number(1) == 3
    assert registry.rader_number(4) == 65535
    assert registry.rader_number(5) == 4294967295
    with pytest.raises(IndexTooLarge):
        registry.rader_number(7)


def test_fermat_product_identity():
    for n in range(1, 7):
        assert registry.verify_fermat_product_identity(n)
        product = 1
        for j in range(n):
            product *= registry.fermat_number(j).value
        assert product == registry.rader_number(n)
    with pytest.raises(IndexTooLarge):
        registry.verify_fermat_product_identity(0)
    with pytest.raises(IndexTooLarge):
        registry.verify_fermat_product_identity(7)


# -- theorem verification ---------------------------------------------------


def test_verify_fermat_factor_registry_rows():
    for e in registry.builtin_rader_primes():
        assert registry.verify_fermat_factor(e)


def test_verify_fermat_factor_cofactor():
    # the other prime factor of F_5, not shipped in the registry
    assert registry.verify_fermat_factor(registry.RaderModulus(6700417, 5, 64))


def test_verify_fermat_factor_trivial_fermat_primes():
    # F_0, F_1 divide themselves
    assert registry.verify_fermat_factor(registry.RaderModulus(3, 0, 2))
    assert registry.verify_fermat_factor(registry.RaderModulus(5, 1, 4))


def test_verify_fermat_factor_wrong_order_claim():
    with pytest.raises(VerificationFailed) as exc:
        registry.verify_fermat_factor(registry.RaderModulus(13631489, 18, 1024))
    assert exc.value.clause == "order"


def test_verify_fermat_factor_excessive_order_claim():
    with pytest.raises(VerificationFailed) as exc:
        registry.verify_fermat_factor(registry.RaderModulus(641, 5, 128))
    assert exc.value.clause == "order"


def test_verify_fermat_factor_wrong_index_claim():
    with pytest.raises(VerificationFailed) as exc:
        registry.verify_fermat_factor(registry.RaderModulus(641, 4, 32))
    assert exc.value.clause == "divisibility"


def test_verify_fermat_factor_inconsistent_length_claim():
    # divisibility and order both true, but n_max != 2^(j+1) is impossible;
    # a fabricated mismatch must still fail before that
    with pytest.raises(VerificationFailed):
        registry.verify_fermat_factor(registry.RaderModulus(641, 5, 96))


def test_verify_fermat_factor_length_clause():
    # 2^0 == 1 passes the order clauses vacuously; only the length clause fails
    with pytest.raises(VerificationFailed, match="n_max 0") as info:
        registry.verify_fermat_factor(registry.RaderModulus(641, 5, 0))
    assert info.value.clause == "length"


def test_registry_entry_above_the_int64_range_is_rejected():
    # 5*2^39 + 1 divides F_36, but above 2^31 a product of two residues overflows int64
    entry = registry.RaderModulus(5 * 2**39 + 1, 36, 2**37)
    assert registry.verify_fermat_factor(entry)
    with pytest.raises(VerificationFailed, match="unsupported") as info:
        registry.validate_registry_entry(entry)
    assert info.value.clause == "range"


# -- mersenne factor table ----------------------------------------------------


def test_mersenne_factor_table_known_rows():
    table = dict(registry.mersenne_factor_table(11))
    assert table[2] == {3: 1}
    assert table[3] == {7: 1}
    assert table[4] == {3: 1, 5: 1}
    assert table[5] == {31: 1}
    assert table[6] == {3: 2, 7: 1}
    assert table[7] == {127: 1}
    assert table[8] == {3: 1, 5: 1, 17: 1}
    assert table[9] == {7: 1, 73: 1}
    assert table[10] == {3: 1, 11: 1, 31: 1}
    assert table[11] == {23: 1, 89: 1}


def test_mersenne_factor_table_exactness_and_limit():
    for n, factors in registry.mersenne_factor_table(32):
        value = 1
        for p, k in factors.items():
            value *= p**k
        assert value == (1 << n) - 1
    with pytest.raises(IndexTooLarge):
        registry.mersenne_factor_table(33)


def test_registry_primes_only_divide_order_multiples():
    # a registry prime p divides 2^n - 1 exactly when its order divides n
    orders = {e.prime: e.n_max for e in registry.builtin_rader_primes()}
    for n, factors in registry.mersenne_factor_table(32):
        for p in factors:
            if p in orders:
                assert n % orders[p] == 0


# -- registry file handling -----------------------------------------------------


def test_parse_rejects_garbage():
    with pytest.raises(BadInput):
        registry.parse_registry_text("641 5", source="t")
    with pytest.raises(BadInput):
        registry.parse_registry_text("x y z", source="t")
    with pytest.raises(BadInput):
        registry.parse_registry_text("# only comments\n", source="t")


def test_parse_rejects_invalid_entry():
    with pytest.raises(VerificationFailed):
        registry.parse_registry_text("341 5 64", source="t")


def test_parse_unvalidated_passthrough():
    rows = registry.parse_registry_text("341 5 64", source="t", validate=False)
    assert rows[0].prime == 341


def test_load_registry_from_file(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("# custom\n641 5 64\n6700417 5 64\n")
    entries = registry.load_registry(str(path))
    assert [e.prime for e in entries] == [641, 6700417]


def test_load_registry_env_override(tmp_path, monkeypatch):
    path = tmp_path / "reg.txt"
    path.write_text("641 5 64\n")
    monkeypatch.setenv(registry.ENV_REGISTRY, str(path))
    assert [e.prime for e in registry.load_registry()] == [641]
    monkeypatch.delenv(registry.ENV_REGISTRY)
    assert len(registry.load_registry()) == 4


def test_find_modulus():
    assert registry.find_modulus(641).n_max == 64
    with pytest.raises(BadInput):
        registry.find_modulus(643)


def test_word_size_advisory():
    assert registry.RaderModulus(3, 0, 2).word_size_bits == 8
    assert registry.RaderModulus(641, 5, 64).word_size_bits == 16
    assert registry.RaderModulus(6700417, 5, 64).word_size_bits == 32
