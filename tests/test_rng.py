from helpers import splitmix64_reference
from kktprec.rng import SplitMix64


def test_published_vectors_seed_zero():
    # first outputs of SplitMix64 with seed 0, as published with the
    # algorithm's reference implementation
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_matches_reference_reimplementation():
    for seed in (0, 1, 42, 2**64 - 1, 123456789):
        gen = SplitMix64(seed)
        expected = splitmix64_reference(seed, 20)
        assert [gen.next_u64() for _ in range(20)] == expected


def test_unit_floats_in_range():
    gen = SplitMix64(7)
    values = [gen.next_unit() for _ in range(1000)]
    # this seed's first word is 2^64 - 1, which rounds to 1.0 times 2^-64
    values.append(SplitMix64(0x31628AF67B2131AB).next_unit())
    assert all(0.0 <= v < 1.0 for v in values)


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()


def test_streams_deterministic():
    gen_a = SplitMix64(5)
    gen_b = SplitMix64(5)
    assert [gen_a.next_u64() for _ in range(16)] == [gen_b.next_u64() for _ in range(16)]
