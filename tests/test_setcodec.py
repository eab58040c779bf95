import copy
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenlab.folner import description_bits
from amenlab.groups import (
    generator_boundary,
    get_group,
    is_connected_with_identity,
    normalize_subset,
    pack_coords,
)
from amenlab.setcodec import (
    DecodeError,
    EncodingDomainError,
    code_length,
    decode_connected,
    encode_connected,
    random_connected_subset,
)
from amenlab.rng import SplitMix64


def interval(n):
    z = get_group("z")
    return normalize_subset(z.encode((k,)) for k in range(n))


def test_hand_trace_singleton():
    # visit 0: '1'; +1: '0'; -1: '0'
    assert encode_connected(get_group("z"), interval(1)) == "100"


def test_hand_trace_pair():
    # visit 0: '1'; +1 in T: '1'; +2: '0'; 0 visited; -1: '0'
    assert encode_connected(get_group("z"), interval(2)) == "1100"


def test_decode_hand_traces():
    z = get_group("z")
    assert decode_connected(z, "100") == interval(1)
    assert decode_connected(z, "1100") == interval(2)


def test_length_law_on_intervals():
    z = get_group("z")
    for n in (1, 2, 5, 33):
        w = encode_connected(z, interval(n))
        assert len(w) == n + 2
        assert w.count("1") == n
        assert w.count("0") == 2


def test_rejects_bad_sets():
    z = get_group("z")
    with pytest.raises(EncodingDomainError):
        encode_connected(z, [])
    with pytest.raises(EncodingDomainError):
        encode_connected(z, [z.encode((1,)), z.encode((2,))])  # no identity
    with pytest.raises(EncodingDomainError):
        encode_connected(z, [z.encode((0,)), z.encode((2,))])  # gap


def test_rejects_bad_bits():
    z = get_group("z")
    with pytest.raises(DecodeError):
        decode_connected(z, "")
    with pytest.raises(DecodeError):
        decode_connected(z, "10")       # truncated
    with pytest.raises(DecodeError):
        decode_connected(z, "1001")     # leftover bit
    with pytest.raises(DecodeError):
        decode_connected(z, "1x0")
    with pytest.raises(DecodeError):
        decode_connected(z, "000")      # identity outside the set


@pytest.mark.parametrize("name", ["z", "z2", "h3"])
def test_roundtrip_random_sets(name):
    group = get_group(name)
    rng = SplitMix64(2024)
    for trial in range(60):
        size = 1 + rng.randrange(120)
        T = random_connected_subset(group, size, seed=rng.next64())
        w = encode_connected(group, T)
        assert decode_connected(group, w) == T
        # length law against the brute-force boundary
        assert len(w) == len(T) + len(generator_boundary(group, T))
        assert w.count("1") == len(T)
        assert len(w) == code_length(group, T)


def test_distinct_sets_distinct_codes():
    z2 = get_group("z2")
    seen = {}
    rng = SplitMix64(5)
    for trial in range(40):
        T = random_connected_subset(z2, 1 + rng.randrange(40), seed=rng.next64())
        w = encode_connected(z2, T)
        if w in seen:
            assert seen[w] == T
        seen[w] = T


def test_generator_order_matters():
    # the code word depends on the fixed generator order; swapping +1/-1
    # would relabel children, so an asymmetric set must not encode like its
    # mirror image
    z = get_group("z")
    right = normalize_subset([z.encode((0,)), z.encode((1,))])
    left = normalize_subset([z.encode((0,)), z.encode((-1,))])
    assert encode_connected(z, right) != encode_connected(z, left)


def test_random_subset_deterministic():
    z2 = get_group("z2")
    a = random_connected_subset(z2, 50, seed=99)
    b = random_connected_subset(z2, 50, seed=99)
    assert a == b
    assert len(a) == 50


def test_code_words_pinned_on_the_criterion_01_sweep():
    # digest of the code words, boundaries and description lengths of 100
    # sets per group drawn like criterion 01; any change to the traversal
    # order or the generator order changes it
    rng = SplitMix64(20260815)
    digest = hashlib.sha256()
    for name in ("z", "z2", "h3"):
        group = get_group(name)
        for _ in range(100):
            size = 1 + rng.randrange(200)
            T = random_connected_subset(group, size, seed=rng.randrange(2**63))
            bits = encode_connected(group, T)
            boundary = sorted(generator_boundary(group, T))
            digest.update(f"{name} {bits} {boundary} {description_bits(group, T)}\n".encode())
    assert digest.hexdigest() == (
        "313d68b5a5b36e4f5000a3b9ffe2a190539c3451ea521b38aa9c09b0e2304e17")


# -- decoder on malformed bits ----------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)
GROUPS = st.sampled_from(["z", "z2", "h3"])


def decodes_canonically(group, bits):
    try:
        T = decode_connected(group, bits)
    except DecodeError:
        return
    assert encode_connected(group, T) == bits


@PROPERTY
@given(GROUPS, st.text(alphabet="01", max_size=200))
def test_decode_arbitrary_bits(name, bits):
    decodes_canonically(get_group(name), bits)


@PROPERTY
@given(GROUPS, st.integers(1, 40), st.integers(0, 2**63 - 1), st.data())
def test_decode_code_words_with_one_bit_flipped(name, size, seed, data):
    group = get_group(name)
    bits = encode_connected(group, random_connected_subset(group, size, seed))
    i = data.draw(st.integers(0, len(bits) - 1))
    decodes_canonically(group, bits[:i] + "10"[int(bits[i])] + bits[i + 1:])


@PROPERTY
@given(GROUPS, st.text(alphabet="01", max_size=200))
def test_decoder_steps_once_per_member_bit(name, bits):
    # the decoder's work is linear in the bits: one Cayley step per 1 it reads
    group = copy.copy(get_group(name))
    stepped = []

    def steps(c):
        stepped.append(c)
        return type(group).steps(group, c)

    group.steps = steps
    try:
        T = decode_connected(group, bits)
    except DecodeError:
        T = None
    assert len(stepped) <= bits.count("1")
    assert len(set(stepped)) == len(stepped)
    if T is not None:
        assert sorted(map(pack_coords, stepped)) == list(T)


def test_negative_indices_keep_their_answers():
    # a negative index is no element: the walks never reach it, and counting
    # its boundary decodes it
    z2 = get_group("z2")
    with pytest.raises(EncodingDomainError, match="not connected"):
        encode_connected(z2, [0, -1])
    with pytest.raises(EncodingDomainError, match="does not contain the identity"):
        encode_connected(z2, [-1])
    assert is_connected_with_identity(z2, [0, -1]) is False
    with pytest.raises(ValueError, match="element indices are naturals") as err:
        code_length(z2, [0, -1])
    assert type(err.value) is ValueError
    with pytest.raises(ValueError, match="element indices are naturals"):
        generator_boundary(z2, [0, -1])
