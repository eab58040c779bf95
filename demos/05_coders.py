"""
Decodable coders and their guaranteed sizes
===========================================

Every estimator here is a real code: encode produces a bit string, decode
inverts it exactly, and the reported complexity is the string's length.
That keeps the estimates honest; a decodable code can never beat the
entropy by more than its header overhead.
"""

import math

from amenlab.complexity import (
    freq_decode,
    freq_encode,
    hamming,
    lz78_decode,
    lz78_encode,
    repair_decode,
    repair_encode,
    selfdelim_encode,
    tuple_pack,
    tuple_unpack,
)
from amenlab.symbolic import Alphabet, binary_alphabet

binary = binary_alphabet()

# -- self-delimiting integers are the shared plumbing ----------------------------

for n in (0, 1, 5, 100):
    print(f"selfdelim({n}) = {selfdelim_encode(n)}")

# -- frequency coding: count frames plus a rank inside the type class -------------

word = "aababbaaab" * 20
stream = freq_encode(Alphabet(("a", "b")), word)
print(f"\nfreq: {len(word)} symbols -> {len(stream)} bits "
      f"({len(stream) / len(word):.3f} per symbol)")
assert freq_decode(Alphabet(("a", "b")), stream) == word

constant = "a" * 1000
print("freq on a constant word:",
      len(freq_encode(Alphabet(("a", "b")), constant)), "bits")

# -- LZ78 parses into a growing dictionary of phrases ------------------------------

text = ("the quick brown fox " * 30).strip()
alpha = Alphabet(tuple(sorted(set(text))))
stream = lz78_encode(alpha, text)
print(f"\nlz78: {len(text)} chars -> {len(stream)} bits "
      f"({len(stream) / len(text):.3f} per char)")
assert lz78_decode(alpha, stream) == text

# -- repair coding: cheap when the edit is sparse ----------------------------------

base = ("0" * 7 + "1") * 125
corrupted = list(base)
for k in range(0, 1000, 101):
    corrupted[k] = "1" if corrupted[k] == "0" else "0"
corrupted = "".join(corrupted)

stream = repair_encode(binary, base, corrupted)
fresh = freq_encode(binary, corrupted)
print(f"\nrepair of 10 flips in 1000 bits: {len(stream)} bits "
      f"(recoding from scratch: {len(fresh)} bits)")
assert repair_decode(binary, base, stream) == corrupted

# normalized edit distance between two windows of the same shape
from amenlab.groups import get_group
from amenlab.symbolic import PartialConfiguration

z = get_group("z")
sites = [z.encode((k,)) for k in range(8)]
t1 = PartialConfiguration({g: s for g, s in zip(sites, "00110011")})
t2 = PartialConfiguration({g: s for g, s in zip(sites, "00010011")})
print("hamming distance of two 8-site windows:", hamming(t1, t2))

# -- framing several parts into one stream ------------------------------------------

framed = tuple_pack(["0" * 100, "1010101"])
parts = tuple_unpack(framed, 2)
assert list(parts) == ["0" * 100, "1010101"]
print(f"\ntuple framing: 100 + 7 payload bits -> {len(framed)} bits total")
