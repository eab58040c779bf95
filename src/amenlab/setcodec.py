"""Prefix-free codec for finite connected subsets of a computable group.

A finite set T that contains the identity and is connected in the Cayley
graph of the fixed generating set S is encoded by a depth-first traversal
starting at the identity: the first visit to a vertex inside T emits '1'
and recurses over its S-neighbors in generator order; the first visit to a
vertex outside T emits '0' and stops.  Re-visits emit nothing.  The code
word therefore has exactly |T| ones and |ST \\ T| zeros, and the decoder
can replay the traversal bit by bit.

The encoder checks connectivity in the same walk that writes the code
word: T is connected exactly when the walk from the identity emits |T|
ones, so a disconnected set costs no separate traversal.

Both directions run the one walk of :func:`groups.walk`, which uses an
explicit stack instead of recursion (the recursion depth would otherwise
be |T|) and replays the recursive order.  The walk steps coordinate
tuples: the encoder decodes each member of T once and the decoder packs
each member once at the end, so no Cayley step decodes or packs an index.
The encoder's membership test writes the bit; the decoder's reads it.  The
decoder grows its visited set on demand rather than materializing a ball
of the code-word radius, so memory stays proportional to |ST|.
"""

from __future__ import annotations

from .groups import (
    ComputableGroup,
    FiniteSubset,
    boundary_coords,
    decode_subset,
    pack_coords,
    unpack_coords,
    walk,
)
from .rng import SplitMix64


class EncodingDomainError(ValueError):
    """The set is outside the codec's domain (identity missing or disconnected)."""


class DecodeError(ValueError):
    """The bit string is not a valid code word (truncated or overlong)."""


def encode_connected(group: ComputableGroup, T) -> str:
    """0/1 code word of a finite connected identity-containing set (``encode_coords``);
    the memoised scalar decode reads its members, faster than an array decode on small sets."""
    # a negative index is no element: it stays an int, which no walk reaches,
    # so the set counts as disconnected
    return encode_coords(group, frozenset(
        unpack_coords(g, group.dimension) if g >= 0 else g for g in frozenset(T)))


def encode_coords(group: ComputableGroup, coords) -> str:
    """Code word of the set of coordinate tuples ``coords``.  Raises
    :class:`EncodingDomainError` for sets outside the domain; a disconnected
    set is detected when the walk emits fewer than |coords| ones."""
    if not coords:
        raise EncodingDomainError("cannot encode the empty set")
    if (0,) * group.dimension not in coords:
        raise EncodingDomainError("set does not contain the identity")
    bits: list[str] = []

    def inside(c: tuple) -> bool:
        member = c in coords
        bits.append("1" if member else "0")
        return member

    if len(walk(group, inside)) != len(coords):
        raise EncodingDomainError("set is not connected in the Cayley graph")
    return "".join(bits)


def decode_connected(group: ComputableGroup, bits: str) -> FiniteSubset:
    """Inverse of :func:`encode_connected`.

    Consumes the whole bit string; anything truncated or left over raises
    :class:`DecodeError`.
    """
    if not bits or any(b not in "01" for b in bits):
        raise DecodeError("expected a nonempty string of 0s and 1s")
    unread = iter(bits)

    def inside(c: tuple) -> bool:
        bit = next(unread, None)
        if bit is None:
            raise DecodeError("bit string exhausted before traversal finished")
        return bit == "1"

    members = walk(group, inside)
    left = sum(1 for _ in unread)
    if left:
        raise DecodeError(f"{left} unread bits after traversal finished")
    if not members:
        raise DecodeError("code word describes the empty set")
    return tuple(sorted(map(pack_coords, members)))


def code_length(group: ComputableGroup, T) -> int:
    """Exact code-word length |T| + |ST \\ T| without materializing the bits;
    it counts coordinate tuples and packs no index."""
    coords = decode_subset(group, T)
    return len(coords) + len(boundary_coords(group, coords))


def random_connected_subset(group: ComputableGroup, size: int, seed: int) -> FiniteSubset:
    """Random identity-containing connected set grown one boundary vertex at a time.

    Deterministic for a fixed (group, size, seed).  Growth draws uniformly
    from the multiset of outside neighbors, so cells adjacent to several
    members are favored; shapes range from blobs to stringy clusters.
    Each step costs O(|S|), which keeps large sweeps linear even on the
    line, where only the two interval endpoints can grow.
    """
    if size < 1:
        raise ValueError("size >= 1")
    rng = SplitMix64(seed)
    steps = group.steps
    identity = (0,) * group.dimension
    members = {identity}
    frontier = steps(identity)
    while len(members) < size:
        idx = rng.randrange(len(frontier))
        cand = frontier[idx]
        # swap-pop keeps the draw O(1); stale entries are skipped lazily
        frontier[idx] = frontier[-1]
        frontier.pop()
        if cand in members:
            continue
        members.add(cand)
        frontier.extend(n for n in steps(cand) if n not in members)
    return tuple(sorted(map(pack_coords, members)))
