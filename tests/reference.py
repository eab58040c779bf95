"""Slow, plainly correct references that the tests hold the package to."""

from amenlab.complexity import freq_length, selfdelim_encode
from amenlab.errors import BudgetExceededError
from amenlab.folner import _box_bits, _delta_bits
from amenlab.groups import _check_range, normalize_subset, runs_of, sorted_indices
from amenlab.setcodec import EncodingDomainError, encode_coords
from amenlab.symbolic import PartialConfiguration, _constraint_instances, binary_alphabet


def iter_admissible(sft, F, budget=1_000_000):
    """Yield the locally admissible patterns on F in lexicographic order of
    the window word (increasing element-index order of sites), by
    backtracking over the sites; more than ``budget`` visited nodes raises
    BudgetExceededError."""
    order = normalize_subset(F)
    if not order:
        raise ValueError("window must be nonempty")
    grouped = _constraint_instances(sft, list(map(sft.group.decode, order)))
    syms = sft.alphabet.symbols
    n = len(order)
    trial = [0]  # symbol index tried at each assigned depth
    nodes = 0
    while trial:
        depth = len(trial) - 1
        if trial[depth] == len(syms):
            trial.pop()
            if trial:
                trial[-1] += 1
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                f"pattern enumeration exceeded {budget} nodes on a window of size {n}",
                work=nodes - 1)
        if any(all(trial[pos] == sym for pos, sym in zip(positions, psyms))
               for positions, psyms in grouped[depth]):
            trial[depth] += 1
        elif depth == n - 1:
            yield PartialConfiguration.from_word(order, "".join(syms[k] for k in trial))
            trial[depth] += 1
        else:
            trial.append(0)


def reference_pack(coords):
    """pack_coords as one loop for any length: zigzag each coordinate, then
    fold right-to-left with the Cantor pairing (x, y) -> (x + y)(x + y + 1)/2 + y."""
    it = reversed(coords)
    c = next(it)
    acc = 2 * c - 1 if c > 0 else -2 * c
    for c in it:
        s = acc + (2 * c - 1 if c > 0 else -2 * c)
        acc = s * (s + 1) // 2 + acc
    return acc


def reference_compose(group, a, b):
    """group.compose as the law reads: the coordinate sums (on h3 the last one
    plus a*b'), then every coordinate range-checked in order."""
    out = tuple(x + y for x, y in zip(a, b))
    if group.name == "h3":
        out = (out[0], out[1], out[2] + a[0] * b[1])
    _check_range(out)
    return out


def reference_description_bits(group, F):
    """folner.description_bits as every candidate computed: the delta code,
    the box descriptor and, whenever the codec applies, the Cayley walk's
    code word and its frequency-coded length, then their minimum."""
    if not len(F):
        return _delta_bits(())
    runs = runs_of(group, F)
    sites = runs.sites()
    candidates = [_delta_bits(sorted_indices(sites))]
    box = _box_bits(runs)
    if box is not None:
        candidates.append(box)
    try:
        stream = encode_coords(group, frozenset(map(tuple, sites.tolist())))
    except EncodingDomainError:
        pass
    else:
        candidates += [len(stream), freq_length(binary_alphabet(), stream)]
    return min(candidates)


def reference_lz78_encode(alphabet, w):
    """complexity.lz78_encode as its own parse: a trie keyed by (phrase,
    symbol), each (back-reference, literal) token formatted as it is found."""
    if not w:
        raise ValueError("cannot code the empty word")
    index_of = {s: i for i, s in enumerate(alphabet.symbols)}
    lit_width = (alphabet.size - 1).bit_length()
    parts = [selfdelim_encode(len(w))]
    trie = {}
    cur = 0
    for ch in w:
        if ch not in index_of:
            raise ValueError(f"symbol {ch!r} not in alphabet")
        nxt = trie.get((cur, ch))
        if nxt is not None:
            cur = nxt
            continue
        width = len(trie).bit_length()  # the trie holds every phrase but the empty one
        if width:
            parts.append(format(cur, f"0{width}b"))
        if lit_width:
            parts.append(format(index_of[ch], f"0{lit_width}b"))
        trie[(cur, ch)] = len(trie) + 1
        cur = 0
    if cur:
        width = len(trie).bit_length()
        if width:
            parts.append(format(cur, f"0{width}b"))
    return "".join(parts)
