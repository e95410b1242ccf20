"""Information models over finite world sets, states, and codecs.

A model carries n worlds, l atoms, a per-atom extension, and optionally a
per-world list of generator states. The semantic state map at a world is
the downward closure of its generator list; only the generators are
stored, since closures are exponentially larger and evaluation never
needs them materialized.

Bitstring orientation everywhere: the leftmost character is index 0, so
"101" over three worlds is the state {w0, w2}.

On-disk model format (UTF-8 text, `#` starts a comment):

    inqmodel v1
    atoms <l>
    worlds <n>
    delta <bitstring of length n*l>
    epsilon <i> <bitstring>     one line per world, modal models only

delta packs the valuation world-major: bit l*i + j is 1 iff atom j holds
at world i. epsilon_i packs the generator list of world i as zero-prefixed
n-bit state blocks closed by a single 1, giving length (n+1)*k + 1 for k
generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import _plain_int

KIND_INQB = "InqB"
KIND_INQM = "InqM"

# str.translate with this table leaves exactly the characters that are not
# 0/1; the check runs before int(..., 2), which also accepts "_", "+",
# surrounding whitespace, a "0b" prefix and non-ASCII digits
_DELETE_01 = str.maketrans("", "", "01")


def _bits_to_mask(bits: str) -> int:
    """Mask of a checked 0/1 string, leftmost character as bit 0."""
    return int(bits[::-1], 2) if bits else 0


class ValidationError(Exception):
    """A model invariant does not hold.

    Fields name the violated invariant and the offending world or atom
    index, when one is identifiable.
    """

    def __init__(self, what: str, index: int | None, detail: str):
        self.what = what
        self.index = index
        where = "" if index is None else f" at index {index}"
        super().__init__(f"invalid model ({what}{where}): {detail}")


class CodecError(Exception):
    """An encoded model string does not match the expected layout."""

    def __init__(self, what: str, detail: str):
        self.what = what
        self.detail = detail
        super().__init__(f"codec error ({what}): {detail}")


@dataclass(frozen=True, slots=True)
class InfoState:
    """A set of worlds as a fixed-width bit vector.

    mask bit i is set iff world i belongs to the state; width is the
    world count of the owning model. Both are plain ints: a bool or
    another integer type is stored as its int, and anything else raises
    TypeError.
    """

    mask: int
    width: int

    def __post_init__(self) -> None:
        if type(self.mask) is not int or type(self.width) is not int:
            object.__setattr__(self, "mask", _plain_int(self.mask, "state mask"))
            object.__setattr__(self, "width", _plain_int(self.width, "state width"))
        if self.width < 0:
            raise ValueError(f"negative width {self.width}")
        if not 0 <= self.mask < (1 << self.width):
            raise ValueError(f"mask {self.mask:#x} does not fit width {self.width}")

    @classmethod
    def from_bits(cls, bits: str) -> InfoState:
        if not bits:
            raise ValueError("empty state string")
        if bits.translate(_DELETE_01):
            bad = next(c for c in bits if c not in "01")
            raise ValueError(f"state string must be over 0/1, found {bad!r}")
        return cls(_bits_to_mask(bits), len(bits))

    @classmethod
    def empty(cls, width: int) -> InfoState:
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> InfoState:
        return cls((1 << width) - 1, width)

    def bits(self) -> str:
        # format(0, "00b") is "0", so width 0 needs its own case
        return format(self.mask, f"0{self.width}b")[::-1] if self.width else ""

    def worlds(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if self.mask >> i & 1)

    def contains(self, world: int) -> bool:
        return bool(self.mask >> world & 1)

    def is_subset_of(self, other: InfoState) -> bool:
        return self.mask & ~other.mask == 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def popcount(self) -> int:
        return self.mask.bit_count()


_SET_MASK, _SET_WIDTH = InfoState.mask.__set__, InfoState.width.__set__


def _state(mask: int, width: int) -> InfoState:
    """The state of a mask read off width checked bits: valid by
    construction, so its fields are set by their slots, without
    InfoState's check."""
    state = object.__new__(InfoState)
    _SET_MASK(state, mask)
    _SET_WIDTH(state, width)
    return state


@dataclass(frozen=True, slots=True)
class InformationModel:
    """n worlds, l atoms, per-atom extensions, optional state-map generators.

    sigma is None for a plain (InqB) model; for a modal (InqM) model it
    holds one non-empty generator tuple per world. Construction does not
    validate; call validate_model before trusting an instance.
    """

    n: int
    l: int
    valuation: tuple[InfoState, ...]
    sigma: tuple[tuple[InfoState, ...], ...] | None = None

    @property
    def kind(self) -> str:
        return KIND_INQB if self.sigma is None else KIND_INQM

    @property
    def is_modal(self) -> bool:
        return self.sigma is not None


def validate_model(m: InformationModel) -> None:
    """Check every model invariant; raise ValidationError on the first failure.

    Checked: n >= 1; exactly l extensions of width n; for modal models,
    exactly n generator lists, each non-empty, all of width n, no
    duplicate generator within one list.
    """
    if m.n < 1:
        raise ValidationError("worlds", None, f"world count must be at least 1, got {m.n}")
    if m.l < 0:
        raise ValidationError("atoms", None, f"atom count must be non-negative, got {m.l}")
    if len(m.valuation) != m.l:
        raise ValidationError(
            "valuation", None, f"expected {m.l} atom extensions, got {len(m.valuation)}"
        )
    for j, v in enumerate(m.valuation):
        if v.width != m.n:
            raise ValidationError("valuation", j, f"extension width {v.width} != worlds {m.n}")
    if m.sigma is None:
        return
    if len(m.sigma) != m.n:
        raise ValidationError(
            "sigma", None, f"expected {m.n} generator lists, got {len(m.sigma)}"
        )
    for i, gens in enumerate(m.sigma):
        if len(gens) == 0:
            raise ValidationError("sigma", i, "generator list must be non-empty")
        seen = set()
        for g in gens:
            if g.width != m.n:
                raise ValidationError("sigma", i, f"generator width {g.width} != worlds {m.n}")
            if g.mask in seen:
                raise ValidationError("sigma", i, f"duplicate generator {g.bits()}")
            seen.add(g.mask)


def encode_model(m: InformationModel) -> tuple[str, list[str]]:
    """Pack a valid model into its delta string and epsilon strings.

    delta bit l*i + j reads off atom j at world i; each epsilon_i is the
    generator list of world i as (0 + state)* blocks closed by 1. Plain
    models produce an empty epsilon list.
    """
    # zip over the per-atom strings yields one (atom 0..l-1) tuple per world
    delta = "".join(map("".join, zip(*(v.bits() for v in m.valuation))))
    if m.sigma is None:
        return delta, []
    epsilons = ["".join("0" + g.bits() for g in gens) + "1" for gens in m.sigma]
    return delta, epsilons


def decode_model(delta: str, epsilons: list[str], n: int, l: int) -> InformationModel:
    """Invert encode_model bit-exactly.

    An empty epsilon list yields a plain model; otherwise exactly n
    epsilon strings are required.

    Raises:
        CodecError: on length mismatch, a non-bit character, a missing
            terminal 1, or a separator bit that is not 0.
        ValidationError: when the decoded strings form an invalid model
            (for example duplicate generators).
    """
    if len(delta) != n * l:
        raise CodecError("length", f"delta has {len(delta)} bits, expected n*l = {n * l}")
    if delta.translate(_DELETE_01):
        raise CodecError("alphabet", "delta must be over 0/1")
    # delta[j::l] is atom j's extension, world 0 first
    valuation = tuple(InfoState(_bits_to_mask(delta[j::l]), n) for j in range(l))
    if not epsilons:
        m = InformationModel(n, l, valuation, None)
        validate_model(m)
        return m
    if len(epsilons) != n:
        raise CodecError("length", f"expected {n} epsilon strings, got {len(epsilons)}")
    sigma = []
    for i, eps in enumerate(epsilons):
        if eps.translate(_DELETE_01):
            raise CodecError("alphabet", f"epsilon {i} must be over 0/1")
        if len(eps) == 0 or eps[-1] != "1":
            raise CodecError("terminator", f"epsilon {i} does not end with the terminal 1")
        if (len(eps) - 1) % (n + 1) != 0:
            raise CodecError(
                "terminator",
                f"epsilon {i} has length {len(eps)}, expected (n+1)*k + 1 for some k",
            )
        # eps[:-1:n+1] holds the separator bit of every block
        bad = eps[: -1 : n + 1].find("1")
        if bad >= 0:
            off = bad * (n + 1)
            raise CodecError("separator", f"epsilon {i} block at bit {off} does not start with 0")
        # one reversed slice reads the n bits after the separator at off
        sigma.append(tuple(_state(int(eps[off + n : off : -1], 2), n) for off in range(0, len(eps) - 1, n + 1)))
    m = InformationModel(n, l, valuation, tuple(sigma))
    validate_model(m)
    return m


def sigma_union(m: InformationModel, world: int) -> InfoState:
    """Union of the generator states of one world.

    The downward closure adds only subsets, so the union over generators
    equals the union over the full semantic state map.
    """
    if m.sigma is None:
        raise ValidationError("kind", None, "state map requested on a plain model")
    if not 0 <= world < m.n:
        raise ValidationError("sigma", world, f"world index out of range 0..{m.n - 1}")
    mask = 0
    for g in m.sigma[world]:
        mask |= g.mask
    return InfoState(mask, m.n)


def sigma_image(m: InformationModel, s: InfoState) -> list[InfoState]:
    """Generators of every world in s, concatenated in world order.

    Duplicates are dropped, keeping the first occurrence.
    """
    if m.sigma is None:
        raise ValidationError("kind", None, "state map requested on a plain model")
    if s.width != m.n:
        raise ValidationError("sigma", None, f"state width {s.width} != worlds {m.n}")
    seen: set[int] = set()
    out: list[InfoState] = []
    for i in s.worlds():
        for g in m.sigma[i]:
            if g.mask not in seen:
                seen.add(g.mask)
                out.append(g)
    return out


def downward_closure(states: list[InfoState]) -> list[InfoState]:
    """Smallest family containing the input and closed under subsets.

    Returned in ascending mask order; empty input stays empty.
    """
    if not states:
        return []
    width = states[0].width
    if any(s.width != width for s in states):
        raise ValueError("states of mixed widths")
    masks: set[int] = set()
    for s in states:
        t = s.mask
        while True:
            masks.add(t)
            if t == 0:
                break
            t = (t - 1) & s.mask
    return [InfoState(mask, width) for mask in sorted(masks)]


def write_model_file(m: InformationModel) -> str:
    """Serialize a valid model in the on-disk text format."""
    delta, epsilons = encode_model(m)
    lines = [
        "inqmodel v1",
        f"atoms {m.l}",
        f"worlds {m.n}",
        # zero atoms leave delta empty; the line is then just the keyword
        f"delta {delta}".rstrip(),
    ]
    lines.extend(f"epsilon {i} {eps}" for i, eps in enumerate(epsilons))
    return "\n".join(lines) + "\n"


def _decimal(word: str) -> int | None:
    # str.isdigit alone accepts "²", which int rejects, and "٠", which int
    # reads as 0; int refuses more digits than sys.get_int_max_str_digits()
    try:
        return int(word) if word.isascii() and word.isdigit() else None
    except ValueError:
        return None


def read_model_file(text: str) -> InformationModel:
    """Parse the on-disk text format; inverse of write_model_file.

    Raises:
        CodecError: on any layout problem, naming the line number.
        ValidationError: when the decoded model violates an invariant.
    """
    # (line number, words before any comment) of each line that has words
    lines = enumerate(text.splitlines(), start=1)
    rows = ((lineno, parts) for lineno, raw in lines if (parts := raw.split("#", 1)[0].split()))

    def take(expect: str) -> tuple[int, list[str]]:
        row = next(rows, None)
        if row is None:
            raise CodecError("format", f"missing {expect} line")
        return row

    lineno, parts = take("header")
    if parts != ["inqmodel", "v1"]:
        raise CodecError("header", f"line {lineno}: expected 'inqmodel v1'")
    lineno, parts = take("atoms")
    l = _decimal(parts[1]) if len(parts) == 2 and parts[0] == "atoms" else None
    if l is None:
        raise CodecError("format", f"line {lineno}: expected 'atoms <count>'")
    lineno, parts = take("worlds")
    n = _decimal(parts[1]) if len(parts) == 2 and parts[0] == "worlds" else None
    if n is None:
        raise CodecError("format", f"line {lineno}: expected 'worlds <count>'")
    lineno, parts = take("delta")
    if parts[0] != "delta" or len(parts) > 2:
        raise CodecError("format", f"line {lineno}: expected 'delta <bits>'")
    delta = parts[1] if len(parts) == 2 else ""
    epsilons: list[str] = []
    for lineno, parts in rows:
        world = _decimal(parts[1]) if len(parts) == 3 and parts[0] == "epsilon" else None
        if world is None:
            raise CodecError("format", f"line {lineno}: expected 'epsilon <world> <bits>'")
        if world != len(epsilons):
            raise CodecError(
                "format",
                f"line {lineno}: epsilon lines must cover worlds 0..{n - 1} in order",
            )
        epsilons.append(parts[2])
    if epsilons and len(epsilons) != n:
        raise CodecError("length", f"got {len(epsilons)} epsilon lines, expected {n}")
    return decode_model(delta, epsilons, n, l)
