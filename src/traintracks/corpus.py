"""Bundled example automorphisms used by the demos, tests, and CLI docs."""

from __future__ import annotations

from .errors import InputError
from .words import ALPHABET, Automorphism


def fibonacci() -> Automorphism:
    """a -> ab, b -> a: the golden-ratio substitution, a train track map."""
    return Automorphism(
        {"a": "ab", "b": "a"},
        inverse_images={"a": "b", "b": "Ba"},
    )


def fibonacci_conjugate_a() -> Automorphism:
    """The golden map conjugated by a; positive images, still a train track."""
    return Automorphism(
        {"a": "ba", "b": "a"},
        inverse_images={"a": "b", "b": "aB"},
    )


def fibonacci_conjugate_b() -> Automorphism:
    """The golden map conjugated by b; same outer class, not a train track."""
    return Automorphism(
        {"a": "Babb", "b": "Bab"},
        inverse_images={"a": "BabAb", "b": "Ba"},
    )


def identity_rank2() -> Automorphism:
    return Automorphism({"a": "a", "b": "b"}, inverse_images={"a": "a", "b": "b"})


def swap_rank2() -> Automorphism:
    """a <-> b: simplicial, stretch factor 1, cyclic index 2."""
    return Automorphism({"a": "b", "b": "a"}, inverse_images={"a": "b", "b": "a"})


def swap_fibonacci_rank4() -> Automorphism:
    """Rank 4: two edge blocks swapped, Fibonacci on the way around.

    The square restricts to an independent golden map on each block, so the
    stretch factor is sqrt(phi) and the cyclic index is 2.
    """
    return Automorphism(
        {"a": "c", "b": "d", "c": "ab", "d": "a"},
        inverse_images={"a": "d", "b": "Dc", "c": "a", "d": "b"},
    )


def unipotent_rank2() -> Automorphism:
    """a -> a, b -> ba: a train track map, but reducible (a spans an
    invariant subgraph) and of linear growth."""
    return Automorphism({"a": "a", "b": "ba"}, inverse_images={"a": "a", "b": "bA"})


REGISTRY = {
    "fibonacci": fibonacci,
    "fibonacci-conj-a": fibonacci_conjugate_a,
    "fibonacci-conj-b": fibonacci_conjugate_b,
    "identity": identity_rank2,
    "swap": swap_rank2,
    "swap-fibonacci": swap_fibonacci_rank4,
    "unipotent": unipotent_rank2,
}


def get(name: str) -> Automorphism:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise InputError(f"unknown example {name!r}; bundled: {known}")
    return REGISTRY[name]()


def input_text(name: str) -> str:
    """The example in the text format the CLI reads."""
    auto = get(name)
    letters = ALPHABET[: auto.rank]
    lines = [f"# bundled example: {name}", f"rank: {auto.rank}"]
    lines += [f"{g} -> {auto.images[i]}" for i, g in enumerate(letters)]
    if auto.inverse_images is not None:
        lines.append("inverse:")
        lines += [f"{g} -> {auto.inverse_images[i]}" for i, g in enumerate(letters)]
    return "\n".join(lines) + "\n"
