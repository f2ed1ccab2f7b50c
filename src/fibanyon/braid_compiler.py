"""Braid words: representation, evaluation, distances and gate search.

A :class:`BraidWord` stores letters ``(generator, power)`` in **application
order**: ``letters[0]`` acts first on states.  The string form mirrors the
usual operator-product notation instead, reading right to left, so
``"s12^4 s23^-2"`` parses to the word that applies ``sigma23^-2`` first.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import braid_space
from ._linalg import dagger, phase_distances, unitarity_defect

SPACES = ("physical4", "logical2")

SEARCH_POWERS = (1, -1, 2, -2, 3, -3, 4, -4)
"""Per-letter generator powers enumerated by :func:`search_word`."""

HADAMARD_WORD_DISTANCE = 0.009286841417763554958337478
"""Phase-quotient Frobenius distance of the braided Hadamard from the exact
Hadamard, measured once at 60 decimal digits and pinned for regression; the
acceptance suite checks it against an independent extended-precision oracle
(``tests/test_acceptance.py``, ``_independent_hadamard_distance_oracle``)."""


class BraidLetter(NamedTuple):
    generator: int  # 12 or 23
    power: int      # nonzero signed integer


@dataclass(frozen=True)
class BraidWord:
    letters: tuple[BraidLetter, ...]

    def __post_init__(self) -> None:
        for letter in self.letters:
            if letter.generator not in braid_space.GENERATOR_INDICES:
                raise ValueError(f"unknown generator index {letter.generator}")
            if letter.power == 0:
                raise ValueError("letter powers must be nonzero")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def crossing_count(self) -> int:
        return sum([abs(power) for _, power in self.letters])

    def canonicalize(self) -> "BraidWord":
        """Merge adjacent letters with equal generator index; drop zeros."""
        merged: list[BraidLetter] = []
        for letter in self.letters:
            if merged and merged[-1].generator == letter.generator:
                power = merged[-1].power + letter.power
                merged.pop()
                if power != 0:
                    merged.append(BraidLetter(letter.generator, power))
            else:
                merged.append(letter)
        # a cancellation can make new neighbours equal; repeat until stable
        word = BraidWord(tuple(merged))
        return word if len(word.letters) == len(self.letters) else word.canonicalize()

    def to_string(self) -> str:
        """Operator-product form: rightmost token is applied first."""
        return " ".join(
            f"s{l.generator}^{l.power}" for l in reversed(self.letters)
        )

    @classmethod
    def from_string(cls, text: str) -> "BraidWord":
        """Parse the operator-product form of :meth:`to_string`.

        Each token ``s<generator>^<power>`` is split once at its first
        ``^``.  The generator is ASCII digits, and the power ASCII digits
        after an optional sign.  The leftmost token that is not of that form
        raises ``ValueError``; the word then validates its letters."""
        # On ASCII text without "_" or a signed generator, int() accepts
        # exactly these spellings, so only other text is checked per token.
        plain = text.isascii() and "_" not in text and "s+" not in text and "s-" not in text
        letters: list[BraidLetter] = []
        for token in text.split():
            head, caret, power = token.partition("^")
            if not caret or head[:1] != "s":
                raise ValueError(f"cannot parse braid letter {token!r}")
            if not plain:
                _check_integer(head[1:], signed=False)
                _check_integer(power, signed=True)
            letters.append(BraidLetter(int(head[1:]), int(power)))
        letters.reverse()
        return cls(tuple(letters))

    @classmethod
    def from_letters(cls, letters: Iterable[tuple[int, int]]) -> "BraidWord":
        return cls(tuple(BraidLetter(g, p) for g, p in letters))


def _check_integer(number: str, signed: bool) -> None:
    """Raise ``int()``'s ``ValueError`` for ``number`` unless it is one or
    more ASCII digits, after one ``+`` or ``-`` if ``signed``."""
    digits = number[1:] if signed and number[:1] in ("+", "-") else number
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {number!r}")


def empty_word() -> BraidWord:
    return BraidWord(())


def hadamard_word() -> BraidWord:
    """The 15-operation braid realizing the logical Hadamard gate.

    In operator-product form (rightmost factor acting first) the word reads
    ``(s12)^4 (s23)^-2 (s12)^2 (s23)^-2 (s12)^2 (s23)^2 (s12)^-2 (s23)^4
    (s12)^2 (s23)^-2 (s12)^-2 (s23)^2 (s12)^2``; each letter below is one
    squared-generator braiding operation, so the fourth powers appear as two
    consecutive letters, 15 letters and 30 elementary crossings in total.
    """
    written = [
        (12, 2), (12, 2), (23, -2), (12, 2), (23, -2), (12, 2), (23, 2),
        (12, -2), (23, 2), (23, 2), (12, 2), (23, -2), (12, -2), (23, 2), (12, 2),
    ]
    return BraidWord.from_letters(reversed(written))


GENERATOR_ORDER = 10
"""Order of both generators in both spaces: ``sigma ** 10`` is the identity,
as the R-symbols are tenth roots of unity."""


def reduced_power(power: int) -> int:
    """The power that :func:`letter_matrix` raises a generator to: ``power``
    itself below :data:`GENERATOR_ORDER` in magnitude, else ``sign(power) *
    (|power| mod 10)``; so always in -9..9, with the sign of ``power`` or 0."""
    if -GENERATOR_ORDER < power < GENERATOR_ORDER:
        return power
    return power % GENERATOR_ORDER if power > 0 else -(-power % GENERATOR_ORDER)


@functools.lru_cache(maxsize=128)
def letter_matrix(space: str, generator: int, power: int) -> np.ndarray:
    """Read-only ``sigma_generator ** power`` on ``space``, one of
    :data:`SPACES`: the one rule by which a braid letter becomes a matrix,
    cached per letter.

    The power is first reduced by :func:`reduced_power`, so the rounding does
    not grow with the power; a letter's duration still counts every crossing.
    Powers below 10 in magnitude are exactly ``np.linalg.matrix_power``'s."""
    if space == "physical4":
        base = braid_space.sigma(generator)
    elif space == "logical2":
        base = braid_space.sigma_logical(generator)
    else:
        raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")
    u = np.linalg.matrix_power(base, reduced_power(power))
    u.flags.writeable = False
    return u


def evaluate(word: BraidWord, space: str = "physical4") -> np.ndarray:
    """Unitary realized by a braid word on the chosen space.

    Letters act in application order: ``letters[0]`` is the rightmost
    factor of the product.
    """
    u = np.eye(len(letter_matrix(space, 12, 1)), dtype=complex)
    for letter in word.letters:
        u = letter_matrix(space, *letter) @ u
    return u


def distance_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between ``u`` and ``v`` minimized over a global phase.

    The minimum of ``||u - exp(i theta) v||_F`` over theta has the closed form
    ``sqrt(2 d - 2 |tr(v† u)|)`` for d-dimensional unitaries.  It is zero
    exactly when the two matrices agree up to a global phase, and for
    single-qubit unitaries ranges over [0, 2].
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    val = 2.0 * d - 2.0 * abs(np.trace(dagger(v) @ u))
    return float(np.sqrt(max(val, 0.0)))


def hadamard_gate() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


# ---------------------------------------------------------------------------
# Exhaustive gate search
# ---------------------------------------------------------------------------


class SearchResult(NamedTuple):
    word: BraidWord
    distance: float
    evaluated: int
    budget_exhausted: bool


def _letters_from_digits(start_gen: int, digits: Iterable[int]) -> BraidWord:
    letters = []
    gen = start_gen
    for d in digits:
        letters.append(BraidLetter(gen, SEARCH_POWERS[d]))
        gen = 23 if gen == 12 else 12
    return BraidWord(tuple(letters))


def search_word(
    target: np.ndarray,
    max_letters: int,
    budget: int = 10_000_000,
) -> SearchResult:
    """Exhaustive enumeration of canonical braid words approximating a gate.

    Canonical words alternate generator indices with per-letter powers from
    :data:`SEARCH_POWERS`; they are enumerated in deterministic
    length-lexicographic order and evaluated in the logical space.  The
    search stops after ``budget`` evaluated words and reports whether the
    cap cut the enumeration short.  The result is never worse than the
    empty word.  A negative ``max_letters`` or ``budget`` raises
    ``ValueError``.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError("search target must be a 2x2 matrix")
    if unitarity_defect(target) > 1e-8:
        raise ValueError("search target must be unitary")
    if max_letters < 0 or budget < 0:
        raise ValueError(f"max_letters and budget must be non-negative, got {max_letters} and {budget}")

    best_word = empty_word()
    best_dist = distance_up_to_phase(np.eye(2), target)
    if max_letters < 1 or budget == 0:
        # degenerate request: nothing can be enumerated, flag it
        return SearchResult(best_word, best_dist, 0, True)
    evaluated = 0
    n_powers = len(SEARCH_POWERS)

    # levels[start_gen] holds the unitaries of all budget-reachable words of
    # the current length beginning with start_gen
    levels: dict[int, np.ndarray] = {
        gen: np.stack([letter_matrix("logical2", gen, p) for p in SEARCH_POWERS])
        for gen in braid_space.GENERATOR_INDICES
    }
    for length in range(1, max_letters + 1):
        for start_gen in braid_space.GENERATOR_INDICES:
            current = levels[start_gen]
            if evaluated + current.shape[0] > budget:
                current = current[: budget - evaluated]
                levels[start_gen] = current
            if current.shape[0] == 0:
                continue
            d = phase_distances(current, target)
            evaluated += current.shape[0]
            i = int(np.argmin(d))
            # ties within 1e-10 keep the earlier (shorter) word
            if d[i] < best_dist - 1e-10:
                best_dist = float(d[i])
                # index i encodes the power digits, first letter most significant
                digits = []
                rest = i
                for _ in range(length):
                    digits.append(rest % n_powers)
                    rest //= n_powers
                digits.reverse()
                best_word = _letters_from_digits(start_gen, digits)
        if length == max_letters or evaluated >= budget:
            break
        for start_gen in braid_space.GENERATOR_INDICES:
            current = levels[start_gen]
            # do not materialize children the budget can never reach
            max_prefixes = (budget - evaluated + n_powers - 1) // n_powers
            if current.shape[0] > max_prefixes:
                current = current[:max_prefixes]
            next_gen = start_gen if length % 2 == 0 else (23 if start_gen == 12 else 12)
            nxt = np.stack([letter_matrix("logical2", next_gen, p) for p in SEARCH_POWERS])
            # left-multiply: the new letter is applied after the prefix
            levels[start_gen] = np.einsum("pij,njk->npik", nxt, current).reshape(-1, 2, 2)

    # exhausted when fewer were evaluated than there are words; counting stops past the budget
    words = itertools.accumulate(2 * n_powers**length for length in range(1, max_letters + 1))
    return SearchResult(best_word, best_dist, evaluated, any(total > evaluated for total in words))
