"""The Porter stemming algorithm.

A faithful implementation of M.F. Porter, *An algorithm for suffix
stripping* (1980) — the stemmer IR systems of the paper's era used.
Implemented from the published rule tables; behaviour matches the
reference implementation on the classic examples (``caresses`` ->
``caress``, ``ponies`` -> ``poni``, ``relational`` -> ``relat`` ...).
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["porter_stem"]

_VOWELS = set("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Porter's m: the number of VC sequences in the stem."""
    m = 0
    i = 0
    n = len(stem)
    # Skip the initial consonant run.
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        # Vowel run.
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        # Consonant run: one full VC sequence seen.
        while i < n and _is_consonant(stem, i):
            i += 1
        m += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """Consonant-vowel-consonant ending where the final C is not w, x, y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace(word: str, suffix: str, replacement: str, min_measure: int) -> str | None:
    """Replace *suffix* if present and the remaining stem has m > min_measure."""
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word  # suffix matched but condition failed: rule consumed, no change


def _step_1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step_1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    changed = False
    if word.endswith("ed"):
        stem = word[:-2]
        if _contains_vowel(stem):
            word, changed = stem, True
    elif word.endswith("ing"):
        stem = word[:-3]
        if _contains_vowel(stem):
            word, changed = stem, True
    if changed:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step_1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _step_2(word: str) -> str:
    for suffix, replacement in _STEP2_RULES:
        result = _replace(word, suffix, replacement, 0)
        if result is not None:
            return result
    return word


def _step_3(word: str) -> str:
    for suffix, replacement in _STEP3_RULES:
        result = _replace(word, suffix, replacement, 0)
        if result is not None:
            return result
    return word


def _step_4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                return stem
            return word
    # The (m > 1 and (*S or *T)) ION rule.
    if word.endswith("ion"):
        stem = word[:-3]
        if _measure(stem) > 1 and stem and stem[-1] in "st":
            return stem
    return word


def _step_5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step_5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@lru_cache(maxsize=1 << 16)  # pure; a site has a few hundred distinct words
def porter_stem(word: str) -> str:
    """Stem a lowercase word with the Porter algorithm.

    Words of length <= 2 are returned unchanged, as in the original.
    """
    if len(word) <= 2:
        return word
    word = _step_1a(word)
    word = _step_1b(word)
    word = _step_1c(word)
    word = _step_2(word)
    word = _step_3(word)
    word = _step_4(word)
    word = _step_5a(word)
    word = _step_5b(word)
    return word
