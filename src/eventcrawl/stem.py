"""Suffix-stripping stemmers for the analysis pipeline.

English uses the classic Porter algorithm; German a light stemmer
(umlaut folding plus plural/case ending removal). ``none`` keeps
tokens unchanged and exists so tests can pin exact terms.
"""

from __future__ import annotations

__all__ = ["STEMMERS", "porter_stem", "german_light_stem"]

_VOWELS = set("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Porter's m: the number of VC sequences in [C](VC)^m[V]."""
    m = 0
    prev_consonant = True
    started = False
    for i in range(len(stem)):
        consonant = _is_consonant(stem, i)
        if not consonant:
            started = True
        if consonant and not prev_consonant and started:
            m += 1
        prev_consonant = consonant
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_consonant(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _replace_longest(word: str, rules: list[tuple[str, str]], min_measure: int) -> str:
    """Apply the first matching suffix rule, if its stem measure qualifies.

    ``rules`` must be sorted longest suffix first.
    """
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


# The rule tables are sorted longest suffix first, once; the sort is
# stable, so equal lengths keep the order written here.
_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]
_STEP2.sort(key=lambda rule: -len(rule[0]))

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]
_STEP3.sort(key=lambda rule: -len(rule[0]))

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]
_STEP4.sort(key=len, reverse=True)


def porter_stem(word: str) -> str:
    """Stem one lowercase token with the Porter algorithm."""
    if len(word) <= 2:
        return word

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]

    # Step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        stripped = None
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            stripped = word[:-2]
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            stripped = word[:-3]
        if stripped is not None:
            word = stripped
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Steps 2 and 3
    word = _replace_longest(word, _STEP2, 0)
    word = _replace_longest(word, _STEP3, 0)

    # Step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                continue
            if _measure(stem) > 1:
                word = stem
            break

    # Step 5a
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word


_GERMAN_FOLD = str.maketrans({"ä": "a", "ö": "o", "ü": "u"})
_ST_ENDINGS = set("bdfghklmnt")


def german_light_stem(word: str) -> str:
    """Light German stemmer: fold umlauts, strip plural/case endings."""
    word = word.replace("ß", "ss").translate(_GERMAN_FOLD)

    # First pass: declension endings.
    if len(word) > 5 and word.endswith("ern"):
        word = word[:-3]
    elif len(word) > 4 and word.endswith(("em", "en", "er", "es")):
        word = word[:-2]
    elif len(word) > 3 and word.endswith("e"):
        word = word[:-1]
    elif len(word) > 3 and word.endswith("s") and word[-2] in _ST_ENDINGS:
        word = word[:-1]

    # Second pass: superlative and residual endings.
    if len(word) > 5 and word.endswith("est"):
        word = word[:-3]
    elif len(word) > 4 and word.endswith(("er", "en")):
        word = word[:-2]
    elif len(word) > 3 and word.endswith("e"):
        word = word[:-1]
    return word


# The analysis languages: language code -> stem function.
STEMMERS = {
    "en": porter_stem,
    "de": german_light_stem,
    "none": lambda token: token,
}
