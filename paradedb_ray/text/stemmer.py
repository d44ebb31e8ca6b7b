"""English Snowball (Porter2) stemmer, from the published algorithm
(https://snowballstem.org/algorithms/english/stemmer.html).

pg_search's ``stemmer`` filter wraps tantivy's rust-stemmers Snowball
implementations (`/root/reference/tokenizers/src/manager.rs:266-268`);
English lives here, ten further Snowball languages in ``snowball.py``,
and the rest raise a clear error.
"""

from __future__ import annotations

_VOWELS = set("aeiouy")
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_END = set("cdeghkmnrt")

_EXCEPTIONS = {
    "skis": "ski", "skies": "sky", "dying": "die", "lying": "lie",
    "tying": "tie", "idly": "idl", "gently": "gentl", "ugly": "ugli",
    "early": "earli", "only": "onli", "singly": "singl",
    "sky": "sky", "news": "news", "howe": "howe", "atlas": "atlas",
    "cosmos": "cosmos", "bias": "bias", "andes": "andes",
}
_EXCEPTIONS2 = {
    "inning", "outing", "canning", "herring", "earring",
    "proceed", "exceed", "succeed",
}


def _mark_ys(word: str) -> str:
    chars = list(word)
    if chars and chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _VOWELS:
            chars[i] = "Y"
    return "".join(chars)


def _regions(word: str) -> tuple[int, int]:
    n = len(word)
    r1 = n
    for pre in ("gener", "commun", "arsen"):
        if word.startswith(pre):
            r1 = len(pre)
            break
    else:
        for i in range(1, n):
            if word[i] not in _VOWELS and word[i - 1] in _VOWELS:
                r1 = i + 1
                break
    r2 = n
    for i in range(r1 + 1, n):
        if word[i] not in _VOWELS and word[i - 1] in _VOWELS:
            r2 = i + 1
            break
    return r1, r2


def _short_syllable_at(word: str, i: int) -> bool:
    """Short syllable ending at index i (inclusive)."""
    if i == 1:
        return word[0] in _VOWELS and word[1] not in _VOWELS
    if i >= 2:
        return (
            word[i] not in _VOWELS
            and word[i] not in "wxY"
            and word[i - 1] in _VOWELS
            and word[i - 2] not in _VOWELS
        )
    return False


def _is_short(word: str, r1: int) -> bool:
    return r1 >= len(word) and _short_syllable_at(word, len(word) - 1)


def stem_english(word: str) -> str:
    if len(word) <= 2:
        return word
    word = word.lower()
    if word in _EXCEPTIONS:
        return _EXCEPTIONS[word]
    word = _mark_ys(word)
    r1, r2 = _regions(word)

    # Step 0
    for suf in ("'s'", "'s", "'"):
        if word.endswith(suf):
            word = word[: -len(suf)]
            break

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith(("ied", "ies")):
        word = word[:-3] + ("i" if len(word) > 4 else "ie")
    elif word.endswith(("us", "ss")):
        pass
    elif word.endswith("s"):
        if any(c in _VOWELS for c in word[:-2]):
            word = word[:-1]

    if word in _EXCEPTIONS2:
        return word.replace("Y", "y")

    # Step 1b
    step1b_done = False
    if word.endswith("eedly"):
        if len(word) - 5 >= r1:
            word = word[:-3]
    elif word.endswith("eed"):
        if len(word) - 3 >= r1:
            word = word[:-1]
    else:
        for suf in ("ingly", "edly", "ing", "ed"):
            if word.endswith(suf):
                stem = word[: -len(suf)]
                if any(c in _VOWELS for c in stem):
                    word = stem
                    step1b_done = True
                break
    if step1b_done:
        if word.endswith(("at", "bl", "iz")):
            word += "e"
        elif word.endswith(_DOUBLES):
            word = word[:-1]
        elif _is_short(word, r1):
            word += "e"

    # Step 1c
    if (
        len(word) > 2
        and word[-1] in "yY"
        and word[-2] not in _VOWELS
    ):
        word = word[:-1] + "i"

    # Step 2 (longest suffix, in R1)
    step2 = [
        ("ization", "ize"), ("ational", "ate"), ("fulness", "ful"),
        ("ousness", "ous"), ("iveness", "ive"), ("tional", "tion"),
        ("biliti", "ble"), ("lessli", "less"), ("entli", "ent"),
        ("ation", "ate"), ("alism", "al"), ("aliti", "al"),
        ("ousli", "ous"), ("iviti", "ive"), ("fulli", "ful"),
        ("enci", "ence"), ("anci", "ance"), ("abli", "able"),
        ("izer", "ize"), ("ator", "ate"), ("alli", "al"),
        ("bli", "ble"), ("ogi", None), ("li", None),
    ]
    for suf, rep in step2:
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                if suf == "ogi":
                    if word.endswith("logi"):
                        word = word[:-1]
                elif suf == "li":
                    if len(word) >= 3 and word[-3] in _LI_END:
                        word = word[:-2]
                else:
                    word = word[: -len(suf)] + rep
            break

    # Step 3 (in R1)
    step3 = [
        ("ational", "ate"), ("tional", "tion"), ("alize", "al"),
        ("icate", "ic"), ("iciti", "ic"), ("ical", "ic"),
        ("ative", None), ("ful", ""), ("ness", ""),
    ]
    for suf, rep in step3:
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                if suf == "ative":
                    if len(word) - 5 >= r2:
                        word = word[:-5]
                else:
                    word = word[: -len(suf)] + rep
            break

    # Step 4 (in R2)
    step4 = (
        "ement", "ance", "ence", "able", "ible", "ment",
        "ant", "ent", "ism", "ate", "iti", "ous", "ive", "ize",
        "ion", "al", "er", "ic",
    )
    for suf in step4:
        if word.endswith(suf):
            if len(word) - len(suf) >= r2:
                if suf == "ion":
                    if len(word) >= 4 and word[-4] in "st":
                        word = word[:-3]
                else:
                    word = word[: -len(suf)]
            break

    # Step 5
    if word.endswith("e"):
        if len(word) - 1 >= r2 or (
            len(word) - 1 >= r1 and not _short_syllable_at(word, len(word) - 2)
        ):
            word = word[:-1]
    elif word.endswith("ll") and len(word) - 1 >= r2:
        word = word[:-1]

    return word.replace("Y", "y")


def _snowball_langs():
    from paradedb_ray.text import snowball as sb

    return {
        "german": sb.stem_german,
        "french": sb.stem_french,
        "spanish": sb.stem_spanish,
        "italian": sb.stem_italian,
        "portuguese": sb.stem_portuguese,
        "russian": sb.stem_russian,
        "danish": sb.stem_danish,
        "norwegian": sb.stem_norwegian,
        "swedish": sb.stem_swedish,
        "dutch": sb.stem_dutch,
        "finnish": sb.stem_finnish,
        "hungarian": sb.stem_hungarian,
        "romanian": sb.stem_romanian,
        "turkish": _lang("turkish", "stem_turkish"),
        "greek": _lang("greek", "stem_greek"),
        "arabic": _lang("arabic", "stem_arabic"),
        "tamil": _lang("tamil", "stem_tamil"),
    }


def _lang(mod: str, fn: str):
    import importlib

    return getattr(importlib.import_module(f"paradedb_ray.text.{mod}"), fn)


_STEMMERS = {"english": stem_english}


def _lowered(fn):
    """Lowercase the token before stemming, as the reference dictionary
    wrapper does (pg_search delegates to PostgreSQL's snowball dicts,
    which apply a per-character tolower first).  Per-char (not
    str.lower) so an uppercase final Greek sigma becomes 'σ', never the
    context-aware final 'ς' — and so raw uppercase ASCII can never
    alias with the latin stemmers' internal I/U/Y marker characters."""
    def stem(word: str) -> str:
        if not word.islower():
            word = "".join(c.lower() for c in word)
        return fn(word)
    return stem


def stemmer_for(language: str):
    lang = language.lower()
    fn = _STEMMERS.get(lang)
    if fn is None:
        fn = _snowball_langs().get(lang)
    if fn is None:
        known = sorted({"english"} | set(_snowball_langs()))
        raise NotImplementedError(
            f"stemmer language {language!r} not implemented "
            f"(available: {known})"
        )
    return _lowered(fn)
