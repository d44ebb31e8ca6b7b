"""Snowball stemmers for the non-English languages pg_search exposes
through tantivy's rust-stemmers (`/root/reference/tokenizers/src/
manager.rs:266-268` builds `Stemmer::create(language)`).

Each function is written from the published algorithm descriptions at
snowballstem.org (public specifications, the same source rust-stemmers'
generated code derives from); where the prose is ambiguous (among
commit-vs-region semantics, per-entry result actions) the suffix tables
of the official Snowball-generated code were consulted directly.
English (Porter2) lives in ``stemmer.py``, Turkish in ``turkish.py``,
Greek in ``greek.py``, Arabic in ``arabic.py``, Tamil in ``tamil.py``;
this module adds German, French, Spanish, Italian, Portuguese, Russian,
Danish, Norwegian, Swedish, Dutch, Finnish, Hungarian and Romanian.

Every implemented language is verified BIT-EXACT against the official
Snowball implementation (PostgreSQL 15's snowball dictionaries) on
8-16k fuzz+suffix vectors; 120 oracle pairs per language are baked into
``tests/test_snowball_goldens.py``.  The reference regress corpus only
exercises ``stemmer=english`` (`test_tokenizer_params.sql`).  All 18
rust-stemmers languages are implemented; an unknown language name
raises a clear error from ``stemmer_for``.
"""

from __future__ import annotations


def _longest(word: str, suffixes) -> str | None:
    """The longest suffix of ``word`` among ``suffixes`` (Snowball
    ``among`` semantics: commit to the longest match, apply only its
    rule — a failed CONDITION does NOT fall back to shorter
    suffixes)."""
    best = None
    for s in suffixes:
        if word.endswith(s) and (best is None or len(s) > len(best)):
            best = s
    return best


def _longest_in(word: str, suffixes, start: int) -> str | None:
    """The longest suffix of ``word`` among ``suffixes`` lying entirely
    within ``word[start:]`` — Snowball ``setlimit tomark pX for
    [substring] among(...)`` semantics: a suffix that pokes out of the
    region never matches, so SHORTER in-region suffixes do."""
    best = None
    for s in suffixes:
        if (word.endswith(s) and len(word) - len(s) >= start
                and (best is None or len(s) > len(best))):
            best = s
    return best


def _std_region(word: str, vowels, start: int) -> int:
    """Start of the region after the first non-vowel following a vowel,
    scanning from ``start`` (the standard R1/R2 definition)."""
    for i in range(start + 1, len(word)):
        if word[i] not in vowels and word[i - 1] in vowels:
            return i + 1
    return len(word)


# ---------------------------------------------------------------------------
# German  (snowballstem.org/algorithms/german/stemmer.html)
# ---------------------------------------------------------------------------

_DE_V = frozenset("aeiouyäöü")
_DE_S_END = frozenset("bdfghklmnrt")
_DE_ST_END = frozenset("bdfghklmnt")


def stem_german(word: str) -> str:
    word = word.replace("ß", "ss")
    chars = list(word)
    for i in range(1, len(chars) - 1):
        if chars[i] in "uy" and chars[i - 1] in _DE_V and chars[i + 1] in _DE_V:
            chars[i] = chars[i].upper()
    word = "".join(chars)
    r1 = _std_region(word, _DE_V, 0)
    r2 = _std_region(word, _DE_V, r1)
    r1 = min(max(r1, 3), len(word))

    # step 1
    suf = _longest(word, ("ern", "em", "er", "en", "es", "e", "s"))
    if suf == "s":
        if (len(word) >= 2 and word[-2] in _DE_S_END
                and len(word) - 1 >= r1):
            word = word[:-1]
    elif suf is not None and len(word) - len(suf) >= r1:
        word = word[: -len(suf)]
        if suf in ("e", "en", "es") and word.endswith("niss"):
            word = word[:-1]

    # step 2 (deletes in R1 — not R2; `derbsten` family in the spec)
    suf = _longest(word, ("est", "en", "er", "st"))
    if suf == "st":
        if (len(word) >= 6 and word[-3] in _DE_ST_END
                and len(word) - 2 >= r1):
            word = word[:-2]
    elif suf is not None and len(word) - len(suf) >= r1:
        word = word[: -len(suf)]

    # step 3 (d-suffixes)
    suf = _longest(word, ("end", "ung", "isch", "ik", "ig",
                          "lich", "heit", "keit"))
    if suf in ("end", "ung"):
        if len(word) - len(suf) >= r2:
            word = word[: -len(suf)]
            if (word.endswith("ig") and len(word) - 2 >= r2
                    and not word.endswith("eig")):
                word = word[:-2]
    elif suf in ("ig", "ik", "isch"):
        if (len(word) - len(suf) >= r2
                and not word[: -len(suf)].endswith("e")):
            word = word[: -len(suf)]
    elif suf in ("lich", "heit"):
        if len(word) - len(suf) >= r2:
            word = word[: -len(suf)]
            for p in ("er", "en"):
                if word.endswith(p) and len(word) - 2 >= r1:
                    word = word[:-2]
                    break
    elif suf == "keit":
        if len(word) - 4 >= r2:
            word = word[:-4]
            for p in ("lich", "ig"):
                if word.endswith(p) and len(word) - len(p) >= r2:
                    word = word[: -len(p)]
                    break

    word = word.replace("U", "u").replace("Y", "y")
    return (word.replace("ä", "a").replace("ö", "o").replace("ü", "u"))


# ---------------------------------------------------------------------------
# Danish  (snowballstem.org/algorithms/danish/stemmer.html)
# ---------------------------------------------------------------------------

_DA_V = frozenset("aeiouyæåø")
_DA_S_END = frozenset("abcdfghjklmnoprtvyzå")

_DA_STEP1 = (
    "hed", "ethed", "ered", "e", "erede", "ende", "erende", "ene", "erne",
    "ere", "en", "heden", "eren", "er", "heder", "erer", "heds", "es",
    "endes", "erendes", "enes", "ernes", "eres", "ens", "hedens", "erens",
    "ers", "ets", "erets", "et", "eret",
)


def _scand_r1(word: str, vowels) -> int:
    return min(max(_std_region(word, vowels, 0), 3), len(word))


def stem_danish(word: str) -> str:
    r1 = _scand_r1(word, _DA_V)

    # step 1 (among restricted to R1: out-of-region longest suffixes do
    # not shadow shorter in-region ones)
    suf = _longest_in(word, _DA_STEP1 + ("s",), r1)
    if suf == "s":
        if len(word) >= 2 and word[-2] in _DA_S_END:
            word = word[:-1]
    elif suf is not None:
        word = word[: -len(suf)]

    # step 2: consonant-pair tail (pair matched within R1, ONE deleted)
    if word[-2:] in ("gd", "dt", "gt", "kt") and len(word) - 2 >= r1:
        word = word[:-1]

    # step 3
    if word.endswith("igst"):  # outside the setlimit in danish.sbl
        word = word[:-2]
    suf = _longest_in(word, ("elig", "lig", "els", "ig", "løst"), r1)
    if suf == "løst":
        word = word[:-1]
    elif suf is not None:
        word = word[: -len(suf)]
        if word[-2:] in ("gd", "dt", "gt", "kt") and len(word) - 2 >= r1:
            word = word[:-1]

    # step 4: undouble a final double consonant in R1
    if (len(word) >= 2 and word[-1] == word[-2]
            and word[-1] not in _DA_V and len(word) - 1 >= r1):
        word = word[:-1]
    return word


# ---------------------------------------------------------------------------
# Norwegian  (snowballstem.org/algorithms/norwegian/stemmer.html)
# ---------------------------------------------------------------------------

_NO_V = frozenset("aeiouyæåø")
_NO_S_END = frozenset("bcdfghjlmnoprtvyz")

_NO_STEP1 = (
    "a", "e", "ede", "ande", "ende", "ane", "ene", "hetene", "en", "heten",
    "ar", "er", "heter", "as", "es", "edes", "endes", "enes", "hetenes",
    "ens", "hetens", "ers", "ets", "et", "het", "ast",
)


def stem_norwegian(word: str) -> str:
    r1 = _scand_r1(word, _NO_V)

    suf = _longest_in(word, _NO_STEP1 + ("s", "erte", "ert"), r1)
    if suf == "s":
        prev = word[-2] if len(word) >= 2 else ""
        if prev in _NO_S_END or (
                prev == "k" and len(word) >= 3 and word[-3] not in _NO_V):
            word = word[:-1]
    elif suf in ("erte", "ert"):
        word = word[: -len(suf)] + "er"
    elif suf is not None:
        word = word[: -len(suf)]

    if word[-2:] in ("dt", "vt") and len(word) - 2 >= r1:
        word = word[:-1]

    suf = _longest_in(word, ("hetslov", "eleg", "elov", "slov", "elig",
                             "leg", "eig", "lig", "els", "lov", "ig"), r1)
    if suf is not None:
        word = word[: -len(suf)]
    return word


# ---------------------------------------------------------------------------
# Swedish  (snowballstem.org/algorithms/swedish/stemmer.html)
# ---------------------------------------------------------------------------

_SV_V = frozenset("aeiouyäåö")
_SV_S_END = frozenset("bcdfghjklmnoprtvy")

_SV_STEP1 = (
    "a", "arna", "erna", "heterna", "orna", "ad", "e", "ade", "ande",
    "arne", "are", "aste", "en", "anden", "aren", "heten", "ern", "ar",
    "er", "heter", "or", "as", "arnas", "ernas", "ornas", "es", "ades",
    "andes", "ens", "arens", "hetens", "erns", "at", "andet", "het", "ast",
)


def stem_swedish(word: str) -> str:
    r1 = _scand_r1(word, _SV_V)

    suf = _longest_in(word, _SV_STEP1 + ("s",), r1)
    if suf == "s":
        if len(word) >= 2 and word[-2] in _SV_S_END:
            word = word[:-1]
    elif suf is not None:
        word = word[: -len(suf)]

    if (word[-2:] in ("dd", "gd", "nn", "dt", "gt", "kt", "tt")
            and len(word) - 2 >= r1):
        word = word[:-1]

    suf = _longest_in(word, ("lig", "ig", "els", "löst", "fullt"), r1)
    if suf == "löst":
        word = word[:-1]
    elif suf == "fullt":
        word = word[:-1]
    elif suf is not None:
        word = word[: -len(suf)]
    return word


# ---------------------------------------------------------------------------
# Dutch  (snowballstem.org/algorithms/dutch/stemmer.html)
# ---------------------------------------------------------------------------

_NL_V = frozenset("aeiouyè")


def _nl_undouble(word: str) -> str:
    if word[-2:] in ("kk", "dd", "tt"):
        return word[:-1]
    return word


def stem_dutch(word: str) -> str:
    for a, b in (("ä", "a"), ("ë", "e"), ("ï", "i"), ("ö", "o"), ("ü", "u"),
                 ("á", "a"), ("é", "e"), ("í", "i"), ("ó", "o"), ("ú", "u")):
        word = word.replace(a, b)
    chars = list(word)
    if chars and chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _NL_V:
            chars[i] = "Y"
        elif (chars[i] == "i" and chars[i - 1] in _NL_V
              and i + 1 < len(chars) and chars[i + 1] in _NL_V):
            chars[i] = "I"
    word = "".join(chars)
    r1 = _std_region(word, _NL_V, 0)
    r2 = _std_region(word, _NL_V, r1)
    r1 = min(max(r1, 3), len(word))

    # step 1
    suf = _longest(word, ("heden", "ene", "en", "se", "s"))
    if suf == "heden":
        if len(word) - 5 >= r1:
            word = word[:-5] + "heid"
    elif suf in ("ene", "en"):
        stem = word[: -len(suf)]
        if (len(word) - len(suf) >= r1 and stem
                and stem[-1] not in _NL_V and not stem.endswith("gem")):
            word = _nl_undouble(stem)
    elif suf in ("se", "s"):
        stem = word[: -len(suf)]
        if (len(word) - len(suf) >= r1 and stem
                and stem[-1] not in _NL_V and stem[-1] != "j"):
            word = stem

    # step 2
    e_removed = False
    if (word.endswith("e") and len(word) - 1 >= r1
            and len(word) >= 2 and word[-2] not in _NL_V):
        word = _nl_undouble(word[:-1])
        e_removed = True

    # step 3a
    if (word.endswith("heid") and len(word) - 4 >= r2
            and not word.endswith("cheid")):
        word = word[:-4]
        if word.endswith("en"):
            stem = word[:-2]
            if (len(word) - 2 >= r1 and stem
                    and stem[-1] not in _NL_V and not stem.endswith("gem")):
                word = _nl_undouble(stem)

    # step 3b (d-suffixes)
    suf = _longest(word, ("end", "ing", "ig", "lijk", "baar", "bar"))
    if suf in ("end", "ing"):
        if len(word) - len(suf) >= r2:
            word = word[: -len(suf)]
            if (word.endswith("ig") and len(word) - 2 >= r2
                    and not word.endswith("eig")):
                word = word[:-2]
            else:
                word = _nl_undouble(word)
    elif suf == "ig":
        if len(word) - 2 >= r2 and not word.endswith("eig"):
            word = word[:-2]
    elif suf == "lijk":
        if len(word) - 4 >= r2:
            word = word[:-4]
            if (word.endswith("e") and len(word) - 1 >= r1
                    and len(word) >= 2 and word[-2] not in _NL_V):
                word = _nl_undouble(word[:-1])
    elif suf == "baar":
        if len(word) - 4 >= r2:
            word = word[:-4]
    elif suf == "bar":
        if len(word) - 3 >= r2 and e_removed:
            word = word[:-3]

    # step 4: undouble vowel in C V V D shape
    if (len(word) >= 4 and word[-1] not in _NL_V and word[-1] != "I"
            and word[-2] == word[-3] and word[-2] in "aeou"
            and word[-4] not in _NL_V):
        word = word[:-2] + word[-1]

    return word.replace("I", "i").replace("Y", "y")


# ---------------------------------------------------------------------------
# French  (snowballstem.org/algorithms/french/stemmer.html)
# ---------------------------------------------------------------------------

_FR_V = frozenset("aeiouyâàëéêèïîôûù")

_FR_S1 = (
    "ances", "iqUes", "ismes", "ables", "istes",
    "ance", "iqUe", "isme", "able", "iste", "eux",
    "atrices", "ateurs", "ations", "atrice", "ateur", "ation",
    "logies", "logie", "usions", "utions", "usion", "ution",
    "ences", "ence", "issements", "issement", "ements", "ement",
    "ités", "ité", "ives", "ifs", "ive", "if",
    "eaux", "aux", "euses", "euse",
    "amment", "emment", "ments", "ment",
)
_FR_MENT = ("amment", "emment", "ments", "ment")

_FR_2A = (
    "îmes", "ît", "îtes", "i", "ie", "ies", "ir", "ira", "irai", "iraIent",
    "irais", "irait", "iras", "irent", "irez", "iriez", "irions", "irons",
    "iront", "is", "issaIent", "issais", "issait", "issant", "issante",
    "issantes", "issants", "isse", "issent", "isses", "issez", "issiez",
    "issions", "issons", "it",
)

_FR_2B_E = (
    "é", "ée", "ées", "és", "èrent", "er", "era", "erai", "eraIent",
    "erais", "erait", "eras", "erez", "eriez", "erions", "erons", "eront",
    "ez", "iez",
)
_FR_2B_A = (
    "âmes", "ât", "âtes", "a", "ai", "aIent", "ais", "ait", "ant", "ante",
    "antes", "ants", "as", "asse", "assent", "asses", "assiez", "assions",
)


def stem_french(word: str) -> str:
    # prelude: mark u/i between vowels, y next to a vowel, u after q
    # prelude: a LEFT-TO-RIGHT goto scan whose alternatives apply at the
    # EARLIEST anchor, in order — so in 'yiezif' the (v i v) rule anchored
    # at the y marks the i, and the y itself stays an unmarked vowel
    chars = list(word)
    n = len(chars)
    i = 0
    while i < n - 1:
        if chars[i] in _FR_V:
            c2 = chars[i + 1]
            if c2 in "ui" and i + 2 < n and chars[i + 2] in _FR_V:
                chars[i + 1] = c2.upper()
                i += 2  # the trailing context vowel anchors the next scan
                continue
            if c2 == "y":
                chars[i + 1] = "Y"
                i += 2
                continue
        if chars[i] == "y" and chars[i + 1] in _FR_V:
            chars[i] = "Y"
            i += 1  # the following vowel can anchor the next rule
            continue
        if chars[i] == "q" and chars[i + 1] == "u":
            chars[i + 1] = "U"
            i += 2
            continue
        i += 1
    word = "".join(chars)

    if len(word) >= 2 and word[0] in _FR_V and word[1] in _FR_V:
        rv = 3
    elif word[:3] in ("par", "col", "tap"):
        rv = 3
    else:
        rv = len(word)
        for i in range(1, len(word)):
            if word[i] in _FR_V:
                rv = i + 1
                break
    rv = min(rv, len(word))
    r1 = _std_region(word, _FR_V, 0)
    r2 = _std_region(word, _FR_V, r1)

    # ---- step 1: standard suffixes
    suf = _longest(word, _FR_S1)
    s1_changed = False
    before1 = word
    if suf is not None:
        pos = len(word) - len(suf)
        if suf in ("ance", "iqUe", "isme", "able", "iste", "eux",
                   "ances", "iqUes", "ismes", "ables", "istes"):
            if pos >= r2:
                word = word[:pos]
        elif suf in ("atrice", "ateur", "ation",
                     "atrices", "ateurs", "ations"):
            if pos >= r2:
                word = word[:pos]
                if word.endswith("ic"):
                    if len(word) - 2 >= r2:
                        word = word[:-2]
                    else:
                        word = word[:-2] + "iqU"
        elif suf in ("logie", "logies"):
            if pos >= r2:
                word = word[:pos] + "log"
        elif suf in ("usion", "ution", "usions", "utions"):
            if pos >= r2:
                word = word[:pos] + "u"
        elif suf in ("ence", "ences"):
            if pos >= r2:
                word = word[:pos] + "ent"
        elif suf in ("ement", "ements"):
            if pos >= rv:
                word = word[:pos]
                if word.endswith("iv"):
                    if len(word) - 2 >= r2:
                        word = word[:-2]
                        if word.endswith("at") and len(word) - 2 >= r2:
                            word = word[:-2]
                elif word.endswith("eus"):
                    if len(word) - 3 >= r2:
                        word = word[:-3]
                    elif len(word) - 3 >= r1:
                        word = word[:-3] + "eux"
                elif word.endswith("abl") and len(word) - 3 >= r2:
                    word = word[:-3]
                elif word.endswith("iqU") and len(word) - 3 >= r2:
                    word = word[:-3]
                elif (word.endswith("ièr") or word.endswith("Ièr")) \
                        and len(word) - 3 >= rv:
                    word = word[:-3] + "i"
        elif suf in ("ité", "ités"):
            if pos >= r2:
                word = word[:pos]
                if word.endswith("abil"):
                    if len(word) - 4 >= r2:
                        word = word[:-4]
                    else:
                        word = word[:-4] + "abl"
                elif word.endswith("ic"):
                    if len(word) - 2 >= r2:
                        word = word[:-2]
                    else:
                        word = word[:-2] + "iqU"
                elif word.endswith("iv") and len(word) - 2 >= r2:
                    word = word[:-2]
        elif suf in ("if", "ive", "ifs", "ives"):
            if pos >= r2:
                word = word[:pos]
                if word.endswith("at") and len(word) - 2 >= r2:
                    word = word[:-2]
                    if word.endswith("ic"):
                        if len(word) - 2 >= r2:
                            word = word[:-2]
                        else:
                            word = word[:-2] + "iqU"
        elif suf == "eaux":
            word = word[:pos] + "eau"
        elif suf == "aux":
            if pos >= r1:
                word = word[:pos] + "al"
        elif suf in ("euse", "euses"):
            if pos >= r2:
                word = word[:pos]
            elif pos >= r1:
                word = word[:pos] + "eux"
        elif suf in ("issement", "issements"):
            if pos >= r1 and pos >= 1 and word[pos - 1] not in _FR_V:
                word = word[:pos]
        elif suf == "amment":
            if pos >= rv:
                word = word[:pos] + "ant"
        elif suf == "emment":
            if pos >= rv:
                word = word[:pos] + "ent"
        elif suf in ("ment", "ments"):
            if pos >= 1 and pos - 1 >= rv and word[pos - 1] in _FR_V:
                word = word[:pos]
        s1_changed = word != before1

    # a ment-family match deliberately "fails" in the reference algorithm
    # so the verb-suffix steps still run after it
    s1_success = s1_changed and suf not in _FR_MENT
    chain_success = s1_success

    if not s1_success:
        # ---- step 2a: verb suffixes beginning i (RV-limited among; the
        # preceding non-vowel must itself be in RV)
        suf = _longest_in(word, _FR_2A, rv)
        removed_2a = False
        if suf is not None:
            pos = len(word) - len(suf)
            if pos - 1 >= rv and word[pos - 1] not in _FR_V:
                word = word[:pos]
                removed_2a = True
        if removed_2a:
            chain_success = True
        else:
            # ---- step 2b: other verb suffixes (RV-limited among)
            suf = _longest_in(word, ("ions",) + _FR_2B_E + _FR_2B_A, rv)
            if suf is not None:
                pos = len(word) - len(suf)
                if suf == "ions":
                    if pos >= r2:
                        word = word[:pos]
                        chain_success = True
                elif suf in _FR_2B_E:
                    word = word[:pos]
                    chain_success = True
                else:
                    word = word[:pos]
                    chain_success = True
                    if word.endswith("e") and len(word) - 1 >= rv:
                        word = word[:-1]

    if chain_success:
        # ---- step 3
        if word.endswith("Y"):
            word = word[:-1] + "i"
        elif word.endswith("ç"):
            word = word[:-1] + "c"
    else:
        # ---- step 4: residual suffix
        # the backward test needs a preceding char: a bare 's' survives
        if (word.endswith("s") and len(word) >= 2
                and word[-2] not in "aiouès"):
            word = word[:-1]
        suf = _longest_in(word, ("ion", "ière", "Ière", "ier", "Ier",
                                 "e", "ë"), rv)
        if suf is not None:
            pos = len(word) - len(suf)
            if suf == "ion":
                if (pos >= r2 and pos - 1 >= rv
                        and pos >= 1 and word[pos - 1] in "st"):
                    word = word[:pos]
            elif suf in ("ier", "ière", "Ier", "Ière"):
                word = word[:pos] + "i"
            elif suf == "e":
                word = word[:pos]
            elif suf == "ë":
                if word.endswith("guë"):
                    word = word[:pos]

    # ---- step 5: undouble
    for end in ("enn", "onn", "ett", "ell", "eill"):
        if word.endswith(end):
            word = word[:-1]
            break

    # ---- step 6: un-accent
    i = len(word) - 1
    seen_nonv = False
    while i >= 0 and word[i] not in _FR_V:
        seen_nonv = True
        i -= 1
    if seen_nonv and i >= 0 and word[i] in "éè":
        word = word[:i] + "e" + word[i + 1:]

    return word.replace("I", "i").replace("U", "u").replace("Y", "y")


# ---------------------------------------------------------------------------
# Spanish  (snowballstem.org/algorithms/spanish/stemmer.html)
# ---------------------------------------------------------------------------

_ES_V = frozenset("aeiouáéíóúü")

_ES_PRON = ("me", "se", "sela", "selo", "selas", "selos", "la", "le", "lo",
            "las", "les", "los", "nos")
_ES_GER_A = ("iéndo", "ándo", "ár", "ér", "ír")
_ES_GER_B = ("iendo", "ando", "ar", "er", "ir")

_ES_S1_R2 = (
    "anza", "anzas", "ico", "ica", "icos", "icas", "ismo", "ismos",
    "able", "ables", "ible", "ibles", "ista", "istas", "oso", "osa",
    "osos", "osas", "amiento", "amientos", "imiento", "imientos",
)
_ES_S1_IC = ("adora", "ador", "ación", "adoras", "adores", "aciones",
             "ante", "antes", "ancia", "ancias")
_ES_2A = ("ya", "ye", "yan", "yen", "yeron", "yendo", "yo", "yó", "yas",
          "yes", "yais", "yamos")
_ES_2B_GU = ("en", "es", "éis", "emos")
_ES_2B = (
    "arían", "arías", "arán", "arás", "aríais", "aría", "aréis",
    "aríamos", "aremos", "ará", "aré", "erían", "erías", "erán", "erás",
    "eríais", "ería", "eréis", "eríamos", "eremos", "erá", "eré",
    "irían", "irías", "irán", "irás", "iríais", "iría", "iréis",
    "iríamos", "iremos", "irá", "iré", "aba", "ada", "ida", "ía", "ara",
    "iera", "ad", "ed", "id", "ase", "iese", "aste", "iste", "an",
    "aban", "ían", "aran", "ieran", "asen", "iesen", "aron", "ieron",
    "ado", "ido", "ando", "iendo", "ió", "ar", "er", "ir", "as", "abas",
    "adas", "idas", "ías", "aras", "ieras", "ases", "ieses", "ís",
    "áis", "abais", "íais", "arais", "ierais", "aseis", "ieseis",
    "asteis", "isteis", "ados", "idos", "amos", "ábamos", "íamos",
    "imos", "áramos", "iéramos", "iésemos", "ásemos",
)


def _rv_iberian(word: str, vowels) -> int:
    """RV for Spanish/Italian/Portuguese."""
    n = len(word)
    if n < 3:
        return n
    if word[1] not in vowels:
        for i in range(2, n):
            if word[i] in vowels:
                return i + 1
        return n
    if word[0] in vowels and word[1] in vowels:
        for i in range(2, n):
            if word[i] not in vowels:
                return i + 1
        return n
    return 3


def stem_spanish(word: str) -> str:
    rv = _rv_iberian(word, _ES_V)
    r1 = _std_region(word, _ES_V, 0)
    r2 = _std_region(word, _ES_V, r1)

    # step 0: attached pronoun
    suf = _longest(word, _ES_PRON)
    if suf is not None:
        stem = word[: -len(suf)]
        g = _longest(stem, _ES_GER_A + _ES_GER_B + ("yendo",))
        if g is not None and len(stem) - len(g) >= rv:
            if g in _ES_GER_A:
                deacc = {"iéndo": "iendo", "ándo": "ando", "ár": "ar",
                         "ér": "er", "ír": "ir"}[g]
                word = stem[: -len(g)] + deacc
            elif g in _ES_GER_B:
                word = stem
            elif g == "yendo" and stem[: -5].endswith("u"):
                word = stem

    # step 1: standard suffixes
    before1 = word
    suf = _longest(word, _ES_S1_R2 + _ES_S1_IC + (
        "logía", "logías", "ución", "uciones", "encia", "encias",
        "amente", "mente", "idad", "idades", "iva", "ivo", "ivas", "ivos"))
    if suf is not None:
        pos = len(word) - len(suf)
        if suf in _ES_S1_R2:
            if pos >= r2:
                word = word[:pos]
        elif suf in _ES_S1_IC:
            if pos >= r2:
                word = word[:pos]
                if word.endswith("ic") and len(word) - 2 >= r2:
                    word = word[:-2]
        elif suf in ("logía", "logías"):
            if pos >= r2:
                word = word[:pos] + "log"
        elif suf in ("ución", "uciones"):
            if pos >= r2:
                word = word[:pos] + "u"
        elif suf in ("encia", "encias"):
            if pos >= r2:
                word = word[:pos] + "ente"
        elif suf == "amente":
            if pos >= r1:
                word = word[:pos]
                if word.endswith("iv"):
                    if len(word) - 2 >= r2:
                        word = word[:-2]
                        if word.endswith("at") and len(word) - 2 >= r2:
                            word = word[:-2]
                elif (word[-2:] in ("os", "ic", "ad")
                      and len(word) - 2 >= r2):
                    word = word[:-2]
        elif suf == "mente":
            if pos >= r2:
                word = word[:pos]
                if (word[-4:] in ("ante", "able", "ible")
                        and len(word) - 4 >= r2):
                    word = word[:-4]
        elif suf in ("idad", "idades"):
            if pos >= r2:
                word = word[:pos]
                for p in ("abil", "ic", "iv"):
                    if word.endswith(p) and len(word) - len(p) >= r2:
                        word = word[: -len(p)]
                        break
        elif suf in ("iva", "ivo", "ivas", "ivos"):
            if pos >= r2:
                word = word[:pos]
                if word.endswith("at") and len(word) - 2 >= r2:
                    word = word[:-2]

    if word == before1:
        # step 2a: verb suffixes beginning y (preceded by u); the among
        # is RV-limited, so out-of-region matches fall through to
        # shorter in-region suffixes
        suf = _longest_in(word, _ES_2A, rv)
        removed = False
        if suf is not None:
            pos = len(word) - len(suf)
            if pos >= 1 and word[pos - 1] == "u":
                word = word[:pos]
                removed = True
        if not removed:
            # step 2b (RV-limited among)
            suf = _longest_in(word, _ES_2B_GU + _ES_2B, rv)
            if suf is not None:
                word = word[: -len(suf)]
                if suf in _ES_2B_GU and word.endswith("gu"):
                    word = word[:-1]

    # step 3: residual suffix (RV-limited among)
    suf = _longest_in(word, ("os", "a", "o", "á", "í", "ó", "e", "é"), rv)
    if suf is not None:
        word = word[: -len(suf)]
        if suf in ("e", "é"):
            if word.endswith("gu") and len(word) - 1 >= rv:
                word = word[:-1]

    for a, b in (("á", "a"), ("é", "e"), ("í", "i"), ("ó", "o"), ("ú", "u")):
        word = word.replace(a, b)
    return word


# ---------------------------------------------------------------------------
# Italian  (snowballstem.org/algorithms/italian/stemmer.html)
# ---------------------------------------------------------------------------

_IT_V = frozenset("aeiouàèìòù")

_IT_PRON = ("ci", "gli", "la", "le", "li", "lo", "mi", "ne", "si", "ti",
            "vi", "sene", "gliela", "gliele", "glieli", "glielo", "gliene",
            "mela", "mele", "meli", "melo", "mene", "tela", "tele", "teli",
            "telo", "tene", "cela", "cele", "celi", "celo", "cene", "vela",
            "vele", "veli", "velo", "vene")

_IT_S1_R2 = (
    "anza", "anze", "ico", "ici", "ica", "ice", "iche", "ichi", "ismo",
    "ismi", "abile", "abili", "ibile", "ibili", "ista", "iste", "isti",
    "istà", "istè", "istì", "oso", "osi", "osa", "ose", "mente",
    "atrice", "atrici", "ante", "anti",
)
_IT_2 = (
    "ammo", "ando", "ano", "are", "arono", "asse", "assero", "assi",
    "assimo", "ata", "ate", "ati", "ato", "ava", "avamo", "avano",
    "avate", "avi", "avo", "emmo", "enda", "ende", "endi", "endo",
    "erà", "erai", "eranno", "ere", "erebbe", "erebbero", "erei",
    "eremmo", "eremo", "ereste", "eresti", "erete", "erò", "erono",
    "essero", "ete", "eva", "evamo", "evano", "evate", "evi", "evo",
    "Yamo", "iamo", "immo", "irà", "irai", "iranno", "ire", "irebbe",
    "irebbero", "irei", "iremmo", "iremo", "ireste", "iresti", "irete",
    "irò", "irono", "isca", "iscano", "isce", "isci", "isco", "iscono",
    "issero", "ita", "ite", "iti", "ito", "iva", "ivamo", "ivano",
    "ivate", "ivi", "ivo", "ono", "uta", "ute", "uti", "uto", "ar", "ir",
)


def stem_italian(word: str) -> str:
    for a, b in (("á", "à"), ("é", "è"), ("í", "ì"), ("ó", "ò"), ("ú", "ù")):
        word = word.replace(a, b)
    chars = list(word)
    n = len(chars)
    for i, c in enumerate(chars):
        if c in "ui" and 0 < i < n - 1 \
                and chars[i - 1] in _IT_V and chars[i + 1] in _IT_V:
            chars[i] = c.upper()
        elif c == "u" and i > 0 and chars[i - 1] == "q":
            chars[i] = "U"
    word = "".join(chars)

    rv = _rv_iberian(word, _IT_V)
    r1 = _std_region(word, _IT_V, 0)
    r2 = _std_region(word, _IT_V, r1)

    # step 0: attached pronoun (gerund among RV-limited)
    suf = _longest(word, _IT_PRON)
    if suf is not None:
        stem = word[: -len(suf)]
        g = _longest_in(stem, ("ando", "endo", "ar", "er", "ir"), rv)
        if g is not None:
            if g in ("ando", "endo"):
                word = stem
            else:
                word = stem + "e"

    # step 1: standard suffixes
    before1 = word
    suf = _longest(word, _IT_S1_R2 + (
        "azione", "azioni", "atore", "atori", "logia", "logie",
        "uzione", "uzioni", "usione", "usioni", "enza", "enze",
        "amento", "amenti", "imento", "imenti", "amente", "ità",
        "ivo", "ivi", "iva", "ive"))
    if suf is not None:
        pos = len(word) - len(suf)
        if suf in _IT_S1_R2:
            if pos >= r2:
                word = word[:pos]
        elif suf in ("azione", "azioni", "atore", "atori"):
            if pos >= r2:
                word = word[:pos]
                if word.endswith("ic") and len(word) - 2 >= r2:
                    word = word[:-2]
        elif suf in ("logia", "logie"):
            if pos >= r2:
                word = word[:pos] + "log"
        elif suf in ("uzione", "uzioni", "usione", "usioni"):
            if pos >= r2:
                word = word[:pos] + "u"
        elif suf in ("enza", "enze"):
            if pos >= r2:
                word = word[:pos] + "ente"
        elif suf in ("amento", "amenti", "imento", "imenti"):
            if pos >= rv:
                word = word[:pos]
        elif suf == "amente":
            if pos >= r1:
                word = word[:pos]
                if word.endswith("iv"):
                    if len(word) - 2 >= r2:
                        word = word[:-2]
                        if word.endswith("at") and len(word) - 2 >= r2:
                            word = word[:-2]
                else:
                    for p in ("os", "ic", "abil"):
                        if word.endswith(p) and len(word) - len(p) >= r2:
                            word = word[: -len(p)]
                            break
        elif suf == "ità":
            if pos >= r2:
                word = word[:pos]
                for p in ("abil", "ic", "iv"):
                    if word.endswith(p) and len(word) - len(p) >= r2:
                        word = word[: -len(p)]
                        break
        elif suf in ("ivo", "ivi", "iva", "ive"):
            if pos >= r2:
                word = word[:pos]
                if word.endswith("at") and len(word) - 2 >= r2:
                    word = word[:-2]
                    if word.endswith("ic") and len(word) - 2 >= r2:
                        word = word[:-2]

    if word == before1:
        # step 2: verb suffixes (RV-limited among)
        suf = _longest_in(word, _IT_2, rv)
        if suf is not None:
            word = word[: -len(suf)]

    # step 3a: vowel suffix
    if word and word[-1] in "aeioàèìò" and len(word) - 1 >= rv:
        word = word[:-1]
        if word.endswith("i") and len(word) - 1 >= rv:
            word = word[:-1]
    # step 3b
    if (word.endswith("ch") or word.endswith("gh")) \
            and len(word) - 2 >= rv:
        word = word[:-1]

    return word.replace("I", "i").replace("U", "u").replace("Y", "y")


# ---------------------------------------------------------------------------
# Portuguese  (snowballstem.org/algorithms/portuguese/stemmer.html)
# ---------------------------------------------------------------------------

_PT_V = frozenset("aeiouáéíóúâêô")

_PT_S1_R2 = (
    "eza", "ezas", "ico", "ica", "icos", "icas", "ismo", "ismos", "ável",
    "ível", "ista", "istas", "oso", "osa", "osos", "osas", "amento",
    "amentos", "imento", "imentos",
)
_PT_S1_IC = ("adora", "ador", "aça~o", "adoras", "adores", "aço~es",
             "ante", "antes", "ância")
_PT_2 = (
    "ada", "ida", "ia", "aria", "eria", "iria", "ará", "ara", "erá",
    "era", "irá", "ava", "asse", "esse", "isse", "aste", "este", "iste",
    "ei", "arei", "erei", "irei", "am", "iam", "ariam", "eriam", "iriam",
    "aram", "eram", "iram", "avam", "em", "arem", "erem", "irem",
    "assem", "essem", "issem", "ado", "ido", "ando", "endo", "indo",
    "ara~o", "era~o", "ira~o", "ar", "er", "ir", "as", "adas", "idas",
    "ias", "arias", "erias", "irias", "arás", "aras", "erás", "eras",
    "irás", "avas", "es", "ardes", "erdes", "irdes", "ares", "eres",
    "ires", "asses", "esses", "isses", "astes", "estes", "istes", "is",
    "ais", "eis", "íeis", "aríeis", "eríeis", "iríeis", "áreis",
    "areis", "éreis", "ereis", "íreis", "ireis", "ásseis", "ésseis",
    "ísseis", "áveis", "ados", "idos", "ámos", "amos",
    "íamos", "aríamos", "eríamos", "iríamos", "áramos", "éramos",
    "íramos", "ávamos", "emos", "aremos", "eremos", "iremos",
    "ássemos", "êssemos", "íssemos", "imos", "armos", "ermos", "irmos",
    "eu", "iu", "ou", "ira", "iras",
)


def stem_portuguese(word: str) -> str:
    word = word.replace("ã", "a~").replace("õ", "o~")

    rv = _rv_iberian(word, _PT_V)
    r1 = _std_region(word, _PT_V, 0)
    r2 = _std_region(word, _PT_V, r1)

    # step 1: standard suffixes
    before1 = word
    suf = _longest(word, _PT_S1_R2 + _PT_S1_IC + (
        "logia", "logias", "uça~o", "uço~es", "ência", "ências",
        "amente", "mente", "idade", "idades", "iva", "ivo", "ivas",
        "ivos", "ira", "iras"))
    if suf is not None:
        pos = len(word) - len(suf)
        if suf in _PT_S1_R2:
            if pos >= r2:
                word = word[:pos]
        elif suf in _PT_S1_IC:
            if pos >= r2:
                word = word[:pos]
                if word.endswith("ic") and len(word) - 2 >= r2:
                    word = word[:-2]
        elif suf in ("logia", "logias"):
            if pos >= r2:
                word = word[:pos] + "log"
        elif suf in ("uça~o", "uço~es"):
            if pos >= r2:
                word = word[:pos] + "u"
        elif suf in ("ência", "ências"):
            if pos >= r2:
                word = word[:pos] + "ente"
        elif suf == "amente":
            if pos >= r1:
                word = word[:pos]
                if word.endswith("iv"):
                    if len(word) - 2 >= r2:
                        word = word[:-2]
                        if word.endswith("at") and len(word) - 2 >= r2:
                            word = word[:-2]
                else:
                    for p in ("os", "ic", "ad"):
                        if word.endswith(p) and len(word) - 2 >= r2:
                            word = word[:-2]
                            break
        elif suf == "mente":
            if pos >= r2:
                word = word[:pos]
                for p in ("ante", "avel", "ível"):
                    if word.endswith(p) and len(word) - 4 >= r2:
                        word = word[:-4]
                        break
        elif suf in ("idade", "idades"):
            if pos >= r2:
                word = word[:pos]
                for p in ("abil", "ic", "iv"):
                    if word.endswith(p) and len(word) - len(p) >= r2:
                        word = word[: -len(p)]
                        break
        elif suf in ("iva", "ivo", "ivas", "ivos"):
            if pos >= r2:
                word = word[:pos]
                if word.endswith("at") and len(word) - 2 >= r2:
                    word = word[:-2]
        elif suf in ("ira", "iras"):
            if pos >= rv and pos >= 1 and word[pos - 1] == "e":
                word = word[:pos] + "ir"

    step2_done = False
    if word == before1:
        # step 2: verb suffixes (RV-limited among)
        suf = _longest_in(word, _PT_2, rv)
        if suf is not None:
            word = word[: -len(suf)]
            step2_done = True

    if word != before1 or step2_done:
        # step 3
        if (word.endswith("i") and len(word) - 1 >= rv
                and len(word) >= 2 and word[-2] == "c"):
            word = word[:-1]
    else:
        # step 4: residual suffix (RV-limited among)
        suf = _longest_in(word, ("os", "a", "i", "o", "á", "í", "ó"), rv)
        if suf is not None:
            word = word[: -len(suf)]

    # step 5
    if word and word[-1] in "eéê" and len(word) - 1 >= rv:
        word = word[:-1]
        if word.endswith("gu") and len(word) - 1 >= rv:
            word = word[:-1]
        elif word.endswith("ci") and len(word) - 1 >= rv:
            word = word[:-1]
    elif word.endswith("ç"):
        word = word[:-1] + "c"

    return word.replace("a~", "ã").replace("o~", "õ")


# ---------------------------------------------------------------------------
# Russian  (snowballstem.org/algorithms/russian/stemmer.html)
# ---------------------------------------------------------------------------

_RU_V = frozenset("аеиоуыэюя")

_RU_PGERUND_AYA = ("в", "вши", "вшись")
_RU_PGERUND = ("ив", "ивши", "ившись", "ыв", "ывши", "ывшись")
_RU_ADJ = (
    "ее", "ие", "ые", "ое", "ими", "ыми", "ей", "ий", "ый", "ой", "ем",
    "им", "ым", "ом", "его", "ого", "ему", "ому", "их", "ых", "ею",
    "ою", "ую", "юю", "ая", "яя",
)
_RU_PART_AYA = ("ем", "нн", "вш", "ющ", "щ")
_RU_PART = ("ивш", "ывш", "ующ")
_RU_VERB_AYA = ("ла", "на", "ете", "йте", "ли", "й", "л", "ем", "н", "ло",
                "но", "ет", "ют", "ны", "ть", "ешь", "нно")
_RU_VERB = (
    "ила", "ыла", "ена", "ейте", "уйте", "ите", "или", "ыли", "ей",
    "уй", "ил", "ыл", "им", "ым", "ен", "ило", "ыло", "ено", "ят",
    "ует", "уют", "ит", "ыт", "ены", "ить", "ыть", "ишь", "ую", "ю",
)
_RU_NOUN = (
    "а", "ев", "ов", "ие", "ье", "е", "иями", "ями", "ами", "еи", "ии",
    "и", "ией", "ей", "ой", "ий", "й", "иям", "ям", "ием", "ем", "ам",
    "ом", "о", "у", "ах", "иях", "ях", "ы", "ь", "ию", "ью", "ю", "ия",
    "ья", "я",
)


def _ru_drop(word: str, rv: int, suffixes, need_aya=()) -> str | None:
    """Remove the longest matching suffix whose start is in RV; suffixes
    in ``need_aya`` must additionally be preceded by а/я (the а/я stays,
    and must itself be in RV)."""
    best = None
    for s in suffixes:
        if not word.endswith(s) or (best and len(s) <= len(best[0])):
            continue
        pos = len(word) - len(s)
        if pos < rv:
            continue
        if s in need_aya:
            if pos >= 1 and word[pos - 1] in "ая" and pos - 1 >= rv:
                best = (s, pos)
        else:
            best = (s, pos)
    if best is None:
        return None
    return word[: best[1]]


def stem_russian(word: str) -> str:
    word = word.replace("ё", "е")
    rv = len(word)
    for i, c in enumerate(word):
        if c in _RU_V:
            rv = i + 1
            break
    r1 = _std_region(word, _RU_V, 0)
    r2 = _std_region(word, _RU_V, r1)

    # step 1: perfective gerund, else [reflexive +] adjectival/verb/noun
    got = _ru_drop(word, rv, _RU_PGERUND + _RU_PGERUND_AYA,
                   need_aya=_RU_PGERUND_AYA)
    if got is not None:
        word = got
    else:
        got = _ru_drop(word, rv, ("ся", "сь"))
        if got is not None:
            word = got
        # adjectival: adjective ending, optionally preceded by participle
        got = _ru_drop(word, rv, _RU_ADJ)
        if got is not None:
            word = got
            got = _ru_drop(word, rv, _RU_PART + _RU_PART_AYA,
                           need_aya=_RU_PART_AYA)
            if got is not None:
                word = got
        else:
            got = _ru_drop(word, rv, _RU_VERB + _RU_VERB_AYA,
                           need_aya=_RU_VERB_AYA)
            if got is not None:
                word = got
            else:
                got = _ru_drop(word, rv, _RU_NOUN)
                if got is not None:
                    word = got

    # step 2: final и
    if word.endswith("и") and len(word) - 1 >= rv:
        word = word[:-1]

    # step 3: derivational (in R2)
    for s in ("ость", "ост"):
        if word.endswith(s) and len(word) - len(s) >= r2:
            word = word[: -len(s)]
            break

    # step 4
    if word.endswith("нн") and len(word) - 1 >= rv:
        word = word[:-1]
    else:
        got = _ru_drop(word, rv, ("ейше", "ейш"))
        if got is not None:
            word = got
            if word.endswith("нн") and len(word) - 1 >= rv:
                word = word[:-1]
        elif word.endswith("ь") and len(word) - 1 >= rv:
            word = word[:-1]
    return word


# ---------------------------------------------------------------------------
# Finnish  (snowballstem.org/algorithms/finnish/stemmer.html)
# ---------------------------------------------------------------------------

_FI_V = frozenset("aeiouyäö")
_FI_RV = frozenset("aeiouäö")  # restricted vowel (no y)
_FI_LV = ("aa", "ee", "ii", "oo", "uu", "ää", "öö")

_FI_STEP2 = ("si", "ni", "nsa", "nsä", "mme", "nne", "an", "än", "en")
_FI_STEP3 = (
    "han", "hen", "hin", "hon", "hun", "hyn", "hän", "hön",
    "siin", "den", "tten", "seen",
    "tta", "ttä",
    "ta", "tä", "ssa", "ssä", "sta", "stä", "lla", "llä", "lta", "ltä",
    "lle", "na", "nä", "ksi", "ine",
    "a", "ä", "n",
)
#: the official table has NO hun/hyn entries — a word in -hun matches
#: the bare 'n' rule instead
_FI_HXN = {"han": "a", "hen": "e", "hin": "i", "hon": "o",
           "hän": "ä", "hön": "ö"}


def stem_finnish(word: str) -> str:
    r1 = _std_region(word, _FI_V, 0)
    r2 = _std_region(word, _FI_V, r1)

    # step 1: particle etc (in R1)
    suf = _longest_in(word, ("kin", "kaan", "kään", "ko", "kö", "han",
                             "hän", "pa", "pä", "sti"), r1)
    if suf == "sti":
        if len(word) - 3 >= r2:
            word = word[:-3]
    elif suf is not None:
        pos = len(word) - len(suf)
        if pos >= 1 and (word[pos - 1] in "nt" or word[pos - 1] in _FI_V):
            word = word[:pos]

    # step 2: possessive (in R1)
    suf = _longest_in(word, _FI_STEP2, r1)
    if suf == "si":
        if not (len(word) >= 3 and word[-3] == "k"):
            word = word[:-2]
    elif suf == "ni":
        word = word[:-2]
        if word.endswith("kse"):
            word = word[:-1] + "i"
    elif suf in ("nsa", "nsä", "mme", "nne"):
        word = word[: -len(suf)]
    elif suf == "an":
        if word[:-2].endswith(("ta", "ssa", "sta", "lla", "lta", "na")):
            word = word[:-2]
    elif suf == "än":
        if word[:-2].endswith(("tä", "ssä", "stä", "llä", "ltä", "nä")):
            word = word[:-2]
    elif suf == "en":
        if word[:-2].endswith(("lle", "ine")):
            word = word[:-2]

    # step 3: cases (in R1).  The "preceded by Vi" and "preceded by
    # LV" conditions are CONTEXT STRINGS in the among (finnish.sbl has
    # e.g. 'aiden', 'ooseen'), so a non-matching context falls through
    # to shorter entries like bare 'n'; the hXn and tta/ttä conditions
    # are TESTS on bare entries — their failure fails the whole among.
    removed3 = False
    entries = {}
    for v in "aeiouäö":
        for c in ("siin", "den", "tten"):
            entries[v + "i" + c] = len(c)
    for lv in _FI_LV:
        entries[lv + "seen"] = 4
    for c in ("tta", "ttä", "ta", "tä", "ssa", "ssä", "sta", "stä",
              "lla", "llä", "lta", "ltä", "lle", "na", "nä", "ksi",
              "ine"):
        entries[c] = len(c)
    ent = _longest_in(
        word, tuple(entries) + tuple(_FI_HXN) + ("a", "ä", "n"), r1)
    if ent in _FI_HXN:
        pos = len(word) - 3
        if pos >= 1 and word[pos - 1] == _FI_HXN[ent]:
            word = word[:pos]
            removed3 = True
    elif ent in ("tta", "ttä"):
        if word[:-3].endswith("e"):
            word = word[:-3]
            removed3 = True
    elif ent in ("a", "ä"):
        # cv context: the vowel set here INCLUDES y (full V1)
        pos = len(word) - 1
        if (pos >= 2 and word[pos - 1] in _FI_V
                and word[pos - 2] not in _FI_V):
            word = word[:pos]
            removed3 = True
    elif ent == "n":
        word = word[:-1]
        if word.endswith(_FI_LV) or word.endswith("ie"):
            word = word[:-1]
        removed3 = True
    elif ent is not None:
        word = word[: -entries[ent]]
        removed3 = True

    # step 4: other endings (in R2)
    suf = _longest_in(word, ("impi", "impa", "impä", "immi", "imma",
                             "immä", "eja", "ejä", "mpi", "mpa", "mpä",
                             "mmi", "mma", "mmä"), r2)
    if suf in ("mpi", "mpa", "mpä", "mmi", "mma", "mmä"):
        if not word[: -len(suf)].endswith("po"):
            word = word[: -len(suf)]
    elif suf is not None:
        word = word[: -len(suf)]

    # step 5: plurals
    if removed3:
        if word and word[-1] in "ij" and len(word) - 1 >= r1:
            word = word[:-1]
    else:
        if (word.endswith("t") and len(word) - 1 >= r1
                and len(word) >= 2 and word[-2] in _FI_V):
            word = word[:-1]
            if word.endswith("imma") and len(word) - 4 >= r2:
                word = word[:-4]
            elif (word.endswith("mma") and len(word) - 3 >= r2
                    and not word[:-3].endswith("po")):
                word = word[:-3]

    # step 6: tidying (each pattern must lie ENTIRELY inside R1)
    if word.endswith(_FI_LV) and len(word) - 2 >= r1:
        word = word[:-1]
    if (word and word[-1] in "aäei" and len(word) - 2 >= r1
            and len(word) >= 2 and word[-2] not in _FI_V):
        word = word[:-1]
    if word.endswith(("oj", "uj")) and len(word) - 2 >= r1:
        word = word[:-1]
    if word.endswith("jo") and len(word) - 2 >= r1:
        word = word[:-1]
    # undouble a final double consonant followed by zero or more vowels
    i = len(word) - 1
    while i >= 0 and word[i] in _FI_V:
        i -= 1
    if i >= 1 and word[i] not in _FI_V and word[i] == word[i - 1]:
        word = word[:i] + word[i + 1:]
    return word


# ---------------------------------------------------------------------------
# Hungarian  (snowballstem.org/algorithms/hungarian/stemmer.html)
# ---------------------------------------------------------------------------

_HU_V = frozenset("aáeéiíoóöőuúüű")
_HU_DIGRAPHS = ("dzs", "cs", "dz", "gy", "ly", "ny", "sz", "ty", "zs")
#: doubled consonant forms (incl. doubled digraphs, undoubled by removing
#: the tail half)
_HU_DOUBLES = ("bb", "cc", "ccs", "dd", "ff", "gg", "ggy", "jj", "kk",
               "ll", "lly", "mm", "nn", "nny", "pp", "rr", "ss", "ssz",
               "tt", "tty", "vv", "zz", "zzs")


def _hu_r1(word: str) -> int:
    if not word:
        return 0
    if word[0] in _HU_V:
        # after the first consonant or digraph
        for i in range(1, len(word)):
            if word[i] not in _HU_V:
                for d in _HU_DIGRAPHS:
                    if word.startswith(d, i):
                        return i + len(d)
                return i + 1
        return len(word)
    for i in range(1, len(word)):
        if word[i] in _HU_V:
            return i + 1
    return len(word)


def _hu_double(word: str) -> bool:
    return word.endswith(_HU_DOUBLES)


def _hu_undouble(word: str) -> str:
    """Remove the repeated half of a final double (incl. digraphs)."""
    for d in ("ccs", "ggy", "lly", "nny", "ssz", "tty", "zzs"):
        if word.endswith(d):
            return word[:-len(d)] + d[1:]
    return word[:-1]


def _hu_v_ending(word: str, r1: int) -> str:
    """Final á->a / é->e, only when that vowel lies in R1."""
    if word and word[-1] in "áé" and len(word) - 1 >= r1:
        return word[:-1] + ("a" if word[-1] == "á" else "e")
    return word


_HU_CASE = (
    "ban", "ben", "ba", "be", "ra", "re", "nak", "nek", "val", "vel",
    "tól", "től", "ról", "ről", "ból", "ből", "hoz", "hez", "höz",
    "nál", "nél", "ig", "at", "et", "ot", "öt", "ért", "képp", "képpen",
    "kor", "ul", "ül", "vá", "vé", "onként", "enként", "anként", "ként",
    "en", "on", "an", "ön", "n", "t",
)

#: among actions: None = delete the matched suffix; "a"/"e" = REPLACE
#: the matched suffix with that letter (tables decoded from the official
#: Snowball-generated code's among arrays; actions verified against its
#: output)
_HU_OWNED = {
    "éi": None, "áéi": "a", "ééi": "e", "é": None, "ké": None, "aké": None,
    "eké": None, "oké": None, "áké": "a", "éké": "e", "öké": None,
    "éé": "e",
}

_HU_SING_OWNER = {
    "a": None, "ja": None, "d": None, "ad": None, "ed": None, "od": None,
    "ád": "a", "éd": "e", "öd": None, "e": None, "je": None, "nk": None,
    "unk": None, "ánk": "a", "énk": "e", "ünk": None, "uk": None,
    "juk": None, "ájuk": "a", "ük": None, "jük": None, "éjük": "e",
    "m": None, "am": None, "em": None, "om": None, "ám": "a", "ém": "e",
    "o": None, "á": "a", "é": "e",
}

_HU_PLUR_OWNER = {
    "i": None, "ai": None, "jai": None, "ei": None, "jei": None,
    "ái": "a", "éi": "e",
    "itek": None, "eitek": None, "jeitek": None, "éitek": "e",
    "ik": None, "aik": None, "jaik": None, "eik": None, "jeik": None,
    "áik": "a", "éik": "e",
    "ink": None, "aink": None, "jaink": None, "eink": None,
    "jeink": None, "áink": "a", "éink": "e",
    "aitok": None, "jaitok": None, "áitok": "a",
    "im": None, "aim": None, "jaim": None, "eim": None, "jeim": None,
    "áim": "a", "éim": "e",
    "id": None, "aid": None, "jaid": None, "eid": None, "jeid": None,
    "áid": "a", "éid": "e",
}

_HU_PLURAL = {
    "k": None, "ak": None, "ok": None, "ek": None, "ök": None,
    "ák": "a", "ék": "e",
}


def _hu_apply(word: str, table: dict, r1: int) -> str:
    """[substring] among(...) with an R1 condition — UNRESTRICTED
    longest match, then the R1 test; a failed test fails the whole step
    (commit, no fallback to shorter entries)."""
    suf = _longest(word, tuple(table))
    if suf is None or len(word) - len(suf) < r1:
        return word
    repl = table[suf]
    return word[: -len(suf)] + (repl or "")


def stem_hungarian(word: str) -> str:
    r1 = _hu_r1(word)

    # step 1: instrumental (al/el preceded by a double consonant)
    suf = _longest(word, ("al", "el"))
    if (suf is not None and len(word) - 2 >= r1
            and _hu_double(word[:-2])):
        word = _hu_undouble(word[:-2])

    # step 2: frequent cases, then final á->a / é->e (v_ending, in R1)
    suf = _longest(word, _HU_CASE)
    if suf is not None and len(word) - len(suf) >= r1:
        word = _hu_v_ending(word[: -len(suf)], r1)

    # step 3: special cases
    suf = _longest(word, ("én", "án", "ánként"))
    if suf is not None and len(word) - len(suf) >= r1:
        word = word[: -len(suf)] + ("e" if suf == "én" else "a")

    # step 4: other cases
    suf = _longest(word, ("astul", "estül", "stul", "stül",
                          "ástul", "éstül"))
    if suf is not None and len(word) - len(suf) >= r1:
        if suf == "ástul":
            word = word[:-5] + "a"
        elif suf == "éstül":
            word = word[:-5] + "e"
        else:
            word = word[: -len(suf)]

    # step 5: factive (á/é preceded by a double consonant)
    if (word and word[-1] in "áé" and len(word) - 1 >= r1
            and _hu_double(word[:-1])):
        word = _hu_undouble(word[:-1])

    # steps 6-9: owned / singular owner / plural owner / plural
    word = _hu_apply(word, _HU_OWNED, r1)
    word = _hu_apply(word, _HU_SING_OWNER, r1)
    word = _hu_apply(word, _HU_PLUR_OWNER, r1)
    word = _hu_apply(word, _HU_PLURAL, r1)
    return word


# ---------------------------------------------------------------------------
# Romanian  (snowballstem.org/algorithms/romanian/stemmer.html)
# ---------------------------------------------------------------------------

_RO_V = frozenset("aăâeiîou")

#: step 1: combining suffixes — REPLACE and repeat until no change (R1)
_RO_COMBO = {
    "abilitate": "abil", "abilitati": "abil", "abilităi": "abil",
    "abilităţi": "abil",
    "ibilitate": "ibil",
    "ivitate": "iv", "ivitati": "iv", "ivităi": "iv", "ivităţi": "iv",
    "icitate": "ic", "icitati": "ic", "icităi": "ic", "icităţi": "ic",
    "ical": "ic", "icala": "ic", "icale": "ic", "icali": "ic",
    "icală": "ic", "iciv": "ic", "iciva": "ic", "icive": "ic",
    "icivi": "ic", "icivă": "ic", "icator": "ic", "icatori": "ic",
    "ativ": "at", "ativa": "at", "ative": "at", "ativi": "at",
    "ativă": "at", "aţiune": "at", "atoare": "at", "ator": "at",
    "atori": "at", "ătoare": "at", "ător": "at", "ători": "at",
    "itiv": "it", "itiva": "it", "itive": "it", "itivi": "it",
    "itivă": "it", "iţiune": "it", "itoare": "it", "itor": "it",
    "itori": "it",
}

#: step 2: standard suffixes (R2): None = delete, else replacement
_RO_STD = {
    "at": None, "ata": None, "ată": None, "ati": None, "ate": None,
    "ut": None, "uta": None, "ută": None, "uti": None, "ute": None,
    "it": None, "ita": None, "ită": None, "iti": None, "ite": None,
    "ic": None, "ica": None, "ice": None, "ici": None, "ică": None,
    "abil": None, "abila": None, "abile": None, "abili": None,
    "abilă": None, "ibil": None, "ibila": None, "ibile": None,
    "ibili": None, "ibilă": None, "oasa": None, "oasă": None,
    "oase": None, "os": None, "osi": None, "oşi": None,
    "ant": None, "anta": None, "ante": None, "anti": None,
    "antă": None, "ator": None, "atori": None,
    "itate": None, "itati": None, "ităi": None, "ităţi": None,
    "iv": None, "iva": None, "ive": None, "ivi": None, "ivă": None,
    "ism": "ist", "isme": "ist", "ist": "ist", "ista": "ist",
    "iste": "ist", "isti": "ist", "istă": "ist", "işti": "ist",
    "iune": "iun", "iuni": "iun",  # handled specially: ţ+iune/iuni -> t
}

#: step 3 verb suffixes (RV): True = requires a preceding consonant or
#: 'u' (itself in RV); False = unconditional delete (per-entry result
#: codes decoded from the official Snowball-generated among table)
_RO_VERB = {
    "ea": True, "ia": True, "esc": True, "ăsc": True, "ind": True,
    "ând": True, "are": True, "ere": True, "ire": True, "âre": True,
    "se": False, "ase": True, "sese": False, "ise": True, "use": True,
    "âse": True, "eşte": True, "ăşte": True, "eze": True, "ai": True,
    "eai": True, "iai": True, "sei": False, "eşti": True, "ăşti": True,
    "ui": True, "ezi": True, "aşi": True, "seşi": False, "aseşi": True,
    "seseşi": False, "iseşi": True, "useşi": True, "âseşi": True,
    "işi": True, "uşi": True, "âşi": True, "âi": True, "aţi": False,
    "eaţi": True, "iaţi": True, "eţi": False, "iţi": False,
    "arăţi": True, "serăţi": False, "aserăţi": True, "seserăţi": False,
    "iserăţi": True, "userăţi": True, "âserăţi": True, "irăţi": True,
    "urăţi": True, "ârăţi": True, "âţi": False, "am": True, "eam": True,
    "iam": True, "em": False, "asem": True, "sesem": False,
    "isem": True, "usem": True, "âsem": True, "im": False, "ăm": False,
    "arăm": True, "serăm": False, "aserăm": True, "seserăm": False,
    "iserăm": True, "userăm": True, "âserăm": True, "irăm": True,
    "urăm": True, "ârăm": True, "âm": False, "au": True, "eau": True,
    "iau": True, "indu": True, "ându": True, "ez": True, "ească": True,
    "ară": True, "seră": False, "aseră": True, "seseră": False,
    "iseră": True, "useră": True, "âseră": True, "iră": True,
    "ură": True, "âră": True, "ează": True,
}


def stem_romanian(word: str) -> str:
    # prelude: i/u between vowels -> markers (never matched by suffixes)
    chars = list(word)
    for i in range(1, len(chars) - 1):
        if chars[i] in "iu" and chars[i - 1] in _RO_V \
                and chars[i + 1] in _RO_V:
            chars[i] = "I" if chars[i] == "i" else "U"
    word = "".join(chars)

    rv = _rv_iberian(word, _RO_V)
    r1 = _std_region(word, _RO_V, 0)
    r2 = _std_region(word, _RO_V, r1)

    # step 0: removal of plurals / articles (R1)
    suf = _longest(word, ("ul", "ului", "aua", "ea", "ele", "elor",
                          "ii", "iua", "iei", "iile", "iilor", "ilor",
                          "ile", "atei", "aţia", "aţie"))
    if suf is not None and len(word) - len(suf) >= r1:
        pos = len(word) - len(suf)
        if suf in ("ul", "ului"):
            word = word[:pos]
        elif suf == "aua":
            word = word[:pos] + "a"
        elif suf in ("ea", "ele", "elor"):
            word = word[:pos] + "e"
        elif suf in ("ii", "iua", "iei", "iile", "iilor", "ilor"):
            word = word[:pos] + "i"
        elif suf == "ile":
            if not word[:pos].endswith("ab"):
                word = word[:pos] + "i"
        elif suf == "atei":
            word = word[:pos] + "at"
        elif suf in ("aţia", "aţie"):
            word = word[:pos] + "aţi"

    # step 1: combining suffixes — repeat until no replacement (R1)
    standard_removed = False
    while True:
        suf = _longest(word, tuple(_RO_COMBO))
        if suf is None or len(word) - len(suf) < r1:
            break
        word = word[: -len(suf)] + _RO_COMBO[suf]
        standard_removed = True

    # step 2: standard suffixes (R2).  'iune'/'iuni' is a bracket-
    # extension rule: it fires only when preceded by 'ţ' (only the
    # suffix itself must lie in R2) and rewrites 'ţiune'/'ţiuni' -> 't';
    # otherwise the among FAILS outright (commit — no fallback, and
    # standard_removed stays unset so the verb step still runs).
    suf = _longest(word, tuple(_RO_STD))
    if suf is not None and len(word) - len(suf) >= r2:
        if suf in ("iune", "iuni"):
            pos = len(word) - len(suf)
            if pos > 0 and word[pos - 1] == "ţ":
                word = word[: pos - 1] + "t"
                standard_removed = True
        else:
            repl = _RO_STD[suf]
            word = word[: -len(suf)] + (repl or "")
            standard_removed = True

    # step 3: verb suffixes (RV) — only if steps 1-2 removed nothing.
    # COMMIT semantics: the longest match wins and a failed condition
    # does not fall back to shorter entries.
    if not standard_removed:
        # RV-limited matching (out-of-region longest falls through to
        # shorter in-region entries), then per-entry commit conditions
        suf = _longest_in(word, tuple(_RO_VERB), rv)
        if suf is not None:
            pos = len(word) - len(suf)
            if _RO_VERB[suf]:
                if pos - 1 >= rv and (word[pos - 1] not in _RO_V
                                      or word[pos - 1] == "u"):
                    word = word[:pos]
            else:
                word = word[:pos]

    # step 4: final vowel (RV; commit — an out-of-region longest match
    # does not fall back, see 'fhţie')
    suf = _longest(word, ("a", "e", "ie", "i", "ă"))
    if suf is not None and len(word) - len(suf) >= rv:
        word = word[: -len(suf)]

    return word.replace("I", "i").replace("U", "u")
