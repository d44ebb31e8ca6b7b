"""Arabic Snowball stemmer (snowballstem.org/algorithms/arabic/stemmer.html,
Assem Chelli's algorithm).

Normalization, prefix and suffix tables extracted from the official
Snowball-generated among arrays; flow details (is_noun/is_verb gating by
Checks1, per-entry length conditions) verified against the official
implementation on fuzz vectors.
"""

from __future__ import annotations

# --- Normalize_pre: diacritics/tatweel delete; Arabic-Indic digits ->
# ASCII; presentation forms -> base letters ---------------------------------

_PRE_DEL = set("ـًٌٍَُِّْ")
_PRE_MAP = {}
for i, d in enumerate("٠١٢٣٤٥٦٧٨٩"):
    _PRE_MAP[d] = str(i)
for forms, base in (
    ("ﺀ", "ء"), ("ﺁﺂ", "آ"), ("ﺃﺄ", "أ"), ("ﺅﺆ", "ؤ"), ("ﺇﺈ", "إ"),
    ("ﺉﺊﺋﺌ", "ئ"), ("ﺍﺎ", "ا"), ("ﺏﺐﺑﺒ", "ب"), ("ﺓﺔ", "ة"),
    ("ﺕﺖﺗﺘ", "ت"), ("ﺙﺚﺛﺜ", "ث"), ("ﺝﺞﺟﺠ", "ج"), ("ﺡﺢﺣﺤ", "ح"),
    ("ﺥﺦﺧﺨ", "خ"), ("ﺩﺪ", "د"), ("ﺫﺬ", "ذ"), ("ﺭﺮ", "ر"),
    ("ﺯﺰ", "ز"), ("ﺱﺲﺳﺴ", "س"), ("ﺵﺶﺷﺸ", "ش"), ("ﺹﺺﺻﺼ", "ص"),
    ("ﺽﺾﺿﻀ", "ض"), ("ﻁﻂﻃﻄ", "ط"), ("ﻅﻆﻇﻈ", "ظ"), ("ﻉﻊﻋﻌ", "ع"),
    ("ﻍﻎﻏﻐ", "غ"), ("ﻑﻒﻓﻔ", "ف"), ("ﻕﻖﻗﻘ", "ق"), ("ﻙﻚﻛﻜ", "ك"),
    ("ﻝﻞﻟﻠ", "ل"), ("ﻡﻢﻣﻤ", "م"), ("ﻥﻦﻧﻨ", "ن"), ("ﻩﻪﻫﻬ", "ه"),
    ("ﻭﻮ", "و"), ("ﻯﻰ", "ى"), ("ﻱﻲﻳﻴ", "ي"),
    ("ﻻﻼ", "لا"), ("ﻷﻸ", "لأ"), ("ﻹﻺ", "لإ"), ("ﻵﻶ", "لآ"),
):
    for f in forms:
        _PRE_MAP[f] = base

_POST_MAP = {"آ": "ا", "أ": "ا", "إ": "ا", "ؤ": "و", "ئ": "ي"}
_HAMZA_FINAL = set("آأؤإئ")


class _A:
    __slots__ = ("w", "is_noun", "is_verb", "is_defined")

    def __init__(self, w):
        self.w = w
        self.is_noun = True
        self.is_verb = True
        self.is_defined = False


def _checks1(a):
    w = a.w
    if w.startswith(("بال", "كال")):
        if len(w) > 4:
            a.is_noun, a.is_verb, a.is_defined = True, False, True
    elif w.startswith(("ال", "لل")):
        if len(w) > 3:
            a.is_noun, a.is_verb, a.is_defined = True, False, True


def _normalize_pre(a):
    out = []
    for ch in a.w:
        if ch in _PRE_DEL:
            continue
        out.append(_PRE_MAP.get(ch, ch))
    a.w = "".join(out)


def _normalize_post(a):
    if a.w and a.w[-1] in _HAMZA_FINAL:
        a.w = a.w[:-1] + "ء"
    a.w = "".join(_POST_MAP.get(ch, ch) for ch in a.w)


# --- suffix steps (backward) ------------------------------------------------

def _longest(w, entries):
    best = None
    for suf, n in entries:
        if w.endswith(suf) and (best is None or len(suf) > len(best[0])):
            best = (suf, n)
    return best


#: (suffix, min-total-length) — longest-match COMMITS, then the length
#: condition applies (no fallback to shorter entries)
_VERB1 = (("كما", 6), ("هما", 6), ("نا", 5), ("ها", 5), ("هم", 5),
          ("هن", 5), ("كم", 5), ("ه", 4), ("ك", 4), ("ي", 4))
_VERB2A = (("تما", 6), ("ون", 6), ("ين", 6), ("ان", 6),
           ("نا", 5), ("تا", 5), ("تن", 5),
           ("ت", 4), ("ا", 4), ("ن", 4), ("ي", 4))
_NOUN1A = (("كما", 6), ("هما", 6), ("كمو", 6),
           ("نا", 5), ("كم", 5), ("ها", 5), ("هن", 5), ("هم", 5),
           ("كن", 5), ("ني", 5), ("ك", 4), ("ه", 4))


def _commit(a, entries) -> bool:
    m = _longest(a.w, entries)
    if m is not None and len(a.w) >= m[1]:
        a.w = a.w[: -len(m[0])]
        return True
    return False


def _verb_s2a(a) -> bool:
    return _commit(a, _VERB2A)


def _verb_s2b(a) -> bool:
    for suf in ("وا", "تم"):
        if a.w.endswith(suf) and len(a.w) >= 5:
            a.w = a.w[:-2]
            return True
    return False


def _verb_s2c(a) -> bool:
    # longest-match COMMIT: a too-short تمو does NOT fall back to و
    if a.w.endswith("تمو"):
        if len(a.w) >= 6:
            a.w = a.w[:-3]
            return True
        return False
    if a.w.endswith("و") and len(a.w) >= 4:
        a.w = a.w[:-1]
        return True
    return False


def _noun_s1b(a) -> bool:
    if a.w.endswith("ن") and len(a.w) > 5:
        a.w = a.w[:-1]
        return True
    return False


def _noun_s2a(a) -> bool:
    if a.w and a.w[-1] in "ايو" and len(a.w) > 4:
        a.w = a.w[:-1]
        return True
    return False


def _noun_s2b(a) -> bool:
    if a.w.endswith("ات") and len(a.w) > 4:
        a.w = a.w[:-2]
        return True
    return False


def _noun_s2c1(a) -> bool:
    if a.w.endswith("ت") and len(a.w) > 3:
        a.w = a.w[:-1]
        return True
    return False


def _noun_s2c2(a) -> bool:
    if a.w.endswith("ة") and len(a.w) > 3:
        a.w = a.w[:-1]
        return True
    return False


def _noun_s3(a) -> bool:
    if a.w.endswith("ي") and len(a.w) > 2:
        a.w = a.w[:-1]
        return True
    return False


def _alef_maqsura(a) -> bool:
    if a.w.endswith("ى"):
        a.w = a.w[:-1] + "ي"
        return True
    return False


# --- prefix steps (forward) -------------------------------------------------

def _prefix_s1(a) -> bool:
    w = a.w
    if len(w) <= 3:
        return False
    for pre, repl in (("أأ", "أ"), ("أآ", "آ"), ("أؤ", "أ"),
                      ("أا", "ا"), ("أإ", "إ")):
        if w.startswith(pre):
            a.w = repl + w[2:]
            return True
    return False


def stem_arabic(word: str) -> str:
    a = _A(word)
    _checks1(a)
    _normalize_pre(a)

    # backward suffix section
    if not a.is_defined and _commit(a, _NOUN1A):
        while _commit(a, _NOUN1A):
            pass
        (_verb_s2a(a) or _verb_s2c(a))
    elif _noun_s2c2(a):
        if not _noun_s3(a):
            _alef_maqsura(a)
    elif a.is_verb and _commit(a, _VERB1):
        pass
    elif a.is_verb and _verb_s2b(a):
        pass
    elif a.is_verb and _verb_s2a(a):
        pass
    elif _noun_s1b(a):
        (_noun_s2a(a) or _noun_s2b(a) or _noun_s2c1(a))
        if not _noun_s3(a):
            _alef_maqsura(a)
    else:
        ((not a.is_defined and _noun_s2a(a)) or _noun_s2b(a)
         or (not a.is_defined and _noun_s2c1(a)))
        if not _noun_s3(a):
            _alef_maqsura(a)

    # forward prefix section — the cursor carries across steps: after a
    # successful Prefix_Step1 replacement, later steps match at pos 1
    pos = 1 if _prefix_s1(a) else 0
    w = a.w
    if (len(w) > 3 and pos + 1 < len(w) and w[pos] in "فو"
            and w[pos + 1] != "ا"):
        w = a.w = w[:pos] + w[pos + 1:]
    r = w[pos:]
    if r.startswith(("بال", "كال")) and len(w) > 5:
        a.w = w[:pos] + r[3:]
    elif r.startswith(("ال", "لل")) and len(w) > 4:
        a.w = w[:pos] + r[2:]
    elif a.is_noun:
        if r.startswith("با"):
            pass
        elif r.startswith("بب") and len(w) > 3:
            a.w = w[:pos] + "ب" + r[2:]
        elif r.startswith("كك") and len(w) > 3:
            a.w = w[:pos] + "ك" + r[2:]
        elif r.startswith("ب") and len(w) > 3:
            a.w = w[:pos] + r[1:]
        elif a.is_verb:
            _pv(a, pos, r)
    elif a.is_verb:
        _pv(a, pos, r)

    _normalize_post(a)
    return a.w


def _pv(a, pos, r):
    w = a.w
    if len(w) > 4:
        for pre, repl in (("سي", "ي"), ("ست", "ت"), ("سن", "ن"),
                          ("سأ", "أ")):
            if r.startswith(pre):
                a.w = w[:pos] + repl + r[2:]
                return
        for pre in ("يست", "نست", "تست"):
            if r.startswith(pre):
                a.w = w[:pos] + "است" + r[3:]
                return
