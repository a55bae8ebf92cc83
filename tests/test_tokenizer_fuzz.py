"""Differential fuzzing of ``expressions._tokenize`` against the
character-stepping reference ``conftest.reference_tokenize``.

The texts are those of the parser fuzz test (grammar texts, as generated
and mutated), the same texts salted with runs of ASCII and Unicode
whitespace (leading, trailing and before a bad character among them),
and a few fixed edge cases.  For each, both tokenizers return the same
(kind, text, offset) triples, or both raise ``ParseError`` with the same
message and offset.
"""

import random

from curvlab.expressions import ParseError, _tokenize

from conftest import reference_tokenize
from test_parser_fuzz import expr, mutate

TEXTS = 6000
WHITESPACE = (" ", "  ", "\t", "\n", " \r\n ", "\u00a0", "\u2003",
              "\x1c")
BAD = ("$", "\u00e9", "#", "?", "\u00b2")
# empty and whitespace-only text, whitespace at either end, a bad
# character after ASCII and Unicode whitespace, a Unicode digit
FIXED = ("", " ", " \t\n", "\u00a0", "x  ", "  x", "x $",
         "x \u00a0$", "1 2", "x\u2003+\u2003y", "\u0663 + 1", "\u00e9",
         "sin ( x ) ^ 2 ", "1e5e5", "1.e-3", ".5.5", "  $")


def salted(rng, text):
    """``text`` with 1-4 whitespace runs inserted, now and then followed
    by a bad character, and whitespace now and then at either end."""
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        run = rng.choice(WHITESPACE)
        if rng.random() < 0.15:
            run += rng.choice(BAD)
        text = text[:at] + run + text[at:]
    if rng.random() < 0.3:
        text = rng.choice(WHITESPACE) + text
    if rng.random() < 0.3:
        text += rng.choice(WHITESPACE)
    return text


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return (str(exc), exc.offset)


def test_tokenize_is_the_reference():
    rng = random.Random(2024)
    texts = list(FIXED)
    for _ in range(TEXTS // 3):
        grammatical = expr(rng, 2)
        texts += [grammatical, mutate(rng, grammatical),
                  salted(rng, grammatical)]
    bad_after_space = trailing = 0
    for text in texts:
        ours = outcome(_tokenize, text)
        assert ours == outcome(reference_tokenize, text), repr(text)
        if isinstance(ours, tuple):
            offset = ours[1]
            assert not text[offset].isspace(), repr(text)
            bad_after_space += offset > 0 and text[offset - 1].isspace()
        else:
            trailing += text != text.rstrip()
    # the texts reach an error right after whitespace and valid texts
    # that end in whitespace
    assert bad_after_space > 0.02 * len(texts)
    assert trailing > 0.05 * len(texts)
    assert outcome(_tokenize, " \t\n") == [("end", "", 3)]
    assert outcome(_tokenize, "x \u00a0$") == (
        "unexpected character '$' (offset 3)", 3)
