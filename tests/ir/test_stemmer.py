"""Porter stemmer tests against the published algorithm's behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.stemmer import porter_stem

# Examples from Porter (1980) and the reference implementation's
# voc.txt/output.txt pairs.
REFERENCE = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "digitizer": "digit",
    "operator": "oper",
    "feudalism": "feudal",
    "hopefulness": "hope",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "effective": "effect",
    "probate": "probat",
    "rate": "rate",
    "controlling": "control",
    "roll": "roll",
}


class TestReferenceVocabulary:
    @pytest.mark.parametrize("word,expected", sorted(REFERENCE.items()))
    def test_matches_reference(self, word, expected):
        assert porter_stem(word) == expected


class TestEdgeCases:
    def test_short_words_unchanged(self):
        assert porter_stem("is") == "is"
        assert porter_stem("a") == "a"

    def test_idempotent_on_common_stems(self):
        for word in REFERENCE:
            once = porter_stem(word)
            assert porter_stem(once) == porter_stem(once)

    def test_inflections_conflate(self):
        """The IR property that matters: morphological variants meet."""
        assert porter_stem("player") == porter_stem("players")
        assert porter_stem("winning") != porter_stem("winner")  # distinct stems OK
        assert porter_stem("rally") == porter_stem("rallies")
        assert porter_stem("serving") == porter_stem("serve")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=0, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_never_crashes_never_grows_much(self, word):
        stem = porter_stem(word)
        assert isinstance(stem, str)
        assert len(stem) <= len(word) + 1  # only 'e' restoration may grow


class TestMemoisation:
    """``porter_stem`` is an ``lru_cache`` over the pure algorithm."""

    def test_cached_equals_uncached_on_the_dataset_vocabulary(self):
        from repro.dataset import build_australian_open
        from repro.ir.tokenizer import tokenize

        pages = build_australian_open(seed=7).pages
        vocabulary = {word for page in pages for word in tokenize(page.text)}
        assert len(vocabulary) > 100
        for word in sorted(vocabulary):
            assert porter_stem(word) == porter_stem.__wrapped__(word)
            assert porter_stem(word) == porter_stem.__wrapped__(word)  # served from the cache

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz'", min_size=0, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_cached_equals_uncached_on_arbitrary_words(self, word):
        assert porter_stem(word) == porter_stem.__wrapped__(word)

    def test_cache_is_bounded(self):
        assert porter_stem.cache_info().maxsize == 1 << 16
