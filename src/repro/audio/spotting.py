"""Template-matching keyword spotting.

The spotter knows a vocabulary; each word's template is its synthesised
spectrum.  A detected segment is classified as the vocabulary word whose
formant signature best matches the segment's spectral peaks, with an
acceptance threshold so out-of-vocabulary bursts come back as ``None``
(an open vocabulary, as real interview audio demands).
"""

from __future__ import annotations

import numpy as np

from repro.audio.features import spectral_peaks
from repro.audio.segmenter import WordSegment, segment_words
from repro.audio.signal import AudioSignal
from repro.audio.synth import word_signature

__all__ = ["KeywordSpotter"]


class KeywordSpotter:
    """Spot known words in an utterance.

    Args:
        vocabulary: the words the spotter can recognise.
        max_distance: mean per-formant distance (Hz) above which a
            segment is rejected as out-of-vocabulary.  The default sits
            between the FFT resolution (~15 Hz on a word segment) and
            the signature grid spacing (40 Hz), so in-vocabulary words
            match and neighbours on the grid do not.
    """

    def __init__(self, vocabulary: list[str], max_distance: float = 30.0):
        if not vocabulary:
            raise ValueError("the spotter needs a non-empty vocabulary")
        if max_distance <= 0:
            raise ValueError("max_distance must be positive")
        self.max_distance = max_distance
        self._signatures = {
            word.lower(): np.asarray(word_signature(word).formants)
            for word in vocabulary
        }

    def classify_segment(
        self, signal: AudioSignal, segment: WordSegment
    ) -> tuple[str | None, float]:
        """Best vocabulary word for one segment.

        Returns:
            ``(word, distance)``; word is ``None`` when nothing matches
            within ``max_distance``.
        """
        samples = signal.samples[segment.start : segment.stop]
        peaks = spectral_peaks(samples, signal.sample_rate, n_peaks=3)
        if len(peaks) < 3:
            return None, float("inf")
        observed = np.asarray(peaks)
        best_word = None
        best_distance = float("inf")
        for word, formants in self._signatures.items():
            distance = float(np.mean(np.abs(observed - formants)))
            if distance < best_distance:
                best_word, best_distance = word, distance
        if best_distance > self.max_distance:
            return None, best_distance
        return best_word, best_distance

    def transcribe(self, signal: AudioSignal) -> list[tuple[WordSegment, str | None]]:
        """Segment the utterance and classify every segment."""
        return [
            (segment, self.classify_segment(signal, segment)[0])
            for segment in segment_words(signal)
        ]

    def spot(self, signal: AudioSignal, keyword: str) -> list[WordSegment]:
        """Segments where *keyword* occurs."""
        wanted = keyword.lower()
        if wanted not in self._signatures:
            raise KeyError(f"{keyword!r} is not in the spotter's vocabulary")
        return [
            segment
            for segment, word in self.transcribe(signal)
            if word == wanted
        ]
