"""Audio interviews: the feature grammar framework beyond video.

The demo site carries "audio files of interviews"; this example
synthesises interview audio for real (generated) transcripts, runs the
*interview feature grammar* through the very same FDE that drives the
tennis video pipeline, and searches the spotted keywords — Acoi's
"multimedia documents in general" claim, demonstrated.

Usage::

    python examples/audio_interviews.py
"""

import numpy as np

from repro.audio.spotting import KeywordSpotter
from repro.audio.synth import synthesize_utterance
from repro.dataset import build_australian_open
from repro.grammar.dot import to_dot
from repro.grammar.interview import TENNIS_KEYWORDS, build_interview_fde
from repro.ir.tokenizer import tokenize


def main() -> None:
    dataset = build_australian_open(seed=7)
    transcripts = [
        (doc.name, tokenize(doc.text))
        for doc in dataset.pages
        if doc.metadata.get("class") == "Interview"
    ][:6]
    vocabulary = sorted({w for _name, words in transcripts for w in words})
    print(f"synthesising {len(transcripts)} interviews "
          f"(vocabulary: {len(vocabulary)} words)")

    fde = build_interview_fde(vocabulary=vocabulary)
    print("\nthe interview FDE (same machinery as the tennis FDE, new axiom):")
    print(to_dot(fde, title="interview_fde"))

    for name, words in transcripts:
        signal, _truth = synthesize_utterance(words, name=name)
        fde.index_video(signal)
    print("meta-index:", fde.model.counts())

    print(f"\nkeyword mentions found ({', '.join(TENNIS_KEYWORDS[:4])}, ...):")
    for video in fde.model.videos:
        events = fde.model.events_of(video_id=video.video_id)
        if not events:
            continue
        mentions = ", ".join(
            f"{e.label.split(':', 1)[1]}@{e.start / video.fps:.2f}s" for e in events
        )
        print(f"  {video.name}: {mentions}")

    # Noise robustness: re-spot one interview at several SNRs.
    name, words = transcripts[0]
    signal, _ = synthesize_utterance(words, name=f"{name}_noisy")
    spotter = KeywordSpotter(vocabulary)
    rng = np.random.default_rng(0)
    print(f"\nword accuracy vs SNR on {name!r} ({len(words)} words):")
    for snr in (40.0, 20.0, 10.0, 5.0):
        noisy = signal.with_noise(snr, rng)
        got = [w for _seg, w in spotter.transcribe(noisy)]
        correct = sum(g == w for g, w in zip(got, words))
        print(f"  {snr:5.1f} dB: {correct}/{len(words)}")


if __name__ == "__main__":
    main()
