"""Simulated acoustic channels.

A statistical room-impulse-response generator (direct impulse followed by
exponentially decaying white Gaussian noise with exact, known RT60), a
convolution + noise channel, and a loader for user-supplied RIR corpora
(directory of WAV files with an optional ``labels.csv`` sidecar).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import AudioBuffer, _Convolution, _halves
from .dereverb import decay_constant
from .errors import InvalidArgumentError, SonolinkError, _check_fields, _positive
from .wavio import wav_read, wav_write

__all__ = [
    "RirSpec",
    "ChannelSpec",
    "CorpusEntry",
    "synth_rir",
    "apply_channel",
    "load_rir_corpus",
    "save_rir_corpus",
]


@dataclass(frozen=True)
class RirSpec:
    """Recipe for a synthetic room impulse response.

    The tail is white Gaussian noise shaped by e^(-delta*t); its total energy
    is scaled to ``rt60`` (in units of the unit impulse's energy), so with the
    default direct_gain the direct-to-reverberant energy ratio is exactly
    0 dB at rt60 = 1.0 s and scales as 1/rt60.  ``direct_gain`` moves only
    the direct path, making it the direct-to-reverberant control: a receiver
    far from the source sees direct_gain < 1.
    """

    rt60: float
    length: float | None = None
    direct_gain: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, integers=("seed",), reals=("rt60", "length", "direct_gain"),
                      optional=("length",), positive=("rt60", "direct_gain"),
                      non_negative=("seed",), finite=("length",))
        if self.length is not None and self.length < self.rt60 / 2.0:
            raise InvalidArgumentError(
                f"length must be at least rt60/2 = {self.rt60 / 2.0}, got {self.length}"
            )

    @property
    def effective_length(self) -> float:
        return 1.5 * self.rt60 if self.length is None else self.length


@dataclass(frozen=True)
class ChannelSpec:
    """Channel = impulse response, optional white noise, optional peak target."""

    rir: "AudioBuffer | RirSpec"
    snr_db: float | None = None
    normalize: float | None = None
    noise_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.rir, (AudioBuffer, RirSpec)):
            raise InvalidArgumentError(f"rir must be an AudioBuffer or a RirSpec, got {self.rir!r}")
        _check_fields(self, integers=("noise_seed",), reals=("snr_db", "normalize"),
                      optional=("snr_db", "normalize"), positive=("normalize",),
                      non_negative=("noise_seed",), finite=("snr_db",))


@dataclass
class CorpusEntry:
    name: str
    audio: AudioBuffer
    rt60: float | None = None


def _rir_length(spec: RirSpec, sample_rate: int) -> int:
    """The samples of ``spec``'s impulse response at ``sample_rate``."""
    n = round(spec.effective_length * sample_rate)
    if n < 2:
        raise InvalidArgumentError(
            f"RIR length {spec.effective_length} s is under 2 samples at {sample_rate} Hz"
        )
    return n


def synth_rir(spec: RirSpec, sample_rate: int) -> AudioBuffer:
    """Generate a reproducible impulse response with known decay rate.

    Sample 0 carries the direct path; samples 1..n-1 carry seeded Gaussian
    noise under the envelope e^(-delta*t), rescaled so the tail energy hits
    the target exactly (the generator's empirical decay then matches the
    requested rt60 up to the noise realization).  The tail is drawn into
    the result and the envelope built in place, so beside the response it
    allocates one envelope, not a temporary per step.
    """
    n = _rir_length(spec, sample_rate)
    envelope = np.arange(1, n, dtype=np.float64)
    envelope /= sample_rate
    envelope *= -decay_constant(spec.rt60)
    np.exp(envelope, out=envelope)
    samples = np.empty(n, dtype=np.float64)
    tail = np.random.default_rng(spec.seed).standard_normal(n - 1, out=samples[1:])
    tail *= envelope
    tail_energy = float(np.dot(tail, tail))
    if tail_energy == 0.0:
        raise InvalidArgumentError("degenerate RIR tail (zero energy)")
    tail *= np.sqrt(spec.rt60 / tail_energy)
    samples[0] = spec.direct_gain
    return AudioBuffer(samples, sample_rate)


def _calls(fns) -> list:
    """Each of ``fns`` called in turn: a half of a ``_halves`` split of steps."""
    return [fn() for fn in fns]


def apply_channel(signal: AudioBuffer, chan: ChannelSpec) -> AudioBuffer:
    """Convolve with the channel RIR, then add noise / normalize as asked.

    Noise is scaled so its measured power is exactly the convolved signal
    power times 10^(-snr_db/10); the call raises if that does not fit in
    float64.  Every channel runs a :class:`~sonolink.core._Convolution`'s
    two steps on the calling thread, and the helper thread works beside
    them: while the caller transforms the signal the helper synthesises a
    RirSpec's response, and while the caller transforms the response,
    multiplies and inverts, the helper draws any seeded noise straight into
    the result array, which the caller made before.  The caller then takes
    both powers in its convolution workspace, scales the noise in place and
    adds the convolution into it, or copies the convolution into the
    result.  The returned samples are the call's one new signal-sized
    array, with the same bytes on any thread: see
    :func:`~sonolink.core._halves` for where the helper's work runs.
    """
    spec, rate, noisy = chan.rir, signal.sample_rate, chan.snr_db is not None
    synthetic = isinstance(spec, RirSpec)
    if synthetic:
        conv = _Convolution(signal, _rir_length(spec, rate), rate)
    else:
        conv = _Convolution(signal, len(spec), spec.sample_rate)
    if noisy and not signal.samples.any():  # so is its convolution: fail before any task
        raise InvalidArgumentError("cannot set an SNR against a silent signal")

    first = [conv.forward] + ([lambda: synth_rir(spec, rate)] if synthetic else [])
    _, made = _halves(_calls, first)
    rir = made[0] if synthetic else spec
    samples = np.empty(conv.size)

    def noise() -> None:
        np.random.default_rng(chan.noise_seed).standard_normal(conv.size, out=samples)

    (wet,), _ = _halves(_calls, [lambda: conv.inverse(rir)] + ([noise] if noisy else []))
    if not noisy:
        np.copyto(samples, wet)
    else:
        try:
            with np.errstate(over="raise"):  # an overflow raises instead of warning
                squares = np.square(wet, out=conv.scratch())  # scratch for both powers
                signal_power = np.mean(squares)
                if signal_power == 0.0:
                    raise InvalidArgumentError("cannot set an SNR against a silent signal")
                noise_power = np.mean(np.square(samples, out=squares))
                target_power = signal_power * 10.0 ** (-chan.snr_db / 10.0)
                samples *= np.sqrt(target_power / noise_power)
                samples += wet  # fl(s·n + c) = fl(c + s·n): the bytes of adding the noise in
        except (OverflowError, FloatingPointError):
            raise InvalidArgumentError(f"snr_db {chan.snr_db} puts the noise out of float64's range") from None

    if chan.normalize is not None:
        peak = float(max(samples.max(), -samples.min()))  # max |x|, without an |x| array
        if peak == 0.0:
            raise InvalidArgumentError("cannot peak-normalize a silent signal")
        scale = chan.normalize / peak
        if np.isfinite(scale):
            samples *= scale
        else:  # a subnormal peak: the scale overflows where x / peak * normalize does not
            samples /= peak
            samples *= chan.normalize

    return AudioBuffer(samples, signal.sample_rate)


def _read_labels(path: Path) -> dict[str, float]:
    labels: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "file" not in reader.fieldnames or "rt60" not in reader.fieldnames:
            warnings.warn(f"{path}: expected header 'file,rt60'; labels ignored")
            return labels
        for row in reader:
            try:  # InvalidArgumentError is a ValueError
                labels[row["file"]] = _positive(float(row["rt60"]), "rt60")
            except (TypeError, ValueError):
                warnings.warn(f"{path}: bad rt60 for {row.get('file')!r}; row ignored")
    return labels


def load_rir_corpus(
    directory, sample_rate: int | None = None
) -> list[CorpusEntry]:
    """Load every readable WAV in a directory, sorted by filename.

    An optional ``labels.csv`` (header ``file,rt60``) attaches ground-truth
    reverberation times by filename; a row whose rt60 is not a positive,
    finite number is ignored with a warning.  Files that fail to read, or
    whose rate differs from ``sample_rate`` (or from the first loaded file
    when not given), are skipped with a warning; no resampling is attempted.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise InvalidArgumentError(f"not a directory: {directory}")

    labels_path = directory / "labels.csv"
    labels = _read_labels(labels_path) if labels_path.is_file() else {}

    entries: list[CorpusEntry] = []
    reference_rate = sample_rate
    for path in sorted(directory.iterdir()):
        if not (path.is_file() and path.suffix.lower() == ".wav"):
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # stereo downmix notes are fine here
                audio = wav_read(path)
        except SonolinkError as exc:
            warnings.warn(f"skipping {path.name}: {exc}")
            continue
        if reference_rate is None:
            reference_rate = audio.sample_rate
        elif audio.sample_rate != reference_rate:
            warnings.warn(
                f"skipping {path.name}: {audio.sample_rate} Hz != expected {reference_rate} Hz"
            )
            continue
        rt60 = labels.get(path.name, labels.get(path.stem))
        entries.append(CorpusEntry(name=path.name, audio=audio, rt60=rt60))
    return entries


def save_rir_corpus(entries: list[CorpusEntry], directory) -> None:
    """Write entries as float32 WAVs plus a labels.csv for the labeled ones."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labeled = []
    for entry in entries:
        name = entry.name if entry.name.lower().endswith(".wav") else entry.name + ".wav"
        wav_write(directory / name, entry.audio, bit_depth=32)
        if entry.rt60 is not None:
            labeled.append((name, entry.rt60))
    if labeled:
        with open(directory / "labels.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file", "rt60"])
            writer.writerows(labeled)
