"""Command-line interface: simulate, zoom, eval.

Exit codes: 0 success, 1 usage error, 2 data error. CSV dumps use '.' as the
decimal mark, ',' as the separator, and carry a header row.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace
from operator import attrgetter

import numpy as np

from .dsp import WINDOW_KINDS, AudioBuffer
from .gjbf import sweep_lengths
from .metrics import MAX_SHIFT, EvalReport, align_delay_and_scale, osinr_db, stage_scores
from .pipeline import BEAMFORMERS, DEFAULT_SWEEP_LENGTHS, PipelineConfig, normalize_peak, run_zoom
from .simulate import key_value_lines, parse_scenario, synthesize_mixture
from .wav import read_wav, write_wav


class DataError(Exception):
    """Bad input data (files, formats, scenario contents)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _parse_macro(text: str) -> tuple:
    try:
        frames, bins = text.lower().split("x", 1)
        return int(frames), int(bins)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected PxQ (frames x bins), got {text!r}") from exc


def _parse_lengths(text: str) -> tuple:
    try:
        lengths = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        lengths = ()  # refused by sweep_lengths like an empty list
    try:
        sweep_lengths(lengths, shown=text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return lengths


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _one_of(choices):
    def parse_choice(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text
    return parse_choice


def _or_keyword(parse, keyword: str, value):
    """parse, except that keyword (in any case) gives value."""
    def parse_or_keyword(text: str):
        return value if text.strip().lower() == keyword else parse(text)
    parse_or_keyword.__name__ = parse.__name__  # argparse names the type in its messages
    return parse_or_keyword


# One row per pipeline setting: config-file key, flag, parser, and the
# PipelineConfig field it sets ("section.field" inside a nested dataclass;
# bt_macro sets two). Defaults are read from PipelineConfig(), not written here.
# A key's prefix names the stage that reads it (_needs).
_SETTINGS = (
    ("beamformer", "--beamformer", _one_of(BEAMFORMERS), "beamformer"),
    ("stft_frame", "--stft-frame", int, "stft.frame_length"),
    ("stft_hop", "--stft-hop", int, "stft.hop_length"),
    ("stft_window", "--stft-window", _one_of(WINDOW_KINDS), "stft.window"),
    ("mpdr_alpha", "--mpdr-alpha", _or_keyword(float, "none", None), "mpdr_alpha"),
    ("gjbf_length", "--gjbf-length", _or_keyword(int, "auto", "auto"), "gjbf.filter_length"),
    ("gjbf_mu", "--gjbf-mu", float, "gjbf.step_size"),
    ("gjbf_block", "--gjbf-block", _or_keyword(int, "none", None), "gjbf.block_size"),
    ("gjbf_leak", "--gjbf-leak", float, "gjbf.leak"),
    ("gjbf_sweep", "--gjbf-sweep", _parse_lengths, "gjbf_auto_lengths"),
    ("bt_enabled", "--bt-enabled", _parse_bool, "bt_enabled"),
    ("bt_macro", "--bt-macro", _parse_macro, "bt.macro_frames bt.macro_bins"),
    ("bt_h", "--bt-H", int, "bt.levels"),
    ("bt_threshold", "--bt-threshold", float, "bt.snr_threshold"),
)
_PARSERS = {key: parse for key, _, parse, _ in _SETTINGS}


def _default_settings() -> dict:
    config = PipelineConfig()
    settings = {key: attrgetter(*fields.split())(config) for key, _, _, fields in _SETTINGS}
    settings["gjbf_sweep"] = DEFAULT_SWEEP_LENGTHS  # PipelineConfig() leaves the sweep unset
    return settings


def _read_config_file(path) -> dict:
    values = {}
    for where, key, value in key_value_lines(path):
        if key not in _PARSERS:
            raise DataError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataError(f"{where}: {key}: {exc}") from exc
    return values


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    defaults = _default_settings()
    for key, flag, parse, fields in _SETTINGS:
        help_text = f"sets {fields} (default {_show(key, defaults[key])})"
        parser.add_argument(flag, type=parse, dest=key, default=argparse.SUPPRESS, help=help_text)
    parser.set_defaults(usage_error=parser.error)


def _effective_config(args) -> tuple:
    """(settings, config) from the defaults, then the --config file, then the flags given.

    A value that PipelineConfig rejects is a data error when the file gives
    it and a usage error when a flag does, as is a flag the run does not read.
    """
    settings = _default_settings()
    if args.config:
        settings.update(_read_config_file(args.config))
        try:
            _settings_to_config(settings)
        except ValueError as exc:
            raise DataError(f"{args.config}: {exc}") from exc
    settings.update((key, getattr(args, key)) for key in _PARSERS if hasattr(args, key))
    for key, flag, _, _ in _SETTINGS:
        if hasattr(args, key) and _needs(key, settings):
            args.usage_error(f"argument {flag}: read only with {_needs(key, settings)}")
    try:
        return settings, _settings_to_config(settings)
    except ValueError as exc:
        args.usage_error(str(exc))


def _needs(key: str, settings: dict) -> str | None:
    """The flag a run needs to read setting key, or None when it reads it: a
    gjbf_ or mpdr_ setting needs its beamformer, gjbf_sweep the length sweep,
    and a bt_ setting other than bt_enabled the post-filter."""
    prefix = key.split("_")[0]
    if prefix in BEAMFORMERS and settings["beamformer"] != prefix:
        return f"--beamformer {prefix}"
    if key == "gjbf_sweep" and settings["gjbf_length"] != "auto":
        return "--gjbf-length auto"
    if prefix == "bt" and key != "bt_enabled" and not settings["bt_enabled"]:
        return "--bt-enabled true"
    return None


def _settings_to_config(settings: dict) -> PipelineConfig:
    fields = {}  # PipelineConfig field ("section.field" when nested) -> value
    for key, _, _, names in _SETTINGS:
        names = names.split()
        fields.update(zip(names, settings[key] if len(names) > 1 else [settings[key]]))
    if fields["gjbf.filter_length"] == "auto":  # run_zoom sweeps, then uses the best length
        fields["gjbf.filter_length"] = fields["gjbf_auto_lengths"][0]
    else:
        fields["gjbf_auto_lengths"] = None
    top, nested = {}, {}
    for name, value in fields.items():
        section, _, field_name = name.rpartition(".")
        (nested.setdefault(section, {}) if section else top)[field_name] = value
    defaults = PipelineConfig()
    for section, values in nested.items():
        top[section] = replace(getattr(defaults, section), **values)
    return PipelineConfig(**top)


def _show(key: str, value) -> str:
    """A setting as echoed and as read back from a config file."""
    if isinstance(value, tuple):
        return ("x" if key == "bt_macro" else ",").join(str(v) for v in value)
    return str(value)


def _write_matrix_csv(path, matrix: np.ndarray) -> None:
    bins, frames = matrix.shape
    header = "bin," + ",".join(f"frame_{t}" for t in range(frames))
    rows = np.column_stack([np.arange(bins), matrix])
    np.savetxt(path, rows, "%d" + ",%.6e" * frames, header=header, comments="")


def _load_stereo(path) -> AudioBuffer:
    buffer = read_wav(path)
    if buffer.channel_count != 2:
        raise DataError(f"{path}: two channels required")
    return buffer


def _load_mono(path) -> AudioBuffer:
    buffer = read_wav(path)
    if buffer.channel_count != 1:
        raise DataError(f"{path}: expected a mono file")
    return buffer


def cmd_simulate(args) -> int:
    result = synthesize_mixture(**parse_scenario(args.scenario))
    prefix = args.out_prefix
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    outputs = {
        "mixture.wav": result.mixture,
        "target_img.wav": result.target_image,
        "interf_img.wav": result.interference_plus_noise,
    }
    for name, buffer in outputs.items():
        write_wav(prefix + name, buffer)
        print(f"wrote {prefix + name}")
    realized = osinr_db(result.target_image, result.interference_image)
    print(f"realized_sir_db={realized:.4f}")
    return 0


def cmd_zoom(args) -> int:
    settings, config = _effective_config(args)
    mixture = _load_stereo(args.input)
    for key in sorted(key for key in settings if not _needs(key, settings)):  # what the run reads
        print(f"config {key}={_show(key, settings[key])}")

    try:
        result = run_zoom(mixture, config)
    except RuntimeError as exc:  # the GJBF adaptive filter diverged
        raise DataError(str(exc)) from exc
    if result.sweep_curve is not None:
        print(f"chosen_length={result.gjbf_config_used.filter_length}")
    normalized, gain = normalize_peak(result.output)
    print(f"normalization_gain={gain!r}")
    write_wav(args.output, normalized)
    print(f"wrote {args.output}")

    if args.dump:
        parent = os.path.dirname(args.dump)
        if parent:
            os.makedirs(parent, exist_ok=True)
        _write_matrix_csv(args.dump + "beamformed_mag.csv", np.abs(result.beamformed_spec.coefficients))
        if result.block_grid is not None:
            output_mag = np.abs(result.beamformed_spec.coefficients * result.block_grid.gains)
            _write_matrix_csv(args.dump + "output_mag.csv", output_mag)
            _write_matrix_csv(args.dump + "bt_gains.csv", result.block_grid.gains)
            choices = result.block_grid.choices
            header = ",".join(choices.dtype.names)
            np.savetxt(args.dump + "bt_blocks.csv", choices, "%d", ",", header=header, comments="")
        if result.sweep_curve is not None:
            with open(args.dump + "sweep.csv", "w", encoding="utf-8") as handle:
                handle.write("length,power_reduction_db\n")
                handle.writelines(f"{length},{score:.6f}\n" for length, score in result.sweep_curve)
        print(f"wrote dumps with prefix {args.dump}")
    return 0


def _append_report(path, report: EvalReport) -> None:
    # Append only to a new or empty file or to one that holds eval reports.
    header = EvalReport.csv_header()
    need_header = not os.path.exists(path) or os.path.getsize(path) == 0
    if not need_header:
        with open(path, encoding="utf-8", errors="replace") as handle:
            if handle.readline().rstrip("\r\n") != header:
                raise DataError(f"{path} is not an eval report: its first line is not the report header")
    with open(path, "a", encoding="utf-8") as handle:
        if need_header:
            handle.write(header + "\n")
        handle.write(report.to_csv_row() + "\n")


def cmd_eval(args) -> int:
    estimate = _load_mono(args.estimate)
    target_image = _load_stereo(args.target_image)
    interference_image = _load_stereo(args.interference_image)
    rates = (estimate.sample_rate, target_image.sample_rate, interference_image.sample_rate)
    if len(set(rates)) != 1:
        raise DataError("sample rates must match: estimate {} Hz, target image {} Hz, "
                        "interference image {} Hz".format(*rates))
    lengths = {target_image.length, interference_image.length}
    if len(lengths) != 1:
        raise DataError("image lengths must match")
    if abs(estimate.length - target_image.length) > args.max_shift:
        raise DataError(
            f"length mismatch beyond alignment bound: estimate {estimate.length}, "
            f"images {target_image.length}"
        )
    n = min(estimate.length, target_image.length)
    est = estimate.samples[0, :n]
    reference = target_image.samples[:, :n].mean(axis=0)

    fitted = align_delay_and_scale(reference, est, args.max_shift)[0]  # the target's share
    final = stage_scores(est, fitted, reference, args.max_shift)
    report = EvalReport(osinr_db(target_image, interference_image), *final)

    print(report.format_text())
    if args.report:
        _append_report(args.report, report)
        print(f"appended {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="audiozoom", description="Two-microphone audio zooming toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a scenario file into mixture + image WAVs")
    sim.add_argument("scenario", help="key=value scenario file")
    sim.add_argument("out_prefix", help="output path prefix (e.g. out/ or out/run1_)")
    sim.set_defaults(func=cmd_simulate)

    zoom = sub.add_parser("zoom", help="enhance a 2-channel WAV")
    zoom.add_argument("input", help="2-channel WAV")
    zoom.add_argument("output", help="mono output WAV")
    zoom.add_argument("--dump", help="prefix for per-stage CSV dumps")
    _add_pipeline_flags(zoom)
    zoom.set_defaults(func=cmd_zoom)

    evalp = sub.add_parser("eval", help="score an enhanced WAV against scene images")
    evalp.add_argument("estimate", help="mono enhanced WAV")
    evalp.add_argument("target_image", help="2-channel target image WAV")
    evalp.add_argument("interference_image", help="2-channel interference(+noise) image WAV")
    evalp.add_argument("--report", help="append a CSV row to this file")
    evalp.add_argument("--max-shift", type=_nonnegative_int, default=MAX_SHIFT, dest="max_shift")
    evalp.set_defaults(func=cmd_eval)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"audiozoom: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # The library's own warnings (a skipped sweep length) are part of a successful run.
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (DataError, OSError, ValueError) as exc:
            print(f"audiozoom: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
