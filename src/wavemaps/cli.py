"""Command-line entry point.

Configuration comes from an optional flat text file (one ``key = value``
per line, ``#`` comments) overridden by command-line flags; a flag's value
is parsed once by its key's ``_KEYS`` parser, like a file value.  Supported
modes: ``fixed`` and ``adaptive`` single runs, and ``eoc`` which drives a
step-halving self-convergence study and writes eoc.csv.

Exit codes: 0 on success, 2 when the step controller hits its floor,
3 on configuration errors, a bad flag too, 4 when a run fails for any
other reason.
"""

import argparse
import sys
from collections import namedtuple
from dataclasses import fields

from .adapt import EQUIDISTRIBUTE, UPDATED_TOLERANCE, AdaptiveController
from .harness import ConfigError, RunConfig, StepFloor, run, run_eoc_study
from .scheme import SolverConfig

_MODES = ("fixed", "adaptive", "eoc")
_EOC_DEFAULTS = {"eoc_taus": (2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10), "tau_ref": 2.0**-13}


def _parse_number(text):
    """Accept plain floats and dyadic shorthand like 2^-9."""
    text = text.strip()
    if text.startswith("2^"):
        return 2.0 ** float(text[2:])
    return float(text)


def _parse_times(text):
    return tuple(_parse_number(tok) for tok in text.split(","))


# per config key: the dataclass field it sets (None: main reads it), parser, modes reading it
_Key = namedtuple("_Key", "field parse modes")
_KEYS = {
    "grid": _Key("M", int, _MODES),
    "mode": _Key("mode", str, _MODES),
    "tend": _Key("t_end", _parse_number, _MODES),
    "out": _Key("out_dir", str, _MODES),
    "fp_tol": _Key("fp_tol", _parse_number, _MODES),
    "initial": _Key("initial", str, ("fixed", "adaptive")),
    "tau": _Key("tau", _parse_number, ("fixed", "adaptive")),
    "tau_min": _Key("tau_min", _parse_number, ("fixed", "adaptive")),
    "snapshots": _Key("snapshot_times", _parse_times, ("fixed", "adaptive")),
    "strategy": _Key("strategy", str, ("adaptive",)),
    "tol0": _Key("tol0", _parse_number, ("adaptive",)),
    "tau_max": _Key("tau_max", _parse_number, ("adaptive",)),
    "eoc_taus": _Key(None, _parse_times, ("eoc",)),
    "tau_ref": _Key(None, _parse_number, ("eoc",)),
}


def _parse(key, text, where):
    """key's value in text.  A text that does not parse raises a ConfigError naming
    where it came from; argparse passes that on, so a flag's error exits 3 too."""
    try:
        return _KEYS[key].parse(text)
    except (ValueError, OverflowError):  # 2^2000 overflows
        raise ConfigError(f"{where}: cannot parse {text!r}") from None


def load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse(key, value.strip(), f"{path}:{lineno}: {key}")
    return values


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError instead of exiting 2, the step floor's code."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="wavemaps",
        description="Sphere-valued wave field simulator with a posteriori "
                    "error bounds and adaptive time stepping.")
    ap.add_argument("--config", help="flat key = value configuration file")
    for key, text in (("out", "output directory for CSVs and field dumps"),
                      ("mode", "fixed, adaptive or eoc"),
                      ("tau", "step size (fixed) or initial step (adaptive)"),
                      ("grid", "cells per axis M"), ("tend", "final time"),
                      ("strategy", f"{EQUIDISTRIBUTE} or {UPDATED_TOLERANCE}"),
                      ("tol0", "base tolerance for the adaptive controller")):
        ap.add_argument(f"--{key}", type=lambda v, k=key: _parse(k, v, f"--{k}"), help=text)
    return ap


def _merge(args) -> dict:
    values = load_config_file(args.config) if args.config else {}
    values.update((key, v) for key, v in vars(args).items() if key != "config" and v is not None)
    return values


def _given(values: dict, cls) -> dict:
    """Keyword arguments of dataclass cls for the given keys; the rest keep cls's defaults."""
    names = {f.name for f in fields(cls)}
    return {spec.field: values[key]
            for key, spec in _KEYS.items() if key in values and spec.field in names}


def _build_run_config(values: dict):
    run_kw = _given(values, RunConfig)
    if values.get("mode") == "adaptive":
        ctrl_kw = _given(values, AdaptiveController)
        if ctrl_kw.get("strategy") == UPDATED_TOLERANCE:
            ctrl_kw.setdefault("tol0", 1e-6)
        run_kw["controller"] = AdaptiveController(**ctrl_kw)
        run_kw.setdefault("tau", 2.0**-10)
    return RunConfig(solver=SolverConfig(**_given(values, SolverConfig)), **run_kw)


def _reject_unread_keys(values: dict):
    """ConfigError for an unknown mode or a key that the mode does not read."""
    mode = values.get("mode", "fixed")
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    unread = sorted(key for key in values if mode not in _KEYS[key].modes)
    if unread:
        raise ConfigError(f"{mode} mode does not read {', '.join(unread)}")


def main(argv=None) -> int:
    try:
        values = _merge(build_parser().parse_args(argv))
        _reject_unread_keys(values)
        eoc_mode = values.get("mode") == "eoc"
        # eoc mode validates its run keys as the fixed runs of the study
        cfg = _build_run_config({**values, "mode": "fixed"} if eoc_mode else values)
        if eoc_mode:
            taus, tau_ref = (values.get(key, default) for key, default in _EOC_DEFAULTS.items())
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    try:
        if eoc_mode:
            rows = run_eoc_study(cfg.M, taus, tau_ref, cfg.t_end, solver=cfg.solver,
                                 out_dir=cfg.out_dir)
            print(f"{'tau':>12} {'err_w':>12} {'eoc_w':>7} {'err_gu':>12} {'eoc_gu':>7}")
            for tau, err_w, eoc_w, err_gu, eoc_gu in rows:
                print(f"{tau:12.6g} {err_w:12.4e} "
                      f"{'---' if eoc_w is None else format(eoc_w, '7.2f')} "
                      f"{err_gu:12.4e} "
                      f"{'---' if eoc_gu is None else format(eoc_gu, '7.2f')}")
        else:
            traj = run(cfg)
            print(f"finished at t={traj.final_t:.6g} after {traj.n_accepted} steps "
                  f"({traj.n_rejected} rejected)")
            print(f"energy drift (relative): {traj.energy_drift:.3e}")
            print(f"max | |u|-1 |: {traj.unit_dev_max:.3e}   "
                  f"max |u.w|: {traj.orth_dev_max:.3e}")
            print(f"accumulated error bound B_N: {traj.est.B_j:.6g} "
                  f"(log: {traj.est.log_B:.6g})")
    except StepFloor as exc:
        print(f"step floor reached: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other fault inside a run
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
