"""Command-line entry point.

Configuration comes from an optional flat text file (one ``key = value``
per line, ``#`` comments) overridden by command-line flags.  Supported
modes: ``fixed`` and ``adaptive`` single runs, and ``eoc`` which drives a
step-halving self-convergence study and writes eoc.csv.

Exit codes: 0 on success, 2 when the step controller hits its floor,
3 on configuration errors, 4 when a run fails for any other reason.
"""

import argparse
import os
import sys
from dataclasses import fields

from .adapt import EQUIDISTRIBUTE, UPDATED_TOLERANCE, AdaptiveController
from .harness import ConfigError, RunConfig, StepFloor, run, run_eoc_study, write_eoc_csv
from .scheme import SolverConfig

_CONFIG_KEYS = {
    "grid", "mode", "tau", "tend", "strategy", "tol0", "out", "initial",
    "fp_tol", "fp_max_iter", "unit_tol", "c_q", "p_exp", "b0",
    "grow", "shrink", "safety", "tau_min", "tau_max", "snapshots", "eoc_taus", "tau_ref",
}

_DEFAULT_EOC_TAUS = "2^-7,2^-8,2^-9,2^-10"


def _parse_number(text):
    """Accept plain floats and dyadic shorthand like 2^-9."""
    text = text.strip()
    if text.startswith("2^"):
        return 2.0 ** float(text[2:])
    return float(text)


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
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavemaps",
        description="Sphere-valued wave field simulator with a posteriori "
                    "error bounds and adaptive time stepping.")
    ap.add_argument("--config", help="flat key = value configuration file")
    ap.add_argument("--out", help="output directory for CSVs and field dumps")
    ap.add_argument("--mode", choices=["fixed", "adaptive", "eoc"])
    ap.add_argument("--tau", help="step size (fixed) or initial step (adaptive)")
    ap.add_argument("--grid", type=int, help="cells per axis M")
    ap.add_argument("--tend", help="final time")
    ap.add_argument("--strategy", choices=[EQUIDISTRIBUTE, UPDATED_TOLERANCE])
    ap.add_argument("--tol0", help="base tolerance for the adaptive controller")
    return ap


def _merge(args) -> dict:
    values = load_config_file(args.config) if args.config else {}
    for key, v in vars(args).items():
        if key != "config" and v is not None:
            values[key] = str(v)
    return values


# parsers of the config keys that are not plain numbers
_PARSERS = {
    "grid": int, "fp_max_iter": int, "mode": str, "strategy": str, "initial": str, "out": str,
    "snapshots": lambda text: tuple(_parse_number(tok) for tok in text.split(",")),
}
# config keys named differently from their RunConfig field
_FIELD_NAMES = {"grid": "M", "tend": "t_end", "out": "out_dir", "snapshots": "snapshot_times"}


def _given(values: dict, cls) -> dict:
    """Keyword arguments of dataclass cls for the keys the user gave; the
    fields left out keep the defaults cls defines."""
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, text in values.items():
        name = _FIELD_NAMES.get(key, key)
        if name in names:
            kwargs[name] = _PARSERS.get(key, _parse_number)(text)
    return kwargs


def _build_run_config(values: dict):
    run_kw = _given(values, RunConfig)
    ctrl_kw = _given(values, AdaptiveController)
    if values.get("mode") == "adaptive":
        if ctrl_kw.get("strategy") == UPDATED_TOLERANCE:
            ctrl_kw.setdefault("tol0", 1e-6)
        run_kw["controller"] = AdaptiveController(**ctrl_kw)
        run_kw.setdefault("tau", 2.0**-10)
    elif ctrl_kw:
        raise ConfigError(f"controller keys {', '.join(sorted(ctrl_kw))} "
                          "apply to adaptive mode only")
    return RunConfig(solver=SolverConfig(**_given(values, SolverConfig)), **run_kw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = _merge(args)
        eoc_mode = values.get("mode") == "eoc"
        # eoc mode validates its run keys as the fixed runs of the study
        cfg = _build_run_config({**values, "mode": "fixed"} if eoc_mode else values)
        if eoc_mode:
            taus = [_parse_number(tok)
                    for tok in values.get("eoc_taus", _DEFAULT_EOC_TAUS).split(",")]
            tau_ref = _parse_number(values.get("tau_ref", "2^-13"))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    try:
        if eoc_mode:
            rows = run_eoc_study(cfg.M, taus, tau_ref, cfg.t_end, solver=cfg.solver,
                                 initial=cfg.initial)
            print(f"{'tau':>12} {'err_w':>12} {'eoc_w':>7} {'err_gu':>12} {'eoc_gu':>7}")
            for tau, err_w, eoc_w, err_gu, eoc_gu in rows:
                print(f"{tau:12.6g} {err_w:12.4e} "
                      f"{'---' if eoc_w is None else format(eoc_w, '7.2f')} "
                      f"{err_gu:12.4e} "
                      f"{'---' if eoc_gu is None else format(eoc_gu, '7.2f')}")
            if cfg.out_dir:
                os.makedirs(cfg.out_dir, exist_ok=True)
                write_eoc_csv(os.path.join(cfg.out_dir, "eoc.csv"), rows)
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
