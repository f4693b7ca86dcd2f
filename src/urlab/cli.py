"""Command-line front end: scenarios, verification suites, oscillator sweeps."""

from __future__ import annotations

import json
import sys
from dataclasses import fields

import click
from click.core import ParameterSource

from .errors import UrlabError
from .report import emit
from .scenarios import ScenarioConfig, run_scenario, run_verify, scenario_names


def _report_options(command):
    """The --out and --format options shared by every command that writes a report."""
    command = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                           default="csv", show_default=True)(command)
    return click.option("--out", type=click.Path(),
                        help="Write the report to this path.")(command)


def _finish(build, out: str | None, fmt: str) -> None:
    """Build the report, print its rows and write it; a UrlabError, or an allocation
    numpy refuses, becomes a ClickException."""
    try:
        report = build()
        for row in report.rows:
            click.echo(
                f"{report.scenario:>24s}  {row.quantity:<32s} "
                f"value={row.value:.6g} bound={row.bound:.6g} [{row.status}]"
            )
        if out:
            emit(report, fmt, out)
            click.echo(f"wrote {fmt} report to {out}")
    except UrlabError as exc:
        raise click.ClickException(str(exc)) from exc
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        raise click.ClickException(f"out of memory: {exc}") from exc
    if not report.all_pass:
        sys.exit(1)


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise click.UsageError(f"--param expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            params[key] = float(val)
        except ValueError as exc:
            raise click.UsageError(f"--param {key}: {val!r} is not a number") from exc
    return params


def _merge_config(path: str, kwargs: dict, defaulted: set) -> dict:
    """ScenarioConfig arguments from a JSON file and the command line.

    The file overrides an option left at its click default (a key in defaulted);
    an option given explicitly overrides the file, and --param values its params.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UrlabError(f"config {path}: {exc}") from exc
    except ValueError as exc:  # all json.load leaves: int() past Python's digit limit
        n = sys.get_int_max_str_digits()
        raise UrlabError(f"config {path}: holds an integer of more than {n} digits") from exc
    if not isinstance(file_cfg, dict) or not isinstance(file_cfg.get("params", {}), dict):
        raise UrlabError(f"config {path}: expected a JSON object with an object 'params'")
    unknown = set(file_cfg) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise UrlabError(f"config {path}: unknown keys {sorted(unknown)}")
    if file_cfg.get("name", kwargs["name"]) != kwargs["name"]:
        raise UrlabError(f"config {path}: name {file_cfg['name']!r} is not {kwargs['name']!r}")
    params = {**file_cfg.get("params", {}), **kwargs["params"]}
    given = {k: v for k, v in kwargs.items() if k not in defaulted}
    return {**kwargs, **file_cfg, **given, "params": params}


@click.group()
def main():
    """Estimation-theoretic measurement error and disturbance checks."""


@main.command()
@click.argument("name")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--param", "params", multiple=True, help="Scenario parameter, key=value.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              help="JSON ScenarioConfig file.")
@_report_options
def scenario(name, seed, params, config, out, fmt):
    """Run a named scenario (see `urlab scenario list`)."""
    if name == "list":
        for n in scenario_names():
            click.echo(n)
        return
    kwargs = {"name": name, "seed": seed, "params": _parse_params(params)}
    source = click.get_current_context().get_parameter_source
    defaulted = {k for k in kwargs if source(k) is ParameterSource.DEFAULT}

    def build():
        merged = _merge_config(config, kwargs, defaulted) if config else kwargs
        return run_scenario(ScenarioConfig(**merged))

    _finish(build, out, fmt)


@main.command()
@click.option("--suite", type=click.Choice(["all", "classical", "quantum", "uncertainty"]),
              default="all", show_default=True)
@click.option("--trials", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dim-max", type=int, default=5, show_default=True)
@_report_options
def verify(suite, trials, seed, dim_max, out, fmt):
    """Run the randomized property suites."""
    _finish(lambda: run_verify(suite, trials=trials, seed=seed, dim_max=dim_max), out, fmt)


@main.command()
@click.argument("target", type=click.Choice(["oscillator"]))
@click.option("--cutoffs", default="8,16,24,32", show_default=True,
              help="Comma-separated truncation dimensions.")
@click.option("--mean-photon", type=float, default=1.0, show_default=True)
@click.option("--dephasing", type=float, default=0.3, show_default=True)
@_report_options
def sweep(target, cutoffs, mean_photon, dephasing, out, fmt):
    """Truncation-convergence sweep for the oscillator scenario."""
    try:
        cut = tuple(int(c) for c in cutoffs.split(",") if c)
    except ValueError as exc:
        raise click.UsageError(f"bad --cutoffs {cutoffs!r}") from exc
    if not cut:
        raise click.UsageError("--cutoffs lists no truncation dimension")
    params = {"mean_photon": mean_photon, "dephasing": dephasing}
    _finish(lambda: run_scenario(ScenarioConfig(target, params=params, cutoffs=cut)), out, fmt)


if __name__ == "__main__":
    main()
