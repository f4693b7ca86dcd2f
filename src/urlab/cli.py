"""Command-line front end: scenarios, verification suites, oscillator sweeps."""

from __future__ import annotations

import json
import sys
from dataclasses import fields

import click

from .errors import UrlabError
from .report import RunReport, emit
from .scenarios import ScenarioConfig, run_scenario, run_verify, scenario_names


def _finish(report: RunReport, out: str | None, fmt: str) -> None:
    for row in report.rows:
        click.echo(
            f"{report.scenario:>24s}  {row.quantity:<32s} "
            f"value={row.value:.6g} bound={row.bound:.6g} [{row.status}]"
        )
    if out:
        emit(report, fmt, out)
        click.echo(f"wrote {fmt} report to {out}")
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


def _merge_config(path: str, kwargs: dict) -> dict:
    """ScenarioConfig arguments from a JSON file; --param values override its params."""
    with open(path) as fh:
        try:
            file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UrlabError(f"config {path}: {exc}") from exc
    if not isinstance(file_cfg, dict) or not isinstance(file_cfg.get("params", {}), dict):
        raise UrlabError(f"config {path}: expected a JSON object with an object 'params'")
    unknown = set(file_cfg) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise UrlabError(f"config {path}: unknown keys {sorted(unknown)}")
    params = {**file_cfg.get("params", {}), **kwargs["params"]}
    return {**kwargs, **file_cfg, "params": params}


@click.group()
def main():
    """Estimation-theoretic measurement error and disturbance checks."""


@main.command()
@click.argument("name")
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--param", "params", multiple=True, help="Scenario parameter, key=value.")
@click.option("--config", type=click.Path(exists=True), help="JSON ScenarioConfig file.")
@click.option("--out", type=click.Path(), help="Write the report to this path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def scenario(name, dim, seed, params, config, out, fmt):
    """Run a named scenario (see `urlab scenario list`)."""
    if name == "list":
        for n in scenario_names():
            click.echo(n)
        return
    kwargs = {"name": name, "dim": dim, "seed": seed, "params": _parse_params(params)}
    try:
        if config:
            kwargs = _merge_config(config, kwargs)
        report = run_scenario(ScenarioConfig(**kwargs))
    except UrlabError as exc:
        raise click.ClickException(str(exc)) from exc
    _finish(report, out, fmt)


@main.command()
@click.option("--suite", type=click.Choice(["all", "classical", "quantum", "uncertainty"]),
              default="all", show_default=True)
@click.option("--trials", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dim-max", type=int, default=5, show_default=True)
@click.option("--out", type=click.Path(), help="Write the report to this path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def verify(suite, trials, seed, dim_max, out, fmt):
    """Run the randomized property suites."""
    try:
        report = run_verify(suite, trials=trials, seed=seed, dim_max=dim_max)
    except UrlabError as exc:
        raise click.ClickException(str(exc)) from exc
    _finish(report, out, fmt)


@main.command()
@click.argument("target", type=click.Choice(["oscillator"]))
@click.option("--cutoffs", default="8,16,24,32", show_default=True,
              help="Comma-separated truncation dimensions.")
@click.option("--mean-photon", type=float, default=1.0, show_default=True)
@click.option("--dephasing", type=float, default=0.3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), help="Write the report to this path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def sweep(target, cutoffs, mean_photon, dephasing, seed, out, fmt):
    """Truncation-convergence sweep for the oscillator scenario."""
    try:
        cut = tuple(int(c) for c in cutoffs.split(",") if c)
    except ValueError as exc:
        raise click.UsageError(f"bad --cutoffs {cutoffs!r}") from exc
    try:
        cfg = ScenarioConfig(
            name=target,
            dim=max(cut) if cut else 2,
            seed=seed,
            params={"mean_photon": mean_photon, "dephasing": dephasing},
            cutoffs=cut,
        )
        report = run_scenario(cfg)
    except UrlabError as exc:
        raise click.ClickException(str(exc)) from exc
    _finish(report, out, fmt)


if __name__ == "__main__":
    main()
