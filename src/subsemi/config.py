"""Runtime configuration shared by the CLI."""

import os
from dataclasses import dataclass

from subsemi.counting import DEFAULT_K
from subsemi.enumeration import enumeration_ceiling
from subsemi.errors import ConfigError


def _machine_workers():
    return os.cpu_count() or 1


@dataclass
class Config:
    ceiling_n: int
    k: int
    workers: int
    output_format: str   # table | json | csv

    def __post_init__(self):
        for flag, value in (("--ceiling", self.ceiling_n), ("--k", self.k),
                            ("--workers", self.workers)):
            if value < 1:
                raise ConfigError(f"{flag} must be at least 1, got {value}")


def from_env_and_args(args):
    ceiling = getattr(args, "ceiling", None)
    workers = getattr(args, "workers", None)
    fmt = "table"
    if getattr(args, "json", False):
        fmt = "json"
    elif getattr(args, "csv", False):
        fmt = "csv"
    return Config(
        ceiling_n=enumeration_ceiling() if ceiling is None else ceiling,
        k=getattr(args, "k", DEFAULT_K),
        workers=_machine_workers() if workers is None else workers,
        output_format=fmt,
    )
