"""Run configuration: INI-style files, presets, overrides, manifests.

A run is described by key = value pairs in named sections. Unset keys fall
back to the case's preset (``cases.PRESETS``), then to package defaults.
``--set section.key=value`` overrides win over everything. The resolved
configuration (with every default filled in) is echoed to ``run.json`` so a
finished run can be reproduced bit for bit.
"""

import configparser
import json
import math
import os
from dataclasses import fields

from .basis import make_basis
from .cases import PRESETS
from .mesh import MeshError, check_mesh_request, periodic_tags
from .operators import ConvectiveForm
from .snapshot import snapshot_writer
from .stabilization import StabilizationConfig
from .stepper import PhysicalParams, TimeScheme

__all__ = ["ConfigError", "RunConfig", "PRESETS", "load_config", "parse_overrides"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _parse_int_tuple(s):
    if isinstance(s, (list, tuple)):
        return tuple(int(v) for v in s)
    return tuple(int(v) for v in str(s).split(","))


# (section, key) -> (parser, default). None default = "must be resolvable".
_SCHEMA = {
    ("case", "name"): (str, "custom"),
    ("mesh", "dim"): (int, 2),
    ("mesh", "n"): (_parse_int_tuple, (8, 8)),
    ("mesh", "p"): (int, 1),
    ("mesh", "spacing"): (str, "gll"),
    ("physics", "nu"): (float, -1.0),  # <0 means "derive from Re or zero"
    ("physics", "Re"): (float, 0.0),  # 0 means unset
    ("physics", "V0"): (float, 1.0),
    ("physics", "L0"): (float, 1.0),
    ("scheme", "dt"): (float, 0.0),  # <=0 means "auto from CFL target"
    ("scheme", "auto_dt_cfl"): (float, 0.3),
    ("scheme", "t_end"): (float, 1.0),
    ("scheme", "rk"): (str, "ssprk3"),
    ("scheme", "cfl_limit"): (float, 1.0),
    ("scheme", "diffusion_theta"): (float, 1.0),
    ("scheme", "convective_form"): (str, "skew"),
    ("stabilization", "stabilization"): (str, "lps"),
    ("stabilization", "c_s"): (float, 1.0),
    ("output", "dir"): (str, "out"),
    ("output", "every_steps"): (int, 10),
    ("output", "snapshot_every"): (float, 0.0),  # time units; 0 disables
    ("output", "snapshot_format"): (str, "vtk"),
}

_TWO_PI = 2.0 * math.pi


def parse_overrides(pairs):
    """Parse --set items of the form section.key=value."""
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        lhs, value = item.split("=", 1)
        if "." not in lhs:
            raise ConfigError(f"override key {lhs!r} must be section.key")
        section, key = lhs.split(".", 1)
        out[(section.strip(), key.strip())] = value.strip()
    return out


class RunConfig:
    """Fully resolved run configuration (every key has a value)."""

    def __init__(self, values):
        self.values = dict(values)

    def get(self, section, key):
        return self.values[(section, key)]

    @property
    def case(self):
        return self.values[("case", "name")]

    # -- resolution ----------------------------------------------------------

    @classmethod
    def resolve(cls, file_values=None, overrides=None):
        """Layer defaults <- preset <- file <- overrides, then validate."""
        file_values = dict(file_values or {})
        overrides = dict(overrides or {})

        case = str(overrides.get(("case", "name")) or file_values.get(("case", "name"))
                   or _SCHEMA[("case", "name")][1]).lower()
        if case not in PRESETS:
            names = ", ".join(sorted(PRESETS))
            raise ConfigError(f"unknown case {case!r} (expected one of: {names})")

        raw = {seckey: default for seckey, (_, default) in _SCHEMA.items()}
        raw.update(PRESETS[case].values)
        raw.update(file_values)
        raw.update(overrides)
        raw[("case", "name")] = case

        values = {}
        for seckey, value in raw.items():
            if seckey not in _SCHEMA:
                section, key = seckey
                raise ConfigError(f"unknown config key [{section}] {key}")
            parser, _ = _SCHEMA[seckey]
            try:
                values[seckey] = parser(value) if isinstance(value, str) else value
            except (TypeError, ValueError) as exc:
                section, key = seckey
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc

        cfg = cls(values)
        cfg._normalize()
        cfg._validate()
        return cfg

    def _normalize(self):
        v = self.values
        dim = v[("mesh", "dim")]
        n = _parse_int_tuple(v[("mesh", "n")])
        if len(n) == 1:
            n = n * dim
        v[("mesh", "n")] = n
        # Before the automatic dt below divides by the element size and p.
        try:
            check_mesh_request(dim, self.domain_extents(), n,
                               v[("mesh", "p")], periodic_tags(dim))
        except MeshError as exc:
            raise ConfigError(str(exc)) from exc

        # Viscosity from the Reynolds number when not given directly.
        nu, re = v[("physics", "nu")], v[("physics", "Re")]
        v0, l0 = v[("physics", "V0")], v[("physics", "L0")]
        if not math.isfinite(v0):
            raise ConfigError(f"physics.V0 must be finite, got {v0}")
        if re > 0.0:
            nu_from_re = v0 * l0 / re
            if nu >= 0.0 and not math.isclose(nu, nu_from_re, rel_tol=1e-12):
                raise ConfigError(
                    f"inconsistent physics: nu={nu} but V0*L0/Re={nu_from_re}"
                )
            v[("physics", "nu")] = nu_from_re
        elif nu < 0.0:
            v[("physics", "nu")] = 0.0

        # Automatic time step from the CFL target, snapped to divide t_end.
        target = v[("scheme", "auto_dt_cfl")]
        if not (math.isfinite(target) and target > 0.0):
            raise ConfigError("[scheme] auto_dt_cfl must be finite and "
                              f"positive, got {target}")
        if v[("scheme", "dt")] <= 0.0 and PRESETS[self.case].steps:
            extents = self.domain_extents()
            h_min = min(
                (b - a) / nk for (a, b), nk in zip(extents, v[("mesh", "n")])
            )
            speed = max(v[("physics", "V0")], 1e-30)
            dt_raw = target * h_min / (v[("mesh", "p")] * speed)
            t_end = v[("scheme", "t_end")]
            if math.isfinite(t_end) and t_end > 0.0:  # else TimeScheme rejects it
                v[("scheme", "dt")] = t_end / math.ceil(t_end / dt_raw)

    def _validate(self):
        """Check every value through the object that owns its rule."""
        v, case = self.values, PRESETS[self.case]
        dim = case.values.get(("mesh", "dim"))
        if case.initial_velocity is not None and v[("mesh", "dim")] != dim:
            raise ConfigError(f"case {self.case} requires dim={dim}")
        try:
            make_basis(v[("mesh", "p")], v[("mesh", "spacing")])
            ConvectiveForm.coerce(v[("scheme", "convective_form")])
            snapshot_writer(v[("output", "snapshot_format")])
            self.physical_params()
            self.stabilization_config()
            if case.steps:  # else dt stays 0
                self.time_scheme()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # -- the solver objects this configuration describes -----------------------

    def physical_params(self):
        return PhysicalParams(nu=self.values[("physics", "nu")])

    def stabilization_config(self):
        v = self.values
        return StabilizationConfig(mode=v[("stabilization", "stabilization")],
                                   c_s=v[("stabilization", "c_s")])

    def time_scheme(self):
        """Every field of TimeScheme is the [scheme] key of the same name."""
        return TimeScheme(**{f.name: self.values[("scheme", f.name)]
                             for f in fields(TimeScheme)})

    # -- derived views -------------------------------------------------------

    def domain_extents(self):
        dim = self.values[("mesh", "dim")]
        return [(0.0, _TWO_PI)] * dim

    def output_dir(self):
        env = os.environ.get("LPSFLOW_OUTPUT_DIR")
        return env if env else self.values[("output", "dir")]

    def as_nested_dict(self):
        out = {}
        for (section, key), value in sorted(self.values.items()):
            if isinstance(value, tuple):
                value = list(value)
            out.setdefault(section, {})[key] = value
        return out


def load_config(path, overrides=None):
    """Load a run configuration from an INI file or a run.json manifest."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            manifest = json.load(fh)
        nested = manifest.get("config", manifest)
        values = {}
        for section, body in nested.items():
            for key, value in body.items():
                if isinstance(value, list):
                    value = tuple(value)
                values[(section, key)] = value
        return RunConfig.resolve(file_values=values, overrides=overrides)

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            values[(section, key)] = value
    return RunConfig.resolve(file_values=values, overrides=overrides)
