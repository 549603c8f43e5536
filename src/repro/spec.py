"""Declarative run specifications: one serializable spec for every tier.

One description of a run — "simulate this workload under these
failures with this checkpoint policy" — serves every caller: the
registered verify scenarios, ``evaluate_policy``, sweep grids and
campaign cells.  This module is that declarative vocabulary: a frozen,
validated :class:`RunSpec` dataclass tree

* :class:`WorkloadSpec` — where tasks come from (law-driven synthetic
  batches, synthesized Google-like traces, or the historical
  evaluation trace) and their shape;
* :class:`FailureSpec` — per-priority interval laws, the replay-tier
  failure source, and host-crash physics;
* :class:`StorageSpec` — checkpoint backend selection;
* :class:`PolicySpec` — checkpoint policy, its parameter, and how its
  MNOF/MTBF inputs are estimated;
* :class:`ExecutionSpec` — which tier runs the spec, seeding, worker
  count, cluster topology, and verification strictness

with exact ``to_dict``/``from_dict`` round-tripping, JSON
(de)serialization, a :func:`load_spec` that reads JSON and TOML spec
files, a canonical :meth:`RunSpec.spec_digest`, and dotted-path
:meth:`RunSpec.evolve` overrides for grid expansion.

The facade that executes a spec is :func:`repro.api.run`; this module
stays dependency-light (stdlib only, and the package root loads its
exports lazily) so config tooling can import it without paying for
NumPy.

Serialization contract
----------------------
``from_dict(to_dict(spec)) == spec`` exactly (dataclass equality),
and the same holds through JSON.  ``to_dict`` emits only plain JSON
types (dicts, lists, strings, numbers, booleans, null); ``from_dict``
fills missing keys with field defaults (so a TOML spec file, which
cannot express null, simply omits ``None``-valued keys) and rejects
unknown keys with :class:`SpecError`.  ``spec_digest`` hashes the
canonical sorted-key JSON form minus the fields that cannot change
results (worker count, prose, the quick-subset marker) — two specs
with equal digests are the same experiment.

Every class reads and writes that form through one field table,
derived on first use from its field annotations (``str``, ``int``,
``float``, ``bool``, ``X | None``, tuples of those, child specs): a
value of exactly the annotated type is taken as it is, any other goes
through one converter per kind, so every class coerces alike (an int
for a float field becomes a float, a bool is never a number) and words
a bad value alike.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: stdlib tomllib arrived in 3.11
    tomllib = None
from dataclasses import dataclass, field, fields
from pathlib import Path

__all__ = [
    "ARRIVAL_MODES",
    "COMPARE_MODES",
    "DISTRIBUTION_FAMILIES",
    "ESTIMATION_MODES",
    "ExecutionSpec",
    "FAILURE_MODES",
    "FailureLawSpec",
    "FailureSpec",
    "POLICY_NAMES",
    "PolicySpec",
    "RunSpec",
    "SPEC_VERSION",
    "STORAGE_MODES",
    "SpecError",
    "StorageSpec",
    "TE_MODES",
    "TIERS",
    "TRACE_ARRIVALS",
    "WORKLOAD_SOURCES",
    "WorkloadSpec",
    "canonical_json",
    "load_spec",
]

#: Serialized-form schema version, embedded in every ``to_dict`` and
#: covered by the digest: a schema change is a different experiment.
SPEC_VERSION = 1

# ----------------------------------------------------------------------
# Closed vocabularies.  Everything that used to live as ad-hoc string
# checks in verify/scenarios.py and parallel/sweep.py validates against
# these; error messages always list the valid names.
# ----------------------------------------------------------------------
DISTRIBUTION_FAMILIES = ("exponential", "weibull", "pareto", "lognormal",
                         "mixture")
POLICY_NAMES = ("optimal", "young", "daly", "fixed-interval", "fixed-count",
                "none")
STORAGE_MODES = ("local", "nfs", "dmnfs", "shared", "auto")
TIERS = ("scalar", "vector", "des", "replay")
WORKLOAD_SOURCES = ("synthetic", "google", "history")
ARRIVAL_MODES = ("batch", "steady", "bursty")
TRACE_ARRIVALS = ("poisson", "bursty")
TE_MODES = ("lognormal", "fixed")
COMPARE_MODES = ("exact", "stats", "loose")
ESTIMATION_MODES = ("oracle", "priority")
FAILURE_MODES = ("replay", "redraw")


class SpecError(ValueError):
    """A run specification failed validation.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites (and tests) keep working.
    """


def _require(value: str, valid: tuple[str, ...], what: str) -> None:
    if value not in valid:
        raise SpecError(f"unknown {what} {value!r}; valid: {', '.join(valid)}")


def _positive(value: float, what: str) -> None:
    if not (isinstance(value, (int, float)) and 0 < value < math.inf):
        raise SpecError(f"{what} must be positive and finite, got {value!r}")


def _non_negative(value: float, what: str) -> None:
    if not (isinstance(value, (int, float)) and 0 <= value < math.inf):
        raise SpecError(f"{what} must be >= 0 and finite, got {value!r}")


# ----------------------------------------------------------------------
# The codec: one field table per class.
# ----------------------------------------------------------------------
def _int(value) -> int:
    if isinstance(value, bool) or int(value) != value:
        raise SpecError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise SpecError(f"expected a number, got {value!r}")
    return float(value)


def _str(value) -> str:
    if not isinstance(value, str):
        raise SpecError(f"expected a string, got {value!r}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"expected a boolean, got {value!r}")
    return value


#: annotation -> (the type taken as it is, the converter of any other)
_SCALARS = {"int": (int, _int), "float": (float, _float), "str": (str, _str),
            "bool": (bool, _bool)}


def _plain(value):
    """Convert a spec value into plain JSON types (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The dataclass field names of ``cls`` in order, computed once per
    class."""
    return tuple(f.name for f in fields(cls))


def _as_floats(spec) -> None:
    """Store every float field of the frozen ``spec`` that holds another
    real number (an int) through :func:`_float`, as :meth:`from_dict`
    does, so a directly built spec and its ``from_dict``/``evolve``
    twin serialize, and so digest, alike.  (Fields are read and set as
    attributes: touching ``spec.__dict__`` would give every instance a
    dict object of its own.)"""
    for name in _table(type(spec)).floats:
        value = getattr(spec, name)
        if type(value) is not float and value is not None \
                and isinstance(value, numbers.Real):
            object.__setattr__(spec, name, _float(value))


def _section_reader(cls, name: str, convert, optional: bool):
    """The slow path of a section's scalar field: ``None`` is read as it
    is for a field annotated ``| None`` and is a :class:`SpecError` for
    any other, and a converter's ``TypeError``/``ValueError`` becomes a
    :class:`SpecError` naming the field."""
    def read(value):
        if value is None:
            if optional:
                return None
            raise SpecError(f"{cls.__name__}.{name} must not be null")
        try:
            return convert(value)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"bad value for {cls.__name__}.{name}: {value!r} ({exc})"
            ) from None
    return read


def _child_reader(name: str, child: _Table):
    def read(value):
        if not isinstance(value, dict):
            raise SpecError(f"{name} must be a table/object, got {value!r}")
        return _decode(child, value)
    return read


def _many_reader(name: str, one):
    """The reader of a ``tuple[X, ...]`` field: a list or tuple read
    item by item with ``one``; any other value is a :class:`SpecError`."""
    def read(value):
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{name} must be a list, got {value!r}")
        return tuple([one(v) for v in value])
    return read


class _Table:
    """One spec class's codec, read from its field annotations.

    ``decode`` holds ``(name, exact type, read)`` per field, scalars
    before child specs: a value of exactly that type is taken as it is,
    any other goes through ``read``.  :class:`RunSpec`'s own scalars
    read strictly (no ``None``, converter errors as they are); a
    section's go through :func:`_section_reader`.  ``to_dict`` copies
    the fields in ``names`` order, then applies ``writers`` to tuples
    and child specs.  ``floats`` are the fields :func:`_as_floats`
    normalises.
    """

    __slots__ = ("cls", "known", "decode", "names", "writers", "floats")

    def __init__(self, cls) -> None:
        scalars, children, writers, floats = [], [], [], []
        for f in fields(cls):
            kind = f.type.removesuffix(" | None")
            many = kind.startswith("tuple[")  # "tuple[X, ...]"
            if many:
                kind = kind[len("tuple["):-len(", ...]")]
            if kind in _SCALARS:
                exact, read = _SCALARS[kind]
                if many:
                    exact, read = None, _many_reader(f.name, read)
                    writers.append((f.name, lambda value: None
                                    if value is None else list(value)))
                elif exact is float:
                    floats.append(f.name)
                if cls is not RunSpec:
                    read = _section_reader(cls, f.name, read,
                                           f.type.endswith(" | None"))
                scalars.append((f.name, exact, read))
            elif many:
                child = _table(globals()[kind])
                children.append((f.name, None, _many_reader(
                    f.name, _child_reader(f.name, child))))
                writers.append((f.name, lambda specs, child=child:
                                [_encode(child, spec) for spec in specs]))
            else:
                child = _table(globals()[kind])
                children.append((f.name, None, _child_reader(f.name, child)))
                writers.append((f.name, lambda spec, child=child:
                                _encode(child, spec)))
        self.cls = cls
        self.names = _field_names(cls)
        self.known = frozenset(self.names)
        self.decode = tuple(scalars + children)
        self.writers = tuple(writers)
        self.floats = tuple(floats)


#: the table of each spec class, built on its first use
_table = functools.cache(_Table)


def _decode(table: _Table, data: dict):
    """Build a validated instance of the ``table``'s class from its
    plain-JSON form: missing keys take the field defaults, unknown keys
    are a :class:`SpecError`."""
    cls = table.cls
    if not table.known.issuperset(data):
        unknown = sorted(set(data).difference(table.known))
        raise SpecError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(table.known))}"
        )
    return cls(**{name: value if type(value := data[name]) is exact
                  else read(value)
                  for name, exact, read in table.decode if name in data})


def _encode(table: _Table, spec) -> dict:
    """The plain-JSON form of ``spec``, in field order."""
    out = {name: getattr(spec, name) for name in table.names}
    for name, write in table.writers:
        out[name] = write(out[name])
    return out


class _Codec:
    """The table-driven ``to_dict``/``from_dict`` of every spec class."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return _encode(_table(type(self)), self)

    @classmethod
    def from_dict(cls, data: dict):
        """Exact inverse of :meth:`to_dict` (missing keys -> defaults)."""
        return _decode(_table(cls), data)


# ----------------------------------------------------------------------
# The spec tree.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailureLawSpec(_Codec):
    """One priority's failure-interval law (family + target mean).

    ``priority`` is a Google priority, 1..12.  ``mean`` is the target
    expected interval (the body mean for the mixture family, whose
    Pareto tail makes the true mean larger);
    ``shape`` is family-specific: Weibull ``k``, Pareto ``alpha``,
    LogNormal ``sigma`` (unused for exponential/mixture).
    """

    priority: int
    family: str
    mean: float
    shape: float = 0.0

    def __post_init__(self) -> None:
        _as_floats(self)
        if not 1 <= self.priority <= 12:
            raise SpecError(
                f"failure-law priority must be in 1..12 (Google priorities), "
                f"got {self.priority!r}"
            )
        _require(self.family, DISTRIBUTION_FAMILIES, "distribution family")
        _positive(self.mean, "failure-law mean")
        _non_negative(self.shape, "failure-law shape")


@dataclass(frozen=True)
class WorkloadSpec(_Codec):
    """Where the tasks come from and how they are shaped.

    ``source`` selects one of three materializations:

    * ``"synthetic"`` — law-driven task batches (te/mem lognormals,
      priorities cycling over :attr:`FailureSpec.laws`), the verify
      scenarios' default;
    * ``"google"`` — a synthesized Google-like trace with per-task
      frailty ground truth (``trace_jobs``/``trace_arrival``);
    * ``"history"`` — the shared historical evaluation trace
      (``n_jobs``/``trace_seed``/``only_failed_jobs``), the replay
      tier's input.
    """

    source: str = "synthetic"
    # -- synthetic task shape ------------------------------------------
    n_tasks: int = 64
    te_mode: str = "lognormal"
    te_mean: float = 300.0  # median for lognormal, value for fixed
    te_sigma: float = 0.6
    te_min: float = 30.0
    te_max: float = 20000.0
    mem_mean: float = 60.0  # lognormal median, MB
    mem_sigma: float = 0.5
    mem_min: float = 10.0
    mem_max: float = 800.0
    arrival: str = "batch"
    arrival_rate: float = 0.5
    burst_size: int = 8
    # -- google-like synthesized trace ---------------------------------
    trace_jobs: int = 30
    trace_arrival: str = "poisson"
    trace_burst_size: int = 8
    # -- historical evaluation trace -----------------------------------
    n_jobs: int = 4000
    trace_seed: int = 2013
    only_failed_jobs: bool = True

    def __post_init__(self) -> None:
        _as_floats(self)
        _require(self.source, WORKLOAD_SOURCES, "workload source")
        _require(self.te_mode, TE_MODES, "te_mode")
        _require(self.arrival, ARRIVAL_MODES, "arrival mode")
        _require(self.trace_arrival, TRACE_ARRIVALS, "trace arrival pattern")
        for what, value in (("n_tasks", self.n_tasks),
                            ("trace_jobs", self.trace_jobs),
                            ("trace_burst_size", self.trace_burst_size),
                            ("n_jobs", self.n_jobs),
                            ("burst_size", self.burst_size)):
            if value < 1:
                raise SpecError(f"{what} must be >= 1, got {value}")
        _positive(self.te_mean, "te_mean")
        _positive(self.te_max, "te_max")
        _non_negative(self.te_sigma, "te_sigma")
        _non_negative(self.te_min, "te_min")
        _positive(self.mem_mean, "mem_mean")
        _positive(self.mem_max, "mem_max")
        _non_negative(self.mem_sigma, "mem_sigma")
        _non_negative(self.mem_min, "mem_min")
        _positive(self.arrival_rate, "arrival_rate")


@dataclass(frozen=True)
class FailureSpec(_Codec):
    """Failure physics: interval laws, replay-tier source, host crashes."""

    #: per-priority interval laws (synthetic workloads cycle over them)
    laws: tuple[FailureLawSpec, ...] = ()
    #: replay-tier failure source: replay historical intervals or
    #: redraw fresh ones from the frailty ground truth
    mode: str = "replay"
    #: host-crash MTBF in seconds (``None`` disables host crashes)
    host_mtbf: float | None = None
    host_repair_time: float = 60.0

    def __post_init__(self) -> None:
        _as_floats(self)
        _require(self.mode, FAILURE_MODES, "failure mode")
        if self.host_mtbf is not None:
            _positive(self.host_mtbf, "host_mtbf")
        _non_negative(self.host_repair_time, "host_repair_time")
        priorities = [law.priority for law in self.laws]
        if len(set(priorities)) != len(priorities):
            raise SpecError(
                f"duplicate priorities in failure laws: {priorities}"
            )


@dataclass(frozen=True)
class StorageSpec(_Codec):
    """Checkpoint storage backend.

    ``local`` (per-host ramdisk), ``nfs`` (one shared server),
    ``dmnfs`` (one server per host), ``shared`` (the replay tier's
    fixed shared backend), or ``auto`` (the paper's §4.2.2 per-task
    selector).  The scenario tiers accept ``local/nfs/dmnfs/auto`` and
    the replay tier ``local/shared/auto`` — :class:`RunSpec` rejects
    the other combinations so that no two distinct specs alias onto
    the same computation.
    """

    mode: str = "local"

    def __post_init__(self) -> None:
        _require(self.mode, STORAGE_MODES, "storage mode")


@dataclass(frozen=True)
class PolicySpec(_Codec):
    """Checkpoint policy plus how its believed inputs are estimated."""

    name: str = "optimal"
    #: interval seconds for ``fixed-interval``, count for ``fixed-count``
    param: float = 0.0
    #: MNOF/MTBF estimation on the replay tier: per-task history
    #: (``oracle``) or per-priority group mining (``priority``)
    estimation: str = "oracle"
    #: cap the priority-group estimation to tasks at most this long
    #: (the paper's RL-capped setting); ``None`` = no cap
    length_cap: float | None = None

    def __post_init__(self) -> None:
        _as_floats(self)
        _require(self.name, POLICY_NAMES, "policy")
        _require(self.estimation, ESTIMATION_MODES, "estimation mode")
        _non_negative(self.param, "policy param")
        if self.name == "fixed-interval" and not self.param > 0:
            raise SpecError(
                "policy 'fixed-interval' needs param > 0 "
                "(the interval length in seconds)"
            )
        if self.name == "fixed-count" and int(self.param) < 1:
            raise SpecError(
                "policy 'fixed-count' needs param >= 1 (the interval count)"
            )
        if self.length_cap is not None:
            _positive(self.length_cap, "length_cap")


@dataclass(frozen=True)
class ExecutionSpec(_Codec):
    """How (and how strictly) the spec executes.

    ``tier`` picks the engine: the scalar reference loop, the
    vector/blocked Monte-Carlo batch, the discrete-event cluster
    simulation, or the trace-driven ``replay`` evaluation pipeline.
    ``workers > 1`` fans the vector and replay tiers out through
    :mod:`repro.parallel`; results are bit-identical for every worker
    count, so ``workers`` is excluded from :meth:`RunSpec.spec_digest`.
    """

    tier: str = "scalar"
    base_seed: int = 0
    workers: int = 1
    restart_delay: float = 0.0
    # -- cluster topology (DES tier) -----------------------------------
    n_hosts: int = 8
    vms_per_host: int = 7
    vms_per_host_pattern: tuple[int, ...] | None = None
    failure_detection_delay: float = 1.0
    placement_overhead: float = 0.5
    # -- differential-verification strictness --------------------------
    compare: str = "exact"
    loose_lo: float = 0.8
    loose_hi: float = 3.0
    #: member of the fast smoke subset (``repro verify --quick``)
    quick: bool = False

    def __post_init__(self) -> None:
        _as_floats(self)
        _require(self.tier, TIERS, "execution tier")
        _require(self.compare, COMPARE_MODES, "compare mode")
        if self.workers < 1:
            raise SpecError(f"workers must be >= 1, got {self.workers}")
        if self.n_hosts < 1 or self.vms_per_host < 1:
            raise SpecError(
                f"n_hosts and vms_per_host must be >= 1, got "
                f"{self.n_hosts}/{self.vms_per_host}"
            )
        if self.vms_per_host_pattern is not None:
            if not self.vms_per_host_pattern:
                raise SpecError("vms_per_host_pattern must not be empty")
            if any(v < 1 for v in self.vms_per_host_pattern):
                raise SpecError(
                    f"vms_per_host_pattern entries must be >= 1, got "
                    f"{self.vms_per_host_pattern}"
                )
        _non_negative(self.restart_delay, "restart_delay")
        _non_negative(self.failure_detection_delay, "failure_detection_delay")
        _non_negative(self.placement_overhead, "placement_overhead")
        if not 0 < self.loose_lo < self.loose_hi:
            raise SpecError(
                f"need 0 < loose_lo < loose_hi, got "
                f"{self.loose_lo}/{self.loose_hi}"
            )


@dataclass(frozen=True)
class RunSpec:
    """The complete declarative description of one run.

    A ``RunSpec`` is a pure value: two equal specs always produce
    bit-identical results on the same tier, and
    :meth:`spec_digest` is the canonical content address experiments
    and sweep reports record alongside result digests.

    Being a frozen value, a spec derives its digest once and keeps it
    in a private instance attribute (``_digest``, outside the fields);
    the canonical JSON behind it is not kept, as nothing else reads it
    twice and a large campaign would hold about a kilobyte more per
    cell.  Equality, hashing, ``repr`` and ``to_dict`` see only the
    fields; ``evolve`` and :func:`dataclasses.replace` build fresh
    instances, and a pickled or copied spec carries no digest, so a
    pool worker or another build derives it again from the fields.
    """

    name: str = "adhoc"
    description: str = ""
    tags: tuple[str, ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    failures: FailureSpec = field(default_factory=FailureSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("spec name must not be empty")
        tier = self.execution.tier
        source = self.workload.source
        if tier == "replay" and source != "history":
            raise SpecError(
                f"{self.name}: the replay tier evaluates the historical "
                f"trace; set workload.source='history' (got {source!r})"
            )
        if tier != "replay" and source == "history":
            raise SpecError(
                f"{self.name}: workload.source='history' runs on the "
                f"replay tier only (got tier {tier!r})"
            )
        if source == "synthetic" and not self.failures.laws:
            raise SpecError(
                f"{self.name}: synthetic workloads need at least one "
                "failure law"
            )
        # Each tier accepts only the storage modes it actually
        # distinguishes: the replay tier prices one fixed shared
        # backend ("shared"), the scenario tiers model nfs and dmnfs
        # separately — letting the other vocabulary through would give
        # two spec digests to one computation.
        mode = self.storage.mode
        if tier == "replay" and mode in ("nfs", "dmnfs"):
            raise SpecError(
                f"{self.name}: the replay tier prices one fixed shared "
                f"backend; use storage.mode='shared' (got {mode!r})"
            )
        if tier != "replay" and mode == "shared":
            raise SpecError(
                f"{self.name}: the {tier!r} tier distinguishes shared "
                "backends; use storage.mode='nfs' or 'dmnfs'"
            )
        # Reject replay-only knobs on the scenario tiers instead of
        # silently ignoring them: a spec that claims a different
        # experiment must not run the same computation.
        # (Default-valued fields a tier happens not to read — e.g.
        # synthetic shape knobs on a 'google' workload — are not
        # detectable this way; keep off-tier fields at their defaults.)
        if tier != "replay":
            if self.execution.restart_delay != 0.0:
                raise SpecError(
                    f"{self.name}: execution.restart_delay only applies "
                    f"to the replay tier (the {tier!r} tier charges "
                    "delays through the cluster config)"
                )
            if self.policy.length_cap is not None:
                raise SpecError(
                    f"{self.name}: policy.length_cap only applies to the "
                    "replay tier's estimation"
                )
            if self.policy.estimation != "oracle":
                raise SpecError(
                    f"{self.name}: policy.estimation only applies to the "
                    f"replay tier (the {tier!r} tier derives MNOF/MTBF "
                    "from the failure laws)"
                )
            if self.failures.mode != "replay":
                raise SpecError(
                    f"{self.name}: failures.mode only applies to the "
                    f"replay tier (the {tier!r} tier always draws from "
                    "its laws)"
                )
        else:
            if self.failures.laws:
                raise SpecError(
                    f"{self.name}: the replay tier takes failures from "
                    "the historical trace; failures.laws must be empty"
                )
            if self.failures.host_mtbf is not None:
                raise SpecError(
                    f"{self.name}: host crashes are DES-tier physics; "
                    "unset failures.host_mtbf on the replay tier"
                )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (includes ``spec_version``)."""
        return {"spec_version": SPEC_VERSION,
                **_encode(_table(RunSpec), self)}

    @classmethod
    def from_dict(cls, data: dict) -> RunSpec:
        """Exact inverse of :meth:`to_dict` (missing keys -> defaults)."""
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a table/object, got {data!r}")
        data = dict(data)
        version = data.pop("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(
                f"unsupported spec_version {version!r} "
                f"(this build reads version {SPEC_VERSION})"
            )
        return _decode(_table(cls), data)

    def to_json(self) -> str:
        """JSON text (stable field order, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> RunSpec:
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))

    # -- identity ------------------------------------------------------
    def spec_digest(self) -> str:
        """SHA-256 over :func:`canonical_json` — the spec's identity.

        Stable across processes, platforms, and worker counts; two
        specs with equal digests describe the same experiment.
        Computed once per instance.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = hashlib.sha256(
                canonical_json(self.to_dict()).encode()).hexdigest()
            self.__dict__["_digest"] = digest
        return digest

    def __getstate__(self) -> dict:
        """Pickle the fields only; the unpickled spec derives its digest
        again."""
        state = dict(self.__dict__)
        state.pop("_digest", None)
        return state

    # -- evolution -----------------------------------------------------
    def evolve(self, **overrides) -> RunSpec:
        """A new validated spec with dotted-path overrides applied.

        Keys address fields through the tree, e.g.
        ``spec.evolve(**{"policy.name": "young",
        "execution.workers": 4})``; plain keys address the top level.
        Values must be plain JSON types (the override is applied to the
        serialized form and re-validated through :meth:`from_dict`).
        """
        data = self.to_dict()
        for key, value in overrides.items():
            node = data
            parts = key.split(".")
            for part in parts[:-1]:
                child = node.get(part)
                if not isinstance(child, dict):
                    raise SpecError(f"unknown spec path {key!r}")
                node = child
            if parts[-1] not in node:
                raise SpecError(
                    f"unknown spec field {key!r}; valid here: "
                    f"{', '.join(sorted(node))}"
                )
            node[parts[-1]] = _plain(value)
        return RunSpec.from_dict(data)


def canonical_json(data: dict) -> str:
    """Sorted-key minimal JSON of the digest-relevant fields of ``data``,
    a spec in its plain-JSON form (:meth:`RunSpec.to_dict`, an object
    whose ``execution`` is an object).

    Excluded from the canonical form: ``execution.workers`` (a
    scheduling knob — results are bit-identical for every worker
    count), ``description`` and ``tags`` (prose/labels), and
    ``execution.quick`` (a smoke-subset marker).  Everything else
    either changes what runs or how strictly it is verified
    (``compare``/``loose_*`` are part of a scenario's identity).  A
    non-finite number has no JSON form: a :class:`SpecError`.
    """
    payload = {k: v for k, v in data.items()
               if k not in ("description", "tags")}
    payload["execution"] = {k: v for k, v in data["execution"].items()
                            if k not in ("workers", "quick")}
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        raise SpecError(f"spec has no canonical JSON: {exc}") from None


def _load(path: str | Path, what: str, from_dict):
    """``from_dict`` of the ``.toml`` or ``.json`` ``what`` file at
    ``path``; an unreadable or unparsable file is a :class:`SpecError`."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read {what} file {path}: {exc}") from None
    try:
        if path.suffix != ".toml":
            return from_dict(json.loads(text))
        if tomllib is None:
            raise SpecError(
                f"reading TOML {what}s needs the stdlib tomllib (Python "
                f">= 3.11); use JSON {what}s on this interpreter"
            )
        return from_dict(tomllib.loads(text))
    except SpecError:
        raise
    except ValueError as exc:  # JSONDecodeError / TOMLDecodeError
        raise SpecError(f"cannot parse {what} file {path}: {exc}") from None


def load_spec(path: str | Path) -> RunSpec:
    """Load a :class:`RunSpec` from a ``.json`` or ``.toml`` file."""
    return _load(path, "spec", RunSpec.from_dict)
