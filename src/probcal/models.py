"""Serializable calibrator models: one tagged union over every method.

A ``CalibratorModel`` pairs a method tag with its fitted parameters, the
class count, the label dictionary mapping external label names to internal
0-based indices, and fit metadata. An ``EnsembleModel`` averages the
outputs of same-method members (the inner-cross-validation ensemble).
Both round-trip losslessly through plain dicts / JSON.
"""

import datetime
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dirichlet, ovr, scaling
from .core import (DEFAULT_CLIP_FLOOR, LOGITS, PROBABILITIES, as_logit_matrix,
                   as_probability_matrix, clip_probabilities)
from .metrics import _chunks

SCHEMA_ID = "probcal-model-v1"


@dataclass(frozen=True)
class MethodSpec:
    """Everything the library needs to know about one method tag.

    ``fit(X, y, hyper, clip_floor, start)`` returns the raw
    parameter object, where ``start`` is None or fitted parameters of the
    same method that an iterative fit may start from (the others ignore
    it); ``apply(params, X, clip_floor)`` returns calibrated
    probability rows; ``to_json`` / ``from_json`` convert the parameters to
    and from plain dicts; ``defaults`` are the fixed hyperparameters used
    when no grid or value is given, and name the ones a grid searches;
    ``as_dirichlet(params, k)``, when set, gives the equivalent Dirichlet
    map ``LinearParams``. Entries look module functions up at call time.
    """

    input: str
    fit: Callable
    apply: Callable
    to_json: Callable
    from_json: Callable
    defaults: dict
    as_dirichlet: Optional[Callable] = None


def _weights_to_json(params) -> dict:
    return {"W": params.W.tolist(), "b": params.b.tolist()}


def _weights_from_json(obj: dict) -> dirichlet.LinearParams:
    return dirichlet.LinearParams(W=np.array(obj["W"]), b=np.array(obj["b"]))


def _dirichlet_spec(reg, defaults) -> MethodSpec:
    return MethodSpec(
        input=PROBABILITIES,
        fit=lambda X, y, h, floor, start: dirichlet.fit(
            clip_probabilities(X, floor), y, reg(h), _start=start),
        apply=lambda params, X, floor: dirichlet.apply_linear(X, params, floor),
        to_json=_weights_to_json,
        from_json=_weights_from_json,
        defaults=defaults,
        as_dirichlet=lambda params, k: params,
    )


def _affine_spec(mode, reg, defaults) -> MethodSpec:
    return MethodSpec(
        input=LOGITS,
        fit=lambda X, y, h, floor, start: scaling.fit_affine_logit(
            X, y, mode=mode, reg=reg(h), _start=start),
        apply=lambda params, X, floor: scaling.apply_affine_logit(X, params),
        to_json=_weights_to_json,
        from_json=_weights_from_json,
        defaults=defaults,
    )


def _ovr_spec(kind, defaults) -> MethodSpec:
    return MethodSpec(
        input=PROBABILITIES,
        fit=lambda X, y, h, floor, start: ovr.fit_ovr(
            X, y, kind, floor, **{name: h[name] for name in defaults}),
        apply=lambda params, X, floor: ovr.apply_ovr(X, params, floor),
        to_json=lambda params: {"kind": params.kind,
                                "maps": [_binary_to_jsonable(m) for m in params.maps]},
        from_json=lambda obj: ovr.OneVsRestModel(
            kind=obj["kind"], maps=tuple(_binary_from_jsonable(m) for m in obj["maps"])),
        defaults=defaults,
    )


#: method tag -> its spec, in the order methods are listed and compared.
METHOD_SPECS = {
    "dirichlet_l2": _dirichlet_spec(lambda h: dirichlet.L2Config(h["lam"]), {"lam": 1e-3}),
    "dirichlet_odir": _dirichlet_spec(lambda h: dirichlet.OdirConfig(h["lam"], h["mu"]),
                                      {"lam": 1e-3, "mu": 1e-3}),
    "temperature": MethodSpec(
        input=LOGITS,
        fit=lambda X, y, *_: scaling.fit_temperature(X, y),
        apply=lambda params, X, floor: scaling.apply_temperature(X, params),
        to_json=lambda params: {"t": params.t},
        from_json=lambda obj: scaling.TemperatureParams(t=float(obj["t"])),
        defaults={},
        as_dirichlet=lambda params, k: scaling.temperature_as_dirichlet(params, k),
    ),
    "vector_scaling": _affine_spec("vector", lambda h: scaling.OdirConfig(0.0, h.get("mu", 0.0)),
                                   {"mu": 0.0}),
    "matrix_odir": _affine_spec("matrix", lambda h: scaling.OdirConfig(h["lam"], h["mu"]),
                                {"lam": 1e-3, "mu": 1e-3}),
    "ovr_isotonic": _ovr_spec("isotonic", {}),
    "ovr_width_bin": _ovr_spec("width_bin", {"bins": 5}),
    "ovr_freq_bin": _ovr_spec("freq_bin", {"bins": 10}),
    "ovr_beta": _ovr_spec("beta", {}),
    "uncalibrated": MethodSpec(
        input=PROBABILITIES,
        fit=lambda *_: None,
        apply=lambda params, X, floor: clip_probabilities(X, floor),
        to_json=lambda params: {},
        from_json=lambda obj: None,
        defaults={},
    ),
}

#: method tag -> kind of input rows the method consumes.
METHOD_INPUT = {tag: spec.input for tag, spec in METHOD_SPECS.items()}

METHODS = tuple(METHOD_SPECS)


def method_spec(method: str) -> MethodSpec:
    """The spec of one method tag; unknown tags raise ValueError."""
    if method not in METHOD_SPECS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    return METHOD_SPECS[method]


def _binary_to_jsonable(m) -> dict:
    if isinstance(m, ovr.IsotonicMap):
        return {"type": "isotonic", "breakpoints": m.breakpoints.tolist(),
                "values": m.values.tolist()}
    if isinstance(m, ovr.BinningMap):
        return {"type": "binning", "edges": m.edges.tolist(), "bin_values": m.bin_values.tolist(),
                "scheme": m.scheme}
    if isinstance(m, ovr.BetaParams):
        return {"type": "beta", "a": m.a, "b": m.b, "c": m.c}
    raise TypeError(f"unknown binary calibrator {type(m).__name__}")


def _binary_from_jsonable(obj: dict):
    t = obj["type"]
    if t == "isotonic":
        return ovr.IsotonicMap(breakpoints=np.array(obj["breakpoints"]), values=np.array(obj["values"]))
    if t == "binning":
        return ovr.BinningMap(edges=np.array(obj["edges"]), bin_values=np.array(obj["bin_values"]),
                              scheme=obj["scheme"])
    if t == "beta":
        return ovr.BetaParams(a=obj["a"], b=obj["b"], c=obj["c"])
    raise ValueError(f"unknown binary calibrator type {t!r}")


#: input kind -> the check of a whole input that every method of the kind
#: makes first.
_VALIDATORS = {PROBABILITIES: as_probability_matrix, LOGITS: as_logit_matrix}


def _apply_by_chunks(apply_rows, X, k: int, input_kind: str, out):
    """``apply_rows`` of the rows of X, a row chunk at a time, into ``out``.

    Every calibration map is row-wise, so each chunk's rows come out as
    they would from one call on the whole of X. The whole of X is checked
    first, so an invalid input raises the error a single call would and
    writes nothing into ``out``; ``out`` may be X itself. Without ``out``,
    an X of one chunk (or a single 1-d row) returns ``apply_rows(X)``
    itself, and a larger one a new array.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != k:
        raise ValueError(f"model expects {k} classes, input has {X.shape[-1]}")
    _VALIDATORS[input_kind](X)
    chunks = _chunks(len(X), k) if X.ndim == 2 else [Ellipsis]
    if out is None:
        if len(chunks) == 1:
            return apply_rows(X)
        out = np.empty_like(X)
    for rows in chunks:
        out[rows] = apply_rows(X[rows])
    return out


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _check_document(obj) -> None:
    """Reject anything but a dict of this schema, top-level or ensemble member."""
    if not isinstance(obj, dict):
        raise ValueError("not a calibrator model document")
    if obj.get("schema") != SCHEMA_ID:
        raise ValueError(f"unsupported model schema {obj.get('schema')!r}")


@dataclass
class CalibratorModel:
    """One fitted calibration map with its metadata."""

    method: str
    k: int
    params: object
    label_names: list = field(default_factory=list)
    hyperparams: dict = field(default_factory=dict)
    clip_floor: float = DEFAULT_CLIP_FLOOR
    seed: Optional[int] = None
    created: Optional[str] = None

    def __post_init__(self):
        method_spec(self.method)
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if getattr(self.params, "k", self.k) != self.k:
            raise ValueError(f"parameters are for {self.params.k} classes, model declares {self.k}")
        if not self.label_names:
            self.label_names = [str(i) for i in range(self.k)]
        if len(self.label_names) != self.k:
            raise ValueError("label dictionary must have one name per class")

    @property
    def input_kind(self) -> str:
        return METHOD_INPUT[self.method]

    def apply(self, X, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Calibrated probability rows of X, written into ``out`` if given.

        X is one row or an (n, k) matrix of the model's input kind. The map
        runs a row chunk at a time, so besides X and ``out`` it holds one
        chunk's working arrays; ``out=X`` calibrates in place.
        """
        return _apply_by_chunks(self._apply_rows, X, self.k, self.input_kind, out)

    def _apply_rows(self, X) -> np.ndarray:
        return method_spec(self.method).apply(self.params, X, self.clip_floor)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "type": "single",
            "method": self.method,
            "k": self.k,
            "input": self.input_kind,
            "labels": list(self.label_names),
            "params": method_spec(self.method).to_json(self.params),
            "hyperparams": dict(self.hyperparams),
            "clip_floor": self.clip_floor,
            "seed": self.seed,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "CalibratorModel":
        _check_document(obj)
        method = obj["method"]
        return cls(
            method=method,
            k=int(obj["k"]),
            params=method_spec(method).from_json(obj["params"]),
            label_names=list(obj.get("labels", [])),
            hyperparams=dict(obj.get("hyperparams", {})),
            clip_floor=float(obj.get("clip_floor", DEFAULT_CLIP_FLOOR)),
            seed=obj.get("seed"),
            created=obj.get("created"),
        )


@dataclass
class EnsembleModel:
    """Average of same-method members fitted on different folds."""

    members: list

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        methods = {m.method for m in self.members}
        ks = {m.k for m in self.members}
        if len(methods) > 1 or len(ks) > 1:
            raise ValueError("ensemble members must share method and class count")

    @property
    def method(self) -> str:
        return self.members[0].method

    @property
    def k(self) -> int:
        return self.members[0].k

    @property
    def label_names(self) -> list:
        return self.members[0].label_names

    @property
    def input_kind(self) -> str:
        return self.members[0].input_kind

    @property
    def hyperparams(self) -> dict:
        return self.members[0].hyperparams

    def apply(self, X, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Mean of the members' outputs, renormalized, written into ``out``
        if given.

        As ``CalibratorModel.apply``, a row chunk at a time: each chunk's
        mean is a running sum over the members in order, divided by their
        count, whose additions are those of ``np.mean`` along the member
        axis.
        """
        return _apply_by_chunks(self._apply_rows, X, self.k, self.input_kind, out)

    def _apply_rows(self, X) -> np.ndarray:
        total = self.members[0]._apply_rows(X)
        for m in self.members[1:]:
            total += m._apply_rows(X)
        total /= len(self.members)
        total /= total.sum(axis=-1, keepdims=True)
        return total

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "type": "ensemble",
            "method": self.method,
            "k": self.k,
            "members": [m.to_dict() for m in self.members],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EnsembleModel":
        _check_document(obj)
        return cls(members=[CalibratorModel.from_dict(m) for m in obj["members"]])


def model_from_dict(obj: dict):
    """Load either a single model or an ensemble from its dict form."""
    _check_document(obj)
    if obj.get("type") == "single":
        return CalibratorModel.from_dict(obj)
    if obj.get("type") == "ensemble":
        return EnsembleModel.from_dict(obj)
    raise ValueError(f"unknown model document type {obj.get('type')!r}")


def fit_calibrator(method: str, X, y, hyper: Optional[dict] = None,
                   label_names: Optional[list] = None,
                   clip_floor: float = DEFAULT_CLIP_FLOOR,
                   seed: Optional[int] = None, *,
                   _start: Optional[CalibratorModel] = None) -> CalibratorModel:
    """Fit one method on all of (X, y) and wrap it as a CalibratorModel.

    ``_start``, a model of the same method fitted on the same rows, gives
    the Dirichlet and affine-logit fits their starting point.
    """
    X = np.asarray(X, dtype=float)
    hyper = dict(hyper or {})
    start = None if _start is None else _start.params
    params = method_spec(method).fit(X, y, hyper, clip_floor, start)
    return CalibratorModel(
        method=method,
        k=X.shape[1],
        params=params,
        label_names=list(label_names) if label_names else [],
        hyperparams=hyper,
        clip_floor=clip_floor,
        seed=seed,
        created=_utc_now(),
    )
