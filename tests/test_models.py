import numpy as np
import pytest

from probcal.core import clip_probabilities, log_transform, softmax
from probcal.dirichlet import LinearParams
from probcal.metrics import _chunks
from probcal.models import (
    METHOD_INPUT,
    METHODS,
    CalibratorModel,
    EnsembleModel,
    fit_calibrator,
    method_spec,
    model_from_dict,
)
from probcal.ovr import IsotonicMap, OneVsRestModel, fit_isotonic

from conftest import peaked_simplex, random_simplex, traced_peak
from oracles import sample_labels_from_rows

PROB_METHODS = [
    ("dirichlet_l2", {"lam": 1e-3}),
    ("dirichlet_odir", {"lam": 1e-3, "mu": 1e-3}),
    ("ovr_isotonic", {}),
    ("ovr_width_bin", {"bins": 5}),
    ("ovr_freq_bin", {"bins": 5}),
    ("ovr_beta", {}),
    ("uncalibrated", {}),
]
LOGIT_METHODS = [
    ("temperature", {}),
    ("vector_scaling", {"mu": 0.0}),
    ("matrix_odir", {"lam": 1e-2, "mu": 1e-2}),
]


@pytest.fixture
def prob_data(rng):
    q = random_simplex(rng, 300, 3)
    return q, sample_labels_from_rows(rng, q)


@pytest.fixture
def tied_data(rng):
    # Scores rounded to 2 decimals give ties and long runs of equal values.
    q = np.round(random_simplex(rng, 600, 3), 2)
    q /= q.sum(axis=1, keepdims=True)
    return q, sample_labels_from_rows(rng, q)


@pytest.fixture
def logit_data(rng):
    z = rng.normal(size=(300, 3)) * 2.0
    return z, sample_labels_from_rows(rng, softmax(z, axis=1))


class TestFitCalibrator:
    @pytest.mark.parametrize("method,hyper", PROB_METHODS)
    def test_probability_methods(self, prob_data, method, hyper):
        q, y = prob_data
        model = fit_calibrator(method, q, y, hyper)
        assert model.k == 3
        assert model.input_kind == "probabilities"
        out = model.apply(q)
        assert out.shape == q.shape
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("method,hyper", LOGIT_METHODS)
    def test_logit_methods(self, logit_data, method, hyper):
        z, y = logit_data
        model = fit_calibrator(method, z, y, hyper)
        assert model.input_kind == "logits"
        out = model.apply(z)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_uncalibrated_is_clip_renormalize(self, prob_data):
        q, y = prob_data
        model = fit_calibrator("uncalibrated", q, y, {})
        np.testing.assert_allclose(model.apply(q), clip_probabilities(q), atol=1e-15)

    def test_unknown_method(self, prob_data):
        q, y = prob_data
        with pytest.raises(ValueError, match="unknown method"):
            fit_calibrator("platt", q, y, {})

    def test_wrong_k_on_apply(self, prob_data, rng):
        q, y = prob_data
        model = fit_calibrator("dirichlet_l2", q, y, {"lam": 1e-3})
        with pytest.raises(ValueError, match="classes"):
            model.apply(random_simplex(rng, 5, 4))


class TestEnsembleApply:
    def test_running_mean_holds_little_beside_its_output(self):
        # Three members fitted on thirds of n = 10^4 rows at k = 100.
        rng = np.random.default_rng(2019)
        q = peaked_simplex(rng, 10_000, 100)
        y = sample_labels_from_rows(rng, q)
        members = [fit_calibrator("ovr_isotonic", q[f::3], y[f::3]) for f in range(3)]
        out, peak = traced_peak(lambda: EnsembleModel(members).apply(q))
        assert peak <= 2.5 * out.nbytes
        mean = np.mean([m.apply(q) for m in members], axis=0)
        assert out.tobytes() == (mean / mean.sum(axis=1, keepdims=True)).tobytes()


class TestChunkedApply:
    """Applies run a row chunk at a time and give the bytes of one call of
    the method on the whole input."""

    N, K = 20_000, 10

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(24)
        q = random_simplex(rng, self.N, self.K)
        z = 2.0 * rng.normal(size=(self.N, self.K))
        assert len(_chunks(self.N, self.K)) >= 3
        return {"probabilities": (q, sample_labels_from_rows(rng, q)),
                "logits": (z, sample_labels_from_rows(rng, softmax(z, axis=1)))}

    @staticmethod
    def whole(model, X):
        return method_spec(model.method).apply(model.params, X, model.clip_floor)

    @pytest.mark.parametrize("method", METHODS)
    def test_single_model_matches_whole_array(self, data, method):
        X, y = data[METHOD_INPUT[method]]
        model = fit_calibrator(method, X[:500], y[:500], method_spec(method).defaults)
        want = self.whole(model, X)
        assert model.apply(X).tobytes() == want.tobytes()
        inplace = X.copy()
        assert model.apply(inplace, out=inplace) is inplace
        assert inplace.tobytes() == want.tobytes()
        for row in (X[0], X[-1]):
            got = model.apply(row)
            assert got.shape == row.shape
            assert got.tobytes() == self.whole(model, row).tobytes()
            assert model.apply(row, out=row.copy()).tobytes() == got.tobytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_ensemble_matches_whole_array(self, data, method):
        X, y = data[METHOD_INPUT[method]]
        members = [fit_calibrator(method, X[f:600:3], y[f:600:3], method_spec(method).defaults)
                   for f in range(3)]
        ensemble = EnsembleModel(members)
        mean = np.mean([self.whole(m, X) for m in members], axis=0)
        want = mean / mean.sum(axis=1, keepdims=True)
        assert ensemble.apply(X).tobytes() == want.tobytes()
        inplace = X.copy()
        assert ensemble.apply(inplace, out=inplace).tobytes() == want.tobytes()
        row_mean = np.mean([self.whole(m, X[7]) for m in members], axis=0)
        assert ensemble.apply(X[7]).tobytes() == (row_mean / row_mean.sum()).tobytes()

    def test_layers_give_out_of_place_bytes(self, data):
        # The softmax layers work in place in their own arrays.
        (q, y), (z, labels) = data["probabilities"], data["logits"]
        dirichlet = fit_calibrator("dirichlet_l2", q[:500], y[:500], {"lam": 1e-3})
        W, b = dirichlet.params.W, dirichlet.params.b
        want = softmax(log_transform(clip_probabilities(q, dirichlet.clip_floor)) @ W.T + b, axis=1)
        assert dirichlet.apply(q).tobytes() == want.tobytes()
        matrix = fit_calibrator("matrix_odir", z[:500], labels[:500], {"lam": 1e-2, "mu": 1e-2})
        W, b = matrix.params.W, matrix.params.b
        assert matrix.apply(z).tobytes() == softmax(z @ W.T + b, axis=1).tobytes()
        temperature = fit_calibrator("temperature", z[:500], labels[:500])
        want = softmax(z / temperature.params.t, axis=1)
        assert temperature.apply(z).tobytes() == want.tobytes()

    def test_one_chunk_without_out_makes_no_copy(self, data):
        q, y = data["probabilities"]
        model = fit_calibrator("uncalibrated", q[:500], y[:500])
        _, whole = traced_peak(lambda: self.whole(model, q[:500]))
        out, peak = traced_peak(lambda: model.apply(q[:500]))
        assert peak < whole + out.nbytes / 2

    def test_invalid_input_raises_the_whole_array_error_and_writes_nothing(self, data):
        q, y = data["probabilities"]
        model = fit_calibrator("ovr_isotonic", q[:500], y[:500])
        bad = q.copy()
        bad[3, 0] += 2e-9
        bad[-3, 0] += 5e-9
        with pytest.raises(ValueError, match=r"worst deviation 5e-09"):
            self.whole(model, bad)
        out = bad.copy()
        with pytest.raises(ValueError, match=r"worst deviation 5e-09"):
            model.apply(bad, out=out)
        assert out.tobytes() == bad.tobytes()

    def test_in_place_apply_holds_little_beside_its_input(self):
        # n = 10^4, k = 100: the map holds one row chunk's working arrays.
        rng = np.random.default_rng(2019)
        q = peaked_simplex(rng, 10_000, 100)
        y = sample_labels_from_rows(rng, q)
        dirichlet = [CalibratorModel(method="dirichlet_l2", k=100, params=LinearParams(
            W=np.eye(100) + 0.01 * rng.normal(size=(100, 100)), b=0.1 * rng.normal(size=100)))
            for _ in range(3)]
        models = [dirichlet[0], fit_calibrator("ovr_isotonic", q[:2000], y[:2000]),
                  EnsembleModel(dirichlet)]
        for model in models:
            want = model.apply(q)
            X = q.copy()
            out, peak = traced_peak(lambda: model.apply(X, out=X))
            assert out is X and X.tobytes() == want.tobytes()
            assert peak <= 0.25 * q.nbytes, model.method


class TestSerialization:
    @pytest.mark.parametrize("method,hyper", PROB_METHODS)
    def test_roundtrip_probability_methods(self, prob_data, method, hyper):
        q, y = prob_data
        model = fit_calibrator(method, q, y, hyper, label_names=["a", "b", "c"], seed=5)
        restored = model_from_dict(model.to_dict())
        np.testing.assert_allclose(restored.apply(q), model.apply(q), atol=0)
        assert restored.label_names == ["a", "b", "c"]
        assert restored.hyperparams == hyper
        assert restored.seed == 5

    @pytest.mark.parametrize("method,hyper", LOGIT_METHODS)
    def test_roundtrip_logit_methods(self, logit_data, method, hyper):
        z, y = logit_data
        model = fit_calibrator(method, z, y, hyper)
        restored = model_from_dict(model.to_dict())
        np.testing.assert_allclose(restored.apply(z), model.apply(z), atol=0)

    def test_json_roundtrip_is_exact(self, prob_data):
        import json

        q, y = prob_data
        model = fit_calibrator("dirichlet_l2", q, y, {"lam": 1e-3})
        blob = json.dumps(model.to_dict())
        restored = model_from_dict(json.loads(blob))
        np.testing.assert_array_equal(restored.params.W, model.params.W)
        np.testing.assert_array_equal(restored.params.b, model.params.b)

    def test_isotonic_json_roundtrip_is_bit_equal(self, tied_data):
        import json

        q, y = tied_data
        model = fit_calibrator("ovr_isotonic", q, y)
        restored = model_from_dict(json.loads(json.dumps(model.to_dict())))
        # The training rows sit exactly on every per-score breakpoint, the
        # merged ones included; the extra rows lie below the first and above
        # the last breakpoint of each class.
        edge = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.001, 0.004, 0.995], [0.5, 0.25, 0.25]])
        for X in (q, edge):
            assert restored.apply(X).tobytes() == model.apply(X).tobytes()
        for fitted, loaded in zip(model.params.maps, restored.params.maps):
            bp = fitted.breakpoints
            s = np.concatenate([bp, (bp[:-1] + bp[1:]) / 2, [bp[0] - 1e-3, -1.0, bp[-1] + 1e-3,
                                                             2.0, -np.inf, np.inf, np.nan]])
            assert loaded.predict(s).tobytes() == fitted.predict(s).tobytes()

    def test_isotonic_json_stores_one_entry_per_value_run(self, tied_data):
        q, y = tied_data
        model = fit_calibrator("ovr_isotonic", q, y)
        stored = model.to_dict()["params"]["maps"]
        for j, (fitted, entry) in enumerate(zip(model.params.maps, stored)):
            # The per-score map of the same class column is the reference.
            reference = fit_isotonic(q[:, j], (y == j).astype(float))
            runs = 1 + np.count_nonzero(np.diff(reference.values))
            assert len(entry["breakpoints"]) == len(entry["values"]) == runs
            assert runs < reference.breakpoints.size
            assert np.all(np.diff(entry["values"]) > 0.0)
            assert entry["breakpoints"][0] == reference.breakpoints[0]
            assert set(entry["breakpoints"]) <= set(reference.breakpoints.tolist())
            assert fitted.breakpoints.tolist() == entry["breakpoints"]
            assert fitted.values.tolist() == entry["values"]
            bp = reference.breakpoints
            s = np.concatenate([bp, (bp[:-1] + bp[1:]) / 2, [-np.inf, np.inf, np.nan]])
            assert fitted.predict(s).tobytes() == reference.predict(s).tobytes()

    def test_isotonic_per_score_document_still_loads(self):
        # One entry per distinct score, as model files were once written.
        maps = [
            {"type": "isotonic", "breakpoints": [0.1, 0.2, 0.3, 0.4, 0.6],
             "values": [0.0, 0.0, 0.5, 0.5, 1.0]},
            {"type": "isotonic", "breakpoints": [0.4, 0.6, 0.7, 0.8, 0.9],
             "values": [0.25, 0.25, 0.25, 0.75, 0.75]},
        ]
        doc = {"schema": "probcal-model-v1", "type": "single", "method": "ovr_isotonic",
               "k": 2, "input": "probabilities", "labels": ["0", "1"],
               "params": {"kind": "isotonic", "maps": maps}, "hyperparams": {},
               "clip_floor": 2.2e-308, "seed": None, "created": None}
        loaded = model_from_dict(doc)
        in_memory = CalibratorModel(
            method="ovr_isotonic", k=2,
            params=OneVsRestModel("isotonic", tuple(
                IsotonicMap(np.array(m["breakpoints"]), np.array(m["values"])) for m in maps)))
        s = np.array([0.0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0])
        X = np.column_stack([s, 1.0 - s])
        assert loaded.apply(X).tobytes() == in_memory.apply(X).tobytes()
        raw0 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        raw1 = np.array([0.75, 0.75, 0.75, 0.75, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25,
                         0.25, 0.25, 0.25])
        expected = np.column_stack([raw0, raw1]) / (raw0 + raw1)[:, None]
        assert loaded.apply(X).tobytes() == expected.tobytes()

    def test_rejects_bad_schema(self):
        with pytest.raises(ValueError):
            model_from_dict({"schema": "other", "type": "single"})

    def test_rejects_params_for_another_k(self):
        doc = {"schema": "probcal-model-v1", "type": "single", "method": "dirichlet_l2",
               "k": 3, "params": {"W": np.eye(2).tolist(), "b": [0.0, 0.0]}}
        with pytest.raises(ValueError, match="2 classes"):
            model_from_dict(doc)

    @pytest.mark.parametrize("doc", [
        ["x"],
        {"schema": "probcal-model-v1", "type": "ensemble", "members": ["x"]},
        {"schema": "probcal-model-v1", "type": "ensemble", "members": [None]},
    ])
    def test_rejects_non_object_documents(self, doc):
        with pytest.raises(ValueError, match="not a calibrator model document"):
            model_from_dict(doc)

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            model_from_dict({"schema": "probcal-model-v1", "type": "stack"})


class TestEnsemble:
    def test_prediction_is_renormalized_mean(self, prob_data):
        q, y = prob_data
        members = [
            fit_calibrator("dirichlet_l2", q[i::3], y[i::3], {"lam": 1e-3}) for i in range(3)
        ]
        ensemble = EnsembleModel(members=members)
        outputs = np.stack([m.apply(q) for m in members])
        expected = outputs.mean(axis=0)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(ensemble.apply(q), expected, atol=1e-12)
        np.testing.assert_allclose(ensemble.apply(q).sum(axis=1), 1.0, atol=1e-9)

    def test_roundtrip(self, prob_data):
        q, y = prob_data
        members = [fit_calibrator("ovr_beta", q[i::2], y[i::2], {}) for i in range(2)]
        ensemble = EnsembleModel(members=members)
        restored = model_from_dict(ensemble.to_dict())
        np.testing.assert_allclose(restored.apply(q), ensemble.apply(q), atol=0)

    def test_rejects_mixed_methods(self, prob_data):
        q, y = prob_data
        with pytest.raises(ValueError, match="share"):
            EnsembleModel(members=[
                fit_calibrator("dirichlet_l2", q, y, {"lam": 1e-3}),
                fit_calibrator("ovr_beta", q, y, {}),
            ])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EnsembleModel(members=[])


def test_method_input_covers_all_methods():
    assert set(METHOD_INPUT.values()) == {"probabilities", "logits"}
    assert len(METHOD_INPUT) == 10
