"""The four per-point coordinate checks run over all their base points at
once: `coords/*/normalization`, `model-fields`, `model-structure` and
`shear-grading` build their jets with one batched call each, through
`PolyMap.compose` with leading batch axes.  Each batched table must equal
the per-point loop it replaced bit for bit; the loops below are those check
bodies, one base point at a time.

They run on every builtin chart, on scale-h7's c7, and on a pushed
Heisenberg frame with non-dyadic coefficients, whose jets carry real
rounding; on a batch of one, and on a batch in which one point has a zero
coordinate, so that its tables are sparser than its neighbours'.  Tables are
compared byte for byte, so a -0.0 where the loop has +0.0 fails."""

import sys
from pathlib import Path

import numpy as np
import pytest

from heisgeom import coords, fields
from heisgeom.coords import heisenberg_map, privileged_frame
from heisgeom.fields import bracket, pushforward_field
from heisgeom.fields import VectorField
from heisgeom.jets import PolyMap
from heisgeom.manifests import Manifest, builtin_names, load_doc, load_manifest
from heisgeom.suites import SuiteRunner, run_suites

from conftest import exponent_index, unit_exp, vertical_shear_diffeo
from test_fields import reference_bracket, reference_pushforward

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "heisbench"))
from workloads import scale_h7_doc  # noqa: E402


def _runner(manifest_name, seed=42):
    doc = scale_h7_doc(seed) if manifest_name == "scale-h7" else load_doc(manifest_name)
    return SuiteRunner(Manifest.from_dict(doc, seed=seed))


def _frames():
    """(label, frame, base points): every builtin chart and c7 with the eight
    base points of the checks, and the pushed frame on a grid of its box."""
    out = []
    for name in builtin_names() + ["scale-h7"]:
        runner = _runner(name)
        for chart in runner.manifest.charts:
            out.append((f"{name}-{chart.name}", chart.frame, runner.base_points(chart.name, limit=8)))
    _, _, pushed = vertical_shear_diffeo({(0, 2, 0): 0.7, (0, 1, 1): 0.3})
    out.append(("pushed-0.7-0.3", pushed, pushed.domain.shrunk(0.4).grid(2)))
    return out


FRAMES = _frames()


def _batches(pts):
    """The check's points; a batch of one; and three points, the middle one
    with its last coordinate zero."""
    zero = pts[1].copy()
    zero[-1] = 0.0
    return {"points": pts, "one": pts[:1], "zero-coordinate": np.array([pts[0], zero, pts[2]])}


CASES = [(label, frame, kind, pts) for label, frame, p in FRAMES for kind, pts in _batches(p).items()]
IDS = [f"{label}-{kind}" for label, _, kind, _ in CASES]


def same_bits(a, b):
    """Equal bit for bit; np.array_equal would also accept -0.0 for +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def at_point(pm, i):
    """Map i of a batched map, as a map of batch shape ()."""
    return PolyMap._of(pm.space, pm.coeffs[i], pm.base[i])


# ---- the per-point loops the check bodies replaced ----------------------------------


def shear_polymap_loop(c, order):
    """The shear's table as a loop over (j, k): c_jk / 2 added onto the
    identity's +0.0 in the column of x_j x_k."""
    dim = len(c) + 1
    ident = PolyMap.identity(dim, order)
    table = ident.coeffs.copy()
    index = exponent_index(ident.space)
    for j in range(1, dim):
        for k in range(1, dim):
            e = tuple(a + b for a, b in zip(unit_exp(dim, j), unit_exp(dim, k)))
            table[0, index[e]] += 0.5 * c[j - 1, k - 1]
    return table


def normalization_loop(frame, pts):
    pushed = [privileged_frame(frame, m) for m in pts]
    at0 = np.array([[X(np.zeros(frame.dim)) for X in fr] for fr in pushed])
    b = np.array([[X.components.linear()[0, 1:] for X in fr[1:]] for fr in pushed])
    return pushed, at0, b


def pushed_model_fields_loop(frame, pts, order=4):
    out = []
    for m in pts:
        hm = heisenberg_map(frame, m)
        fwd, inv = hm.shear.as_polymap(order), hm.shear_inv.as_polymap(order)
        out.append([pushforward_field(fwd, inv, Xu, order=order) for Xu in hm.dilation_model_frame(order)])
    return out


def model_structure_loop(frame, pts):
    parts = []
    for m in pts:
        hm = heisenberg_map(frame, m)
        model = hm.dilation_model_frame(3)
        for j in range(1, frame.dim):
            for k in range(1, frame.dim):
                got = bracket(model[j], model[k]).components.coeffs.copy()
                got[0, 0] -= hm.levi[j - 1, k - 1]
                parts.append(got)
    return parts


# ---- batched equals per point ---------------------------------------------------------


@pytest.mark.parametrize("label, frame, kind, pts", CASES, ids=IDS)
def test_privileged_frame_batch_equals_the_loop(label, frame, kind, pts):
    batched = privileged_frame(frame, pts)
    pushed, at0, b = normalization_loop(frame, pts)
    for j, X in enumerate(batched):
        assert X.components.coeffs.shape == (len(pts), frame.dim, X.components.space.size)
        np.testing.assert_array_equal(X.components.base, np.zeros((len(pts), frame.dim)))
        for i, fr in enumerate(pushed):
            assert same_bits(X.components.coeffs[i], fr[j].components.coeffs)
    # the check reads X_j(0) as the constant column and b from the linear part
    assert same_bits(np.stack([X.components.constant() for X in batched], axis=-2), at0)
    assert same_bits(np.stack([X.components.linear()[..., 0, 1:] for X in batched[1:]], axis=-2), b)


@pytest.mark.parametrize("label, frame, kind, pts", CASES, ids=IDS)
def test_shear_and_heisenberg_polymaps_batch_equal_the_loop(label, frame, kind, pts):
    hm = heisenberg_map(frame, pts)
    for order in (2, 4):
        for got, per_point in (
            (hm.shear.as_polymap(order), lambda h: h.shear.as_polymap(order)),
            (hm.shear_inv.as_polymap(order), lambda h: h.shear_inv.as_polymap(order)),
            (hm.as_polymap(order), lambda h: h.as_polymap(order)),
            (hm.inverse_polymap(order), lambda h: h.inverse_polymap(order)),
        ):
            for i, m in enumerate(pts):
                want = per_point(heisenberg_map(frame, m))
                assert same_bits(got.coeffs[i], want.coeffs)
                assert same_bits(got.base[i], want.base)
    # shear-grading reads the batch in one call
    violation = coords.graded_weight_violation(hm.shear.as_polymap(2))
    loop = max(coords.graded_weight_violation(heisenberg_map(frame, m).shear.as_polymap(2)) for m in pts)
    assert violation == loop == 0.0


@pytest.mark.parametrize("label, frame, kind, pts", CASES, ids=IDS)
def test_shear_polymaps_equal_the_loop_over_pairs(label, frame, kind, pts):
    # c = -(b + b^T) / 2 is -0.0 wherever b + b^T is +0.0: b_jj = 0 on a
    # Heisenberg frame, all of b on a flat one; the loop's table holds +0.0 there
    hm = heisenberg_map(frame, pts)
    for shear in (hm.shear, hm.shear_inv):
        for order in (2, 4):
            got = shear.as_polymap(order).coeffs
            for i in range(len(pts)):
                assert same_bits(got[i], shear_polymap_loop(shear.c[i], order))


@pytest.mark.parametrize("label, frame, kind, pts", CASES, ids=IDS)
def test_model_frame_pushforwards_and_brackets_equal_the_all_j_references(label, frame, kind, pts):
    # pushforward_field and bracket leave out the j-blocks whose X^j is zero
    # at every point of the batch; the model fields have such rows, and the
    # references form every block, one jet product at a time
    hm = heisenberg_map(frame, pts)
    order = 4
    fwd, inv = hm.shear.as_polymap(order), hm.shear_inv.as_polymap(order)
    for Xu in hm.dilation_model_frame(order):
        got = pushforward_field(fwd, inv, Xu, order=order).components.coeffs
        for i in range(len(pts)):
            want = reference_pushforward(at_point(fwd, i), at_point(inv, i), VectorField(at_point(Xu.components, i)))
            assert same_bits(got[i], want)
    model = hm.dilation_model_frame(3)
    for j in range(1, frame.dim):
        for k in range(1, frame.dim):
            got = bracket(model[j], model[k]).components.coeffs
            for i in range(len(pts)):
                want = reference_bracket(*(VectorField(at_point(X.components, i)) for X in (model[j], model[k])))
                assert same_bits(got[i], want)


@pytest.mark.parametrize("label, frame, kind, pts", CASES, ids=IDS)
def test_pushed_model_fields_batch_equal_the_loop(label, frame, kind, pts):
    order = 4
    hm = heisenberg_map(frame, pts)
    fwd, inv = hm.shear.as_polymap(order), hm.shear_inv.as_polymap(order)
    batched = [pushforward_field(fwd, inv, Xu, order=order) for Xu in hm.dilation_model_frame(order)]
    for i, fields_at_m in enumerate(pushed_model_fields_loop(frame, pts)):
        for got, want in zip(batched, fields_at_m):
            assert same_bits(got.components.coeffs[i], want.components.coeffs)
    residual = hm.pushed_model_residual()
    assert residual == max(heisenberg_map(frame, m).pushed_model_residual() for m in pts)
    assert residual < 1e-10


@pytest.mark.parametrize("label, frame, kind, pts", CASES, ids=IDS)
def test_model_structure_brackets_batch_equal_the_loop(label, frame, kind, pts):
    hm = heisenberg_map(frame, pts)
    model = hm.dilation_model_frame(3)
    want = iter(model_structure_loop(frame, pts))
    batched = []
    for j in range(1, frame.dim):
        for k in range(1, frame.dim):
            got = bracket(model[j], model[k]).components.coeffs.copy()
            got[..., 0, 0] -= hm.levi[..., j - 1, k - 1]
            batched.append(got)
    # the loop runs point-major, the batch pair-major
    per_point = np.array(list(want)).reshape(len(pts), len(batched), frame.dim, -1)
    for n, got in enumerate(batched):
        assert same_bits(got, per_point[:, n])


def test_check_bodies_make_one_batched_call_per_check(monkeypatch):
    # heisenberg5's coords suite: b-levi, normalization, model-fields,
    # model-structure and shear-grading build one HeisenbergMap each, for
    # all their base points, and each dilation check one, which its model
    # field reads too.  normalization pushes the 5 frame fields and
    # model-fields the 5 dilation limits once each; each dilation check
    # pushes one field.  The per-point loops made 26 and 82 calls.
    calls = {"heisenberg_map": 0, "pushforward_field": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(coords, "heisenberg_map")
    counted(fields, "pushforward_field")
    counted(coords, "pushforward_field")
    records = run_suites(load_manifest("heisenberg5", seed=42), "coords")
    assert {rec.verdict for rec in records} == {"pass"}
    assert calls == {"heisenberg_map": 7, "pushforward_field": 12}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: darboux1's fixed +-0.3 sample radius leaves its domain")
def test_darboux1_chart_roundtrip_has_no_error_record_at_seed_46():
    # At seeds 46, 53 and 74 a gamma image of the roundtrip samples leaves
    # the [-60, 60]^3 domain of contact-darboux's darboux1 chart and the
    # record is `error`; samples in the chart's own units (item 15) mend it,
    # and this test then passes and must lose its xfail mark.
    runner = SuiteRunner(load_manifest("contact-darboux", seed=46))
    (body,) = [c for c in runner.collect("groupoid") if c[0] == "groupoid/darboux1/chart-roundtrip"]
    assert runner.record(*body).verdict == "pass"
