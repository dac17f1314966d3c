"""Check bodies that draw or evaluate over all their samples at once:
`levi/*/bracket-fd` evaluates each frame field once over a stencil of every
base point; `groupoid/*/axioms` draws its tuples from one array of uniforms
and composes once; `chart-roundtrip` and `rs-jacobian` draw from one array
of uniforms, and rs-jacobian takes every source Jacobian in one call.  Each
must equal the per-sample loop it replaced bit for bit; the loops below are
those loop bodies, run on today's fields and generators.  Each check that
sweeps, draws or composes makes one call for all its points (pinned below).

Also here: bracket-fd is able to fail, on a Levi matrix scaled by 1 + 1e-3."""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from heisgeom import approx, groupoid
from heisgeom.fields import LeviForm, VectorField
from heisgeom.group import dilate, weight_vector
from heisgeom.groupoid import GroupoidChart
from heisgeom.manifests import Manifest, builtin_names, load_doc
from heisgeom.suites import SuiteRunner, _elements, bracket_fd_residuals, chart_draws, composable_tuples, rng_for

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "heisbench"))
from workloads import scale_h7_doc  # noqa: E402

H = 1e-5  # the step of levi/*/bracket-fd


def _runner(manifest_name, seed=42):
    doc = scale_h7_doc(seed) if manifest_name == "scale-h7" else load_doc(manifest_name)
    return SuiteRunner(Manifest.from_dict(doc, seed=seed))


CHARTS = [(m, c.name) for m in builtin_names() + ["scale-h7"] for c in _runner(m).manifest.charts]


# ---- the per-sample loops the check bodies replaced --------------------------


def bracket_fd_loop(frame, levi, pts, h):
    diffs = []
    for m, L in zip(pts, levi.matrix(pts)):
        basis = frame.basis_at(m)
        for j in range(1, frame.dim):
            for k in range(j + 1, frame.dim):
                Xj, Xk = frame.fields[j], frame.fields[k]
                J_k = np.zeros((frame.dim, frame.dim))
                J_j = np.zeros((frame.dim, frame.dim))
                for a in range(frame.dim):
                    e = np.zeros(frame.dim)
                    e[a] = h
                    J_k[:, a] = (Xk(m + e) - Xk(m - e)) / (2 * h)
                    J_j[:, a] = (Xj(m + e) - Xj(m - e)) / (2 * h)
                br = J_k @ Xj(m) - J_j @ Xk(m)
                omega = np.linalg.solve(basis, br)
                diffs.append(omega[0] - L[j - 1, k - 1])
    return np.array(diffs)


def axioms_tuple_loop(rng, p0, n):
    dim = len(p0)
    rows1, rows2 = [], []
    for _ in range(n):
        if rng.uniform() < 0.5:
            p, mm, q = rng.uniform(-1, 1, (3, dim))
            t = float(rng.uniform(0.1, 2.0))
            rows1.append((p, mm, t))
            rows2.append((mm, q, t))
        else:
            p = p0 + rng.uniform(-0.5, 0.5, dim)
            X, Y = rng.uniform(-1, 1, (2, dim))
            rows1.append((p, X, 0.0))
            rows2.append((p, Y, 0.0))
    return _elements(rows1), _elements(rows2)


def chart_draws_loop(rng, p0, n, t_lo, t_hi):
    """The draws of chart-roundtrip (and, with t as a float, rs-jacobian)."""
    dim = len(p0)
    return _elements([(p0 + rng.uniform(-0.3, 0.3, dim), rng.uniform(-1, 1, dim), rng.uniform(t_lo, t_hi)) for _ in range(n)])


def source_jacobian_loop(chart, x, X, t):
    """GroupoidChart.source_jacobian as it took one (x, X, t)."""
    dim = chart.dim
    Dinv = chart.eps(x).inverse_polymap(2).jacobian(dilate(t, X))
    wvec = weight_vector(dim)
    Js = np.zeros((dim + 1, dim + 1))
    Js[:dim, :dim] = Dinv @ np.diag(t**wvec)
    Js[:dim, dim] = Dinv @ (wvec * t ** (wvec - 1.0) * X)
    Js[dim, dim] = 1.0
    return Js


# ---- bracket-fd ------------------------------------------------------------------


def _bracket_fd_inputs(manifest_name, chart_name):
    runner = _runner(manifest_name)
    return runner.manifest.chart(chart_name).frame, runner._levi[chart_name], runner.base_points(chart_name, limit=4)


@pytest.mark.parametrize("manifest_name, chart_name", CHARTS)
def test_bracket_fd_equals_the_one_point_loop(manifest_name, chart_name):
    frame, levi, pts = _bracket_fd_inputs(manifest_name, chart_name)
    got = bracket_fd_residuals(frame, levi, pts, H)
    want = bracket_fd_loop(frame, levi, pts, H)
    assert got.shape == (len(pts), (frame.dim - 1) * (frame.dim - 2) // 2)
    assert np.array_equal(got.ravel(), want)


@pytest.mark.parametrize("manifest_name, chart_name", [c for c in CHARTS if c[0] != "scale-h7"])
def test_eval_many_on_the_stencil_equals_one_point_eval(manifest_name, chart_name):
    # The batched bracket-fd rests on this: a (P, K, dim) batch of stencil
    # points gives every builtin frame field's one-point values.  It is not a
    # rule of `eval_many`: a batch takes one gemv per stack, a point one dot,
    # and on scale-h7's c7 six of the 2,940 stencil values differ in the last
    # bit.  All six are X_j^0 at m - h e_j, for j = 2, 3; the bracket
    # multiplies d_j X_j only by X_k^j (k != j), which is zero on c7, so
    # bracket-fd still equals the loop there (test above).
    frame, _, pts = _bracket_fd_inputs(manifest_name, chart_name)
    steps = [np.zeros(frame.dim)] + [s * H * e for s in (1, -1) for e in np.eye(frame.dim)]
    stencil = np.array([[m + e for e in steps] for m in pts])
    for field in frame.fields:
        got = field.eval_many(stencil)
        want = np.array([[field(x) for x in row] for row in stencil])
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_bracket_fd_evaluates_each_field_once(monkeypatch):
    runner = _runner("heisenberg5")
    calls = []
    eval_many = VectorField.eval_many

    def counted(self, pts):
        calls.append(np.shape(pts))
        return eval_many(self, pts)

    def one_point(self, x):
        raise AssertionError("bracket-fd evaluated a field at one point")

    monkeypatch.setattr(VectorField, "eval_many", counted)
    monkeypatch.setattr(VectorField, "__call__", one_point)
    (body,) = [c for c in runner.collect("levi") if c[0] == "levi/hb5/bracket-fd"]
    assert runner.record(*body).verdict == "pass"
    dim = runner.manifest.dim
    assert calls == [(4, 2 * dim + 1, dim)] * dim


@pytest.mark.parametrize("manifest_name, chart_name", [c for c in CHARTS if c[0] != "scale-h7"])
def test_bracket_fd_fails_on_a_scaled_levi_matrix(monkeypatch, manifest_name, chart_name):
    matrix = LeviForm.matrix
    monkeypatch.setattr(LeviForm, "matrix", lambda self, m: matrix(self, m) * (1 + 1e-3))
    runner = _runner(manifest_name)
    (body,) = [c for c in runner.collect("levi") if c[0] == f"levi/{chart_name}/bracket-fd"]
    rec = runner.record(*body)
    if chart_name == "flat":
        # foliation-flat has L = 0: a scaled zero is still zero, and the check passes
        assert rec.verdict == "pass"
        assert rec.residuals == (0.0,)
    else:
        assert rec.verdict == "fail"
        assert rec.residuals[0] == pytest.approx(2e-3, rel=1e-3)


# ---- groupoid axioms ------------------------------------------------------------


def test_composable_tuples_equal_the_per_tuple_loop():
    # pins NumPy's uniform(lo, hi) = lo + (hi - lo) * next_double: if that
    # changes, this fails rather than the reports drifting
    start = time.perf_counter()
    for seed in (0, 7, 42):
        for manifest_name, chart_name in CHARTS:
            runner = _runner(manifest_name, seed)
            p0 = runner.base_points(chart_name, limit=1)[0]
            n = int(runner.manifest.samples["tuples"])
            key = f"groupoid/{chart_name}/axioms"
            got = composable_tuples(rng_for(seed, key), p0, n)
            want = axioms_tuple_loop(rng_for(seed, key), p0, n)
            for g, w in zip(got, want):
                for a, b in zip(g, w):
                    assert a.shape == b.shape and a.dtype == b.dtype
                    assert np.array_equal(a, b)
    assert time.perf_counter() - start < 1.0



def test_one_compose_equals_the_three_composes_of_the_axioms():
    for seed in (0, 42):
        for manifest_name, chart_name in CHARTS:
            runner = _runner(manifest_name, seed)
            chart = runner.charts[chart_name]
            p0 = runner.base_points(chart_name, limit=1)[0]
            g1, g2 = composable_tuples(rng_for(seed, f"groupoid/{chart_name}/axioms"), p0, 50)
            rights = g2, chart.iota(*chart.source_of(g1)), chart.inverse(g1)
            p, v, t = chart.compose(g1, [np.stack(a) for a in zip(*rights)])
            for v_one, e2 in zip(v, rights):
                want = chart.compose(g1, e2)
                assert [a.tobytes() for a in (p, v_one, t)] == [a.tobytes() for a in want]


# ---- chart draws and the source Jacobians -----------------------------------------


@pytest.mark.parametrize("n, t_lo, t_hi", [(25, 0.05, 0.5), (8, 0.1, 1.0)], ids=["roundtrip", "rs-jacobian"])
def test_chart_draws_equal_the_per_draw_loop(n, t_lo, t_hi):
    for seed in (0, 7, 42):
        for manifest_name, chart_name in CHARTS:
            runner = _runner(manifest_name, seed)
            p0 = runner.base_points(chart_name, limit=1)[0]
            got = chart_draws(rng_for(seed, chart_name), p0, n, t_lo, t_hi)
            want = chart_draws_loop(rng_for(seed, chart_name), p0, n, t_lo, t_hi)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("manifest_name, chart_name", CHARTS)
def test_source_jacobians_of_a_batch_equal_the_per_draw_loop(manifest_name, chart_name):
    runner = _runner(manifest_name)
    chart = runner.charts[chart_name]
    x, X, t = chart_draws(rng_for(42, f"groupoid/{chart_name}/rs"), runner.base_points(chart_name, limit=1)[0], 8, 0.1, 1.0)
    got = chart.source_jacobian(x, X, t)
    want = np.array([source_jacobian_loop(chart, *a) for a in zip(x, X, t.tolist())])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert chart.source_jacobian(x[0], X[0], t[0]).tobytes() == want[0].tobytes()
    dets = np.linalg.det(got)
    assert dets.tobytes() == np.array([np.linalg.det(J) for J in want]).tobytes()


# ---- one call per construction ------------------------------------------------------


def _count(monkeypatch, calls, owner, name):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("manifest_name", ["heisenberg3", "contact-darboux", "heisenberg5"])
def test_each_check_makes_one_call_for_all_its_points(monkeypatch, manifest_name):
    # the loops these bodies replaced made one sweep call per base point
    # (4 for rate and uniformity, 3 for transition-limit, composition-limit
    # and psi-claim), one source_jacobian per draw (8) and, in axioms, three
    # composes, each with its own Heisenberg maps
    runner = _runner(manifest_name)
    calls = {}
    for owner, name in (
        (approx, "diffeo_expansion_check"),
        (approx, "heisenberg_map"),
        (groupoid, "composition_limit_check"),
        (groupoid, "psi_composition_check"),
        (groupoid, "heisenberg_map"),
        (GroupoidChart, "source_jacobian"),
    ):
        _count(monkeypatch, calls, owner, name)
    bodies = {c[0]: c for suite in ("diffeo", "groupoid") for c in runner.collect(suite)}
    expected = {"axioms": {"heisenberg_map": 1}, "rs-jacobian": {"source_jacobian": 1, "heisenberg_map": 1}}
    # composition: eps at the base points, then at the middle points of every point and t
    expected["composition-limit"] = {"composition_limit_check": 1, "heisenberg_map": 2}
    expected["psi-claim"] = {"psi_composition_check": 1, "heisenberg_map": 2}
    for chart in runner.manifest.charts:
        for kind, want in expected.items():
            calls.clear()
            assert runner.record(*bodies[f"groupoid/{chart.name}/{kind}"]).verdict == "pass"
            assert calls == want, kind
    preserving = [spec.name for spec in runner.manifest.diffeos if f"diffeo/{spec.name}/rate" in bodies]
    assert bool(preserving) == (manifest_name != "heisenberg5")
    for name in preserving:
        # rate and uniformity share one sweep, transition-limit makes the
        # other; each builds eps at the base points and at their images
        calls.clear()
        for check_id in (f"diffeo/{name}/rate", f"diffeo/{name}/uniformity", f"groupoid/{name}/transition-limit"):
            assert runner.record(*bodies[check_id]).verdict == "pass"
        assert calls == {"diffeo_expansion_check": 2, "heisenberg_map": 4}
