"""Model forward/backward tests.

The analytic gradients are validated against central finite differences,
and the weighted loss against a brute-force double loop, so the two code
paths fail independently if either is wrong.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from plasmalink.exceptions import NonFiniteError
from plasmalink.link import build_constellation
from plasmalink.seeding import role_rng
import plasmalink.net as net
from plasmalink.net import (
    Batch,
    _polar,
    adam_step,
    collect_params,
    decode,
    decode_curve,
    distances,
    encode,
    init_adam,
    init_model,
    loss_and_gradients,
    mlp_layers,
    mlp_order,
    param_count,
    project_all,
    symbol_transforms,
    weighted_loss,
    with_params,
)


def make_batch(model, m, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(m, 2))
    w = rng.uniform(0.1, 1.0, size=(m, model.order))
    w /= w.sum(axis=1, keepdims=True)
    return y, w


def finite_difference(model, y, w, idx, h=1e-6):
    """Central-difference dL/dtheta for one scalar coordinate."""
    params = collect_params(model).copy()
    params[idx] += h
    up = weighted_loss(with_params(model, params), y, w)
    params[idx] -= 2 * h
    down = weighted_loss(with_params(model, params), y, w)
    return (up - down) / (2 * h)


class TestTransforms:
    def test_qpsk_first_transform(self):
        t = symbol_transforms(build_constellation(2))
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(t[0], [[r, -r], [r, r]], atol=1e-15)

    def test_transform_is_complex_multiplication(self):
        const = build_constellation(2)
        t = symbol_transforms(const)
        z = 0.3 - 0.7j
        for k in range(4):
            got = t[k] @ np.array([z.real, z.imag])
            want = const.points[k] * z
            np.testing.assert_allclose(got, [want.real, want.imag],
                                       atol=1e-15)

    def test_psk_transforms_are_rotations(self):
        t = symbol_transforms(build_constellation(2))
        for k in range(4):
            np.testing.assert_allclose(t[k].T @ t[k], np.eye(2), atol=1e-15)


class TestForward:
    def test_zero_parameters_give_half_symbol(self):
        # all-zero weights: coordinate 0, radius sigmoid(0)=0.5, angle 0,
        # so every projection is 0.5 * x_k
        const = build_constellation(2)
        model = init_model(const, rng_seed=0)
        zeros = [np.zeros_like(p) for p in collect_params(model)]
        model = with_params(model, zeros)
        y = np.array([[1.3, -0.4]])
        for k in range(4):
            want = 0.5 * np.array([const.points[k].real,
                                   const.points[k].imag])
            np.testing.assert_allclose(project_all(model, y)[:, k], [want],
                                       atol=1e-15)
        np.testing.assert_allclose(
            project_all(model, y)[:, 0],
            [[0.3535533905932738, 0.3535533905932738]], rtol=1e-15)

    def test_curves_share_one_decoder(self):
        # with identical encoders, undoing T_k must give the same canonical
        # point for every symbol
        model = init_model(build_constellation(2), rng_seed=5)
        params = collect_params(model).copy()
        encoders = params[:model.decoder_slice.start].reshape(4, -1)
        encoders[1:] = encoders[0]
        model = with_params(model, params)
        y = np.array([[0.2, 0.9], [-1.1, 0.3]])
        proj = project_all(model, y)
        canonical = [np.linalg.solve(model.transforms[k].astype(float),
                                     proj[:, k].T).T
                     for k in range(4)]
        for k in range(1, 4):
            np.testing.assert_allclose(canonical[k], canonical[0],
                                       rtol=1e-12, atol=1e-14)

    def test_projection_magnitude_bounded_by_symbol(self):
        # |projection| = rho * |x_k| < |x_k| since rho is a sigmoid output
        model = init_model(build_constellation(2), rng_seed=31)
        y = np.random.default_rng(32).normal(scale=3.0, size=(200, 2))
        proj = project_all(model, y)
        for k in range(4):
            mags = np.linalg.norm(proj[:, k], axis=1)
            assert np.all(mags < 1.0 + 1e-12)

    def test_curve_samples_are_rigid_copies(self):
        model = init_model(build_constellation(2), rng_seed=33)
        lam = np.linspace(-2, 2, 9)
        curves = decode_curve(model, lam)
        assert curves.shape == (4, 9, 2)
        base = np.linalg.solve(model.transforms[0], curves[0].T).T
        for k in range(4):
            np.testing.assert_allclose(curves[k],
                                       base @ model.transforms[k].T,
                                       rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("init_std", [0.1, 2.0])
    def test_project_is_decode_of_encode(self, bits, init_std):
        # the SMN pass and the decode_curve helper share the polar head
        model = init_model(build_constellation(bits), rng_seed=bits,
                           init_std=init_std)
        y = np.random.default_rng(bits).normal(size=(64, 2))
        lam, proj = encode(model, y), project_all(model, y)
        assert lam.shape == (64, model.order)
        assert proj.shape == (64, model.order, 2)
        for k in range(model.order):
            curve = decode_curve(model, lam[:, k])[k]
            np.testing.assert_allclose(proj[:, k], curve,
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                proj[:, k], decode(model, lam[:, k]) @ model.transforms[k].T,
                rtol=0, atol=1e-15)

    def test_init_deterministic_per_seed(self):
        const = build_constellation(2)
        a = collect_params(init_model(const, rng_seed=9))
        b = collect_params(init_model(const, rng_seed=9))
        for x, z in zip(a, b):
            np.testing.assert_array_equal(x, z)
        c = collect_params(init_model(const, rng_seed=10))
        assert any(not np.array_equal(x, z) for x, z in zip(a, c))


class TestPolarHead:
    def test_matches_cos_and_sin(self):
        # rho = 1, so the bound is absolute: 2 ulp of 1
        theta = np.concatenate([np.linspace(-60.0, 60.0, 200001),
                                np.arange(-38, 39) * (np.pi / 2)])
        rho = np.ones_like(theta)
        cart0, cart1 = np.empty_like(theta), np.empty_like(theta)
        _polar(rho, theta.copy(), cart0, cart1)
        assert np.max(np.abs(cart0 - np.cos(theta))) <= 4.5e-16
        assert np.max(np.abs(cart1 - np.sin(theta))) <= 4.5e-16


class TestLoss:
    def test_matches_brute_force(self):
        model = init_model(build_constellation(2), rng_seed=6)
        y, w = make_batch(model, 12, seed=7)
        proj = project_all(model, y)
        total = 0.0
        for i in range(12):
            for k in range(4):
                d = y[i] - proj[i, k]
                total += w[i, k] * float(d @ d)
        np.testing.assert_allclose(weighted_loss(model, y, w), total / 12,
                                   rtol=1e-12)

    def test_linear_in_weights(self):
        model = init_model(build_constellation(2), rng_seed=8)
        y, w1 = make_batch(model, 10, seed=9)
        _, w2 = make_batch(model, 10, seed=10)
        combo = weighted_loss(model, y, 0.3 * w1 + 0.7 * w2)
        parts = 0.3 * weighted_loss(model, y, w1) + \
            0.7 * weighted_loss(model, y, w2)
        np.testing.assert_allclose(combo, parts, rtol=1e-12)

    def test_one_hot_weights_reduce_to_mse(self):
        model = init_model(build_constellation(1), rng_seed=11)
        y, _ = make_batch(model, 8, seed=12)
        labels = np.random.default_rng(13).integers(0, 2, size=8)
        w = np.zeros((8, 2))
        w[np.arange(8), labels] = 1.0
        picked = project_all(model, y)[np.arange(8), labels]
        mse = float(np.mean(np.sum((y - picked) ** 2, axis=1)))
        np.testing.assert_allclose(weighted_loss(model, y, w), mse,
                                   rtol=1e-12)

    def test_hand_value_zero_param_bpsk(self):
        # zero-param curves project to (0.5, 0) and (-0.5, 0); for
        # y=(1.5, 0) the distances are 1 and 4, equal weights average 2.5
        model = init_model(build_constellation(1), rng_seed=14)
        model = with_params(model, [np.zeros_like(p)
                                    for p in collect_params(model)])
        y = np.array([[1.5, 0.0]])
        w = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(weighted_loss(model, y, w), 2.5,
                                   rtol=1e-14)

    def test_shape_validation(self):
        model = init_model(build_constellation(2), rng_seed=15)
        with pytest.raises(ValueError):
            weighted_loss(model, np.zeros((4, 3)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            weighted_loss(model, np.zeros((4, 2)), np.zeros((4, 3)))


class TestGradients:
    def test_matches_finite_differences(self):
        model = init_model(build_constellation(2), rng_seed=16)
        y, w = make_batch(model, 8, seed=17)
        loss, grads = loss_and_gradients(model, y, w)
        np.testing.assert_allclose(loss, weighted_loss(model, y, w),
                                   rtol=1e-12)
        rng = np.random.default_rng(18)
        for _ in range(60):
            idx = rng.integers(0, grads.size)
            num = finite_difference(model, y, w, idx)
            ana = grads[idx]
            rel = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
            assert rel < 1e-4, (idx, ana, num)

    def test_gradient_shapes_mirror_params(self):
        model = init_model(build_constellation(2), rng_seed=19)
        y, w = make_batch(model, 4, seed=20)
        _, grads = loss_and_gradients(model, y, w)
        params = collect_params(model)
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape

    def test_unused_encoder_gets_zero_gradient(self):
        # zero weight on symbol 2 everywhere: its encoder cannot matter
        model = init_model(build_constellation(2), rng_seed=21)
        y, w = make_batch(model, 6, seed=22)
        w[:, 2] = 0.0
        _, grads = loss_and_gradients(model, y, w)
        unused = grads[:model.decoder_slice.start].reshape(4, -1)[2]
        np.testing.assert_array_equal(unused, np.zeros_like(unused))

    def test_zero_weights_zero_gradient(self):
        model = init_model(build_constellation(2), rng_seed=34)
        y, _ = make_batch(model, 6, seed=35)
        loss, grads = loss_and_gradients(model, y, np.zeros((6, 4)))
        assert loss == 0.0
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_duplicated_half_weight_sample_matches_single(self):
        # loss is linear in W, so one sample at weight 1 equals the same
        # sample twice at weight 1/2 (batch mean folded into the weights)
        model = init_model(build_constellation(1), rng_seed=36)
        y = np.array([[0.4, -0.8]])
        w = np.array([[0.7, 0.3]])
        single = loss_and_gradients(model, y, w)
        doubled = loss_and_gradients(model, np.vstack([y, y]),
                                     np.vstack([w, w]))
        np.testing.assert_allclose(doubled[0], single[0], rtol=1e-14)
        for a, b in zip(doubled[1], single[1]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-18)

    def test_nonfinite_raises(self):
        model = init_model(build_constellation(1), rng_seed=23)
        params = collect_params(model).copy()
        params[0] = np.nan
        model = with_params(model, params)
        y, w = make_batch(model, 4, seed=24)
        with pytest.raises(NonFiniteError):
            loss_and_gradients(model, y, w)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = np.array([1.0])
        grads = np.array([2.0])
        new, state = adam_step(params, grads, init_adam(params),
                               learning_rate=1e-3)
        # mhat = g, vhat = g^2, so the step is lr * g / (|g| + eps)
        np.testing.assert_allclose(new[0], 1.0 - 1e-3 * 2.0 / (2.0 + 1e-8),
                                   rtol=1e-15)
        assert state.step == 1

    def test_zero_gradient_keeps_params(self):
        params = np.array([0.5, -0.25])
        grads = np.zeros(2)
        new, _ = adam_step(params, grads, init_adam(params))
        np.testing.assert_array_equal(new, params)

    def test_inputs_not_mutated(self):
        params = np.ones(3)
        grads = np.full(3, 0.7)
        state = init_adam(params)
        adam_step(params, grads, state)
        np.testing.assert_array_equal(params, np.ones(3))
        np.testing.assert_array_equal(state.first_moment, np.zeros(3))

    def test_fresh_state_reproduces_trajectory(self):
        model = init_model(build_constellation(1), rng_seed=25)
        y, w = make_batch(model, 16, seed=26)

        def run(steps):
            m = model
            st = init_adam(collect_params(m))
            for _ in range(steps):
                _, g = loss_and_gradients(m, y, w)
                p, st = adam_step(collect_params(m), g, st)
                m = with_params(m, p)
            return m

        a = run(5)
        b = run(5)
        for x, z in zip(collect_params(a), collect_params(b)):
            np.testing.assert_array_equal(x, z)

    def test_descends_on_fixed_batch(self):
        model = init_model(build_constellation(2), rng_seed=27)
        y, w = make_batch(model, 64, seed=28)
        before = weighted_loss(model, y, w)
        st = init_adam(collect_params(model))
        m = model
        for _ in range(50):
            _, g = loss_and_gradients(m, y, w)
            p, st = adam_step(collect_params(m), g, st)
            m = with_params(m, p)
        assert weighted_loss(m, y, w) < before


class TestWorkspaces:
    """The SMN kernel reuses per-shape buffers; results must not show it."""

    @staticmethod
    def cases():
        qpsk = init_model(build_constellation(2), rng_seed=40)
        psk16 = init_model(build_constellation(4), rng_seed=41)
        return [(qpsk, *make_batch(qpsk, 16, seed=42)),
                (qpsk, *make_batch(qpsk, 4096, seed=43)),
                (psk16, *make_batch(psk16, 1024, seed=44)),
                (qpsk, *make_batch(qpsk, 16, seed=45))]

    @staticmethod
    def run(model, y, w):
        loss, grads = loss_and_gradients(model, y, w)
        return loss, grads, project_all(model, y), encode(model, y)

    def test_interleaved_shapes_bit_identical(self):
        # references from a fresh thread; then n=16, n=4096, K=16, n=16
        # with other rows, n=16 again here
        cases = self.cases()
        fresh = []
        worker = threading.Thread(
            target=lambda: fresh.extend(self.run(*c) for c in cases))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(fresh) == len(cases)
        for _ in range(2):
            for case, want in zip(cases + cases[:1], fresh + fresh[:1]):
                got = self.run(*case)
                assert got[0] == want[0]
                for a, b in zip(got[1:], want[1:]):
                    np.testing.assert_array_equal(a, b)

    def test_threads_do_not_share_workspaces(self):
        # more threads than cores, switching often, all on the same shapes
        cases = self.cases()[:2]
        want = [self.run(*c) for c in cases]
        mismatches, done = [], []

        def work():
            for _ in range(10):
                for case, ref in zip(cases, want):
                    got = self.run(*case)
                    if got[0] != ref[0] or not all(
                            np.array_equal(a, b)
                            for a, b in zip(got[1:], ref[1:])):
                        mismatches.append(case[1].shape)
            done.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert len(done) == len(workers) and not mismatches

    def test_returned_arrays_are_fresh(self):
        (model, y, w), _, _, (_, y2, w2) = self.cases()
        first = self.run(model, y, w)
        kept = [np.copy(a) for a in first[1:]]
        second = self.run(model, y2, w2)
        for a, b, c in zip(first[1:], kept, second[1:]):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, c)

    def test_inputs_untouched(self):
        model, y, w = self.cases()[1]
        before = [np.copy(a) for a in (y, w, model.params)]
        self.run(model, y, w)
        weighted_loss(model, y, w)
        for a, b in zip((y, w, model.params), before):
            np.testing.assert_array_equal(a, b)

    def test_warm_calls_build_no_layer_views(self, monkeypatch):
        # the layer views are built with the Batch, once
        model, y, w = self.cases()[0]
        batch = Batch(model, y, w)
        calls = []
        real = net.mlp_layers
        monkeypatch.setattr(net, "mlp_layers",
                            lambda *a: calls.append(1) or real(*a))
        for _ in range(10):
            loss_and_gradients(model, batch)
            distances(model, batch)
        assert calls == []

    @pytest.mark.skipif(resource is None, reason="needs getrusage")
    def test_warm_steps_take_no_page_faults(self):
        # a fresh temporary of 128 KiB or more is faulted in page by page
        model, y, w = self.cases()[1]
        for _ in range(3):
            loss_and_gradients(model, y, w)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            loss_and_gradients(model, y, w)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert after - before < 20


def group_of(model, cells):
    """A lockstep group of `cells` copies of a model's parameters."""
    return replace(model, params=np.stack([model.params] * cells),
                   noise_variance=np.ones(cells))


def assert_layers_cut_from(widths, block, flat):
    """Every mlp_layers view of an augmented block holds its layer's
    weights and bias as cut, in flat order, from the front of flat; returns
    how many values were cut."""
    pos = 0
    for (fan_in, fan_out), layer in zip(zip(widths[:-1], widths[1:]),
                                        mlp_layers(widths, block)):
        end = pos + fan_out * fan_in
        np.testing.assert_array_equal(
            layer[:, :-1], flat[pos:end].reshape(fan_out, fan_in))
        np.testing.assert_array_equal(layer[:, -1], flat[end:end + fan_out])
        pos = end + fan_out
    return pos


class TestAugmentedOrder:
    """Parameters are drawn in flat order (each layer's weights, then its
    bias) and stored in the kernel's, each layer one [W | b] matrix."""

    @pytest.mark.parametrize("widths", [(2, 4, 1), (1, 4, 2), (2, 16, 16, 4),
                                        (2, 3, 7, 2)])
    def test_layers_hold_weights_then_bias(self, widths):
        flat = np.random.default_rng(len(widths)).normal(
            size=param_count(widths))
        aug = mlp_order(widths, flat)
        assert assert_layers_cut_from(widths, aug, flat) == flat.size

    @pytest.mark.parametrize("widths", [(2, 4, 1), (1, 4, 2), (2, 16, 16, 4),
                                        (2, 2, 2, 16)])
    def test_gather_then_scatter_is_exact(self, widths):
        # the DNN's widths (2, h, h, K) and the SMN's encoder and decoder:
        # the layout is a permutation, whose inverse gives the draws back
        size = param_count(widths)
        order = mlp_order(widths, np.arange(size))
        flat = np.random.default_rng(7).normal(size=(3, size))
        assert sorted(order) == list(range(size))
        np.testing.assert_array_equal(
            mlp_order(widths, flat).take(np.argsort(order), axis=1), flat)

    @pytest.mark.parametrize("bits, hidden", [(1, 4), (2, 4), (4, 3)])
    def test_init_model_lays_out_flat_draws(self, bits, hidden):
        # every encoder by symbol, then the decoder, each cut from the
        # init stream's draws in flat order
        model = init_model(build_constellation(bits), rng_seed=bits,
                           hidden_units=hidden, init_std=0.5)
        draws = 0.5 * role_rng(bits, "init").standard_normal(
            model.params.size)
        split = model.decoder_slice.start
        blocks = ([(model.encoder_widths, block) for block
                   in model.params[:split].reshape(model.order, -1)]
                  + [(model.decoder_widths, model.params[split:])])
        pos = 0
        for widths, block in blocks:
            pos += assert_layers_cut_from(widths, block, draws[pos:])
        assert pos == draws.size


class TestBatch:
    """A Batch lays the rows out once for a whole Adam run; the array form
    of loss_and_gradients is a Batch, then the same step."""

    def test_batch_equals_arrays_one_cell(self):
        model = init_model(build_constellation(2), rng_seed=50,
                           init_std=0.5)
        for m in (16, 1000):
            y, w = make_batch(model, m, seed=m)
            batch = Batch(model, y, w)
            assert len(batch) == m
            loss, grads = loss_and_gradients(model, batch)
            want_loss, want_grads = loss_and_gradients(model, y, w)
            assert loss == want_loss
            np.testing.assert_array_equal(grads, want_grads)
            assert weighted_loss(model, batch) == weighted_loss(model, y, w)

    def test_batch_equals_arrays_group(self):
        model = init_model(build_constellation(3), rng_seed=51,
                           init_std=0.5)
        group = group_of(model, 3)
        group.params[1:] += 0.1 * np.arange(1, 3)[:, None]
        rng = np.random.default_rng(52)
        y = rng.normal(size=(40, 3, 2))
        w = rng.uniform(size=(40, 3, 8))
        batch = Batch(group, y, w)
        assert len(batch) == 40
        loss, grads = loss_and_gradients(group, batch)
        want_loss, want_grads = loss_and_gradients(group, y, w)
        np.testing.assert_array_equal(loss, want_loss)
        np.testing.assert_array_equal(grads, want_grads)

    def test_batch_keeps_its_rows(self):
        model = init_model(build_constellation(2), rng_seed=53)
        y, w = make_batch(model, 32, seed=54)
        batch = Batch(model, y, w)
        want = loss_and_gradients(model, batch)
        y += 1.0
        w *= 3.0
        got = loss_and_gradients(model, batch)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])

    def test_batch_must_fit_the_model(self):
        model = init_model(build_constellation(2), rng_seed=55)
        batch = Batch(model, *make_batch(model, 8, seed=56))
        with pytest.raises(ValueError):
            loss_and_gradients(init_model(build_constellation(1), 55), batch)
        with pytest.raises(ValueError):
            loss_and_gradients(group_of(model, 2), batch)
        with pytest.raises(ValueError, match="widths"):
            loss_and_gradients(init_model(build_constellation(2), 55,
                                          hidden_units=3), batch)

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 0.5, np.nan])
    def test_refuses_non_unit_transforms(self, scale):
        # the canonical-frame loss is only exact on the unit circle
        model = init_model(build_constellation(2), rng_seed=57)
        transforms = model.transforms.copy()
        transforms[1] *= scale
        with pytest.raises(ValueError, match="unit-modulus"):
            Batch(replace(model, transforms=transforms),
                  *make_batch(model, 8, seed=58))

    def test_unit_transforms_within_tolerance_accepted(self):
        model = init_model(build_constellation(2), rng_seed=59)
        model = replace(model, transforms=model.transforms * (1 + 5e-13))
        assert len(Batch(model, *make_batch(model, 8, seed=60))) == 8

    def test_no_stale_ones_rows(self):
        # the ones rows of the layer inputs are written when a workspace is
        # made and never again: calls in any order match a fresh thread's,
        # forward passes taken before any backward pass there
        qpsk = build_constellation(2)
        a_model = init_model(qpsk, rng_seed=61, init_std=2.0)
        b_model = init_model(qpsk, rng_seed=62, init_std=0.5)
        cases = [(a_model, *make_batch(a_model, 16, seed=63)),
                 (b_model, *make_batch(b_model, 16, seed=64))]

        def forward_only(model, y, w):
            return (weighted_loss(model, y, w), project_all(model, y),
                    encode(model, y),
                    decode_curve(model, np.linspace(-1, 1, 5)))

        def fresh(case):
            out = []
            worker = threading.Thread(target=lambda: out.extend(
                [forward_only(*case), loss_and_gradients(*case)]))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive() and len(out) == 2
            return out

        want = [fresh(case) for case in cases]
        for i in (0, 1, 0, 0, 1, 1, 0):
            loss, grads = loss_and_gradients(*cases[i])
            (w_loss, *arrays), (want_loss, want_grads) = (
                forward_only(*cases[i]), want[i][1])
            assert loss == want_loss and w_loss == want[i][0][0]
            np.testing.assert_array_equal(grads, want_grads)
            for got, ref in zip(arrays, want[i][0][1:]):
                np.testing.assert_array_equal(got, ref)
