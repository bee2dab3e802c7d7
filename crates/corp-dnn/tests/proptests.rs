//! Property-based tests for the DNN substrate.

use corp_dnn::{
    Activation, Matrix, Network, PredictScratch, TrainConfig, UnusedResourcePredictor,
    WindowPredictorConfig, LANES,
};
use proptest::prelude::*;

/// The scalar oracle for one lane of
/// [`UnusedResourcePredictor::predict_batch`]: persistence when untrained,
/// else the documented window assembly (last `window` values, left-padded
/// with the first), window-max scaling with its 1e-9 floor, and training's
/// own `Network::forward`.
fn scalar_prediction(p: &UnusedResourcePredictor, net: &mut Network, recent: &[f64]) -> f64 {
    if !p.is_trained() {
        return recent[recent.len() - 1].max(0.0);
    }
    let w = p.config().window;
    let mut window = Vec::with_capacity(w);
    if recent.len() >= w {
        window.extend_from_slice(&recent[recent.len() - w..]);
    } else {
        window.resize(w - recent.len(), recent[0]);
        window.extend_from_slice(recent);
    }
    let scale = window.iter().fold(0.0f64, |m, &v| m.max(v)).max(1e-9);
    let input: Vec<f64> = window.iter().map(|v| v / scale).collect();
    (net.forward(&input)[0] * scale).max(0.0)
}

proptest! {
    #[test]
    fn matrix_mul_vec_is_linear(
        rows in 1usize..6, cols in 1usize..6,
        seed in 0u64..1000, a in -3.0f64..3.0, b in -3.0f64..3.0,
    ) {
        // M(a*x + b*y) == a*Mx + b*My
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let m = Matrix::from_fn(rows, cols, |_, _| next());
        let x: Vec<f64> = (0..cols).map(|_| next()).collect();
        let y: Vec<f64> = (0..cols).map(|_| next()).collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + b * yi).collect();
        let mut out_combo = vec![0.0; rows];
        m.mul_vec_into(&combo, &mut out_combo);
        let mut out_x = vec![0.0; rows];
        m.mul_vec_into(&x, &mut out_x);
        let mut out_y = vec![0.0; rows];
        m.mul_vec_into(&y, &mut out_y);
        for i in 0..rows {
            let expect = a * out_x[i] + b * out_y[i];
            prop_assert!((out_combo[i] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn sigmoid_output_in_unit_interval(x in -50.0f64..50.0) {
        // At |x| >= ~37 the sigmoid saturates to exactly 0.0/1.0 in f64,
        // so the bound is closed.
        let y = Activation::Sigmoid.apply(x);
        prop_assert!((0.0..=1.0).contains(&y));
    }

    #[test]
    fn sigmoid_is_monotone(x1 in -20.0f64..20.0, x2 in -20.0f64..20.0) {
        prop_assume!(x1 < x2);
        prop_assert!(Activation::Sigmoid.apply(x1) < Activation::Sigmoid.apply(x2));
    }

    #[test]
    fn forward_is_deterministic(seed in 0u64..500, input in prop::collection::vec(-2.0f64..2.0, 3)) {
        let mut n1 = Network::new(&[3, 5, 2], Activation::Sigmoid, Activation::Identity, seed);
        let mut n2 = Network::new(&[3, 5, 2], Activation::Sigmoid, Activation::Identity, seed);
        prop_assert_eq!(n1.forward(&input).to_vec(), n2.forward(&input).to_vec());
    }

    #[test]
    fn forward_outputs_finite(seed in 0u64..500, input in prop::collection::vec(-10.0f64..10.0, 4)) {
        let mut n = Network::new(&[4, 8, 8, 1], Activation::Sigmoid, Activation::Identity, seed);
        let out = n.forward(&input);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_sgd_step_reduces_example_error(
        seed in 0u64..200,
        input in prop::collection::vec(-1.0f64..1.0, 3),
        target in -1.0f64..1.0,
    ) {
        // For a small learning rate, one gradient step must not increase
        // the error on the very example it was computed from.
        let mut n = Network::new(&[3, 6, 1], Activation::Sigmoid, Activation::Identity, seed);
        let before = {
            let y = n.forward(&input)[0];
            (y - target) * (y - target)
        };
        n.train_on(&input, &[target], 0.01, 0.0);
        let after = {
            let y = n.forward(&input)[0];
            (y - target) * (y - target)
        };
        prop_assert!(after <= before + 1e-9, "error rose: {before} -> {after}");
    }

    #[test]
    fn predictor_never_negative(
        recent in prop::collection::vec(0.0f64..100.0, 1..12),
    ) {
        let mut p = UnusedResourcePredictor::new(WindowPredictorConfig {
            window: 4,
            horizon: 1,
            units: 6,
            hidden_layers: 1,
            ..WindowPredictorConfig::default()
        });
        prop_assert!(p.predict(&recent) >= 0.0);
    }

    #[test]
    fn predict_scratch_reuse_matches_fresh_init(
        serieses in prop::collection::vec(
            prop::collection::vec(0.0f64..100.0, 1..14),
            1..6,
        ),
        level in 1.0f64..50.0,
    ) {
        // The pool runtime reuses one PredictScratch across every window a
        // worker serves; predictions through a long-lived scratch must be
        // bit-identical to predictions through a fresh one. Train so the
        // DNN path (and its activation buffers) is actually exercised.
        let mut p = UnusedResourcePredictor::new(WindowPredictorConfig {
            window: 4,
            horizon: 1,
            units: 5,
            hidden_layers: 1,
            train: TrainConfig { max_epochs: 3, ..TrainConfig::default() },
            ..WindowPredictorConfig::default()
        });
        let histories: Vec<Vec<f64>> = (0..4)
            .map(|j| (0..12).map(|t| level + ((t + j) % 3) as f64).collect())
            .collect();
        p.fit(&histories);
        let mut reused = PredictScratch::new();
        for s in &serieses {
            let with_reused = p.predict_with(s, &mut reused);
            let fresh = p.predict_with(s, &mut PredictScratch::new());
            prop_assert_eq!(with_reused.to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn forward_lanes_matches_scalar_forward_by_bits(
        seed in 0u64..500,
        hidden in 1usize..9,
        activation in 0usize..4,
        inputs in prop::collection::vec(prop::collection::vec(-4.0f64..4.0, 3), 1..=LANES),
        zeroed in 0usize..LANES,
    ) {
        // Every live-lane count, every activation; one lane's input is
        // all zeros so only -0.0/+0.0 products reach its first layer.
        let act = [Activation::Sigmoid, Activation::Tanh, Activation::Relu, Activation::Identity]
            [activation];
        let mut net = Network::new(&[3, hidden, 2], act, Activation::Identity, seed);
        let mut inputs = inputs;
        if let Some(x) = inputs.get_mut(zeroed) {
            x.iter_mut().for_each(|v| *v = 0.0);
        }
        let mut lanes = vec![[0.0; LANES]; 3];
        for (b, x) in inputs.iter().enumerate() {
            for (j, &v) in x.iter().enumerate() {
                lanes[j][b] = v;
            }
        }
        let out = net
            .forward_lanes(&lanes, inputs.len(), &mut [Vec::new(), Vec::new()])
            .to_vec();
        for (b, x) in inputs.iter().enumerate() {
            let scalar: Vec<u64> = net.forward(x).iter().map(|v| v.to_bits()).collect();
            let lane: Vec<u64> = out.iter().map(|o| o[b].to_bits()).collect();
            prop_assert_eq!(lane, scalar, "lane {} of {}", b, inputs.len());
        }
    }

    #[test]
    fn batched_predictions_match_the_scalar_forward_oracle_by_bits(
        serieses in prop::collection::vec(
            prop::collection::vec(0.0f64..100.0, 1..10),
            1..=LANES,
        ),
        zero_lanes in 0usize..(1 << LANES),
        trained in 0usize..2,
        level in 1.0f64..50.0,
    ) {
        // 1..=LANES live lanes, series shorter than the 6-slot window
        // (padding), all-zero windows (the 1e-9 scale floor) and, in half
        // the cases, an untrained net (persistence): every lane must equal
        // the scalar oracle bit for bit, through one reused scratch.
        let mut p = UnusedResourcePredictor::new(WindowPredictorConfig {
            window: 6,
            horizon: 1,
            units: 7,
            hidden_layers: 2,
            train: TrainConfig { max_epochs: 3, ..TrainConfig::default() },
            ..WindowPredictorConfig::default()
        });
        if trained == 1 {
            let histories: Vec<Vec<f64>> = (0..4)
                .map(|j| (0..14).map(|t| level + ((t + j) % 4) as f64).collect())
                .collect();
            prop_assert!(p.fit(&histories).is_some());
        }
        let serieses: Vec<Vec<f64>> = serieses
            .into_iter()
            .enumerate()
            .map(|(b, s)| if zero_lanes >> b & 1 == 1 { vec![0.0; s.len()] } else { s })
            .collect();
        let recents: Vec<&[f64]> = serieses.iter().map(Vec::as_slice).collect();
        let mut scratch = PredictScratch::new();
        let mut net = p.network().clone();
        for pass in 0..2 {
            let mut out = vec![f64::NAN; recents.len()];
            p.predict_batch(&recents, &mut out, &mut scratch);
            for (b, recent) in recents.iter().enumerate() {
                let expected = scalar_prediction(&p, &mut net, recent);
                prop_assert_eq!(
                    out[b].to_bits(),
                    expected.to_bits(),
                    "pass {}, lane {} of {}: {:?}", pass, b, recents.len(), recent
                );
            }
        }
    }
}
