//! The multi-layer network: feed-forward (Eq. 5), back-propagation
//! (Eqs. 6-7), and weight updates (Eq. 8).
//!
//! The network owns per-layer weight matrices and bias vectors plus scratch
//! buffers for activations and error terms, so a forward/backward pass
//! allocates nothing. SGD with optional momentum is implemented directly in
//! [`Network::train_on`]; epoch orchestration and validation-convergence
//! stopping live in [`crate::train`].

use crate::activation::Activation;
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One fully-connected layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Layer {
    /// `weights[i][j]` = `w_ij(d-1, d)`: connection from neuron `j` in the
    /// lower layer to neuron `i` in this layer.
    weights: Matrix,
    /// Bias term `e_i` per neuron.
    biases: Vec<f64>,
    activation: Activation,
    /// Momentum buffers (same shapes as weights/biases).
    weight_velocity: Matrix,
    bias_velocity: Vec<f64>,
}

/// A feed-forward neural network with dense layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
    /// Activations per layer, `activations[0]` is the input copy.
    #[serde(skip)]
    activations: Vec<Vec<f64>>,
    /// Error terms `E_i(d)` per non-input layer.
    #[serde(skip)]
    errors: Vec<Vec<f64>>,
}

/// External activation scratch for [`Network::forward_with`], letting many
/// threads evaluate one shared `&Network` concurrently without the network's
/// own internal buffers. Reused across calls, so steady-state inference
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    activations: Vec<Vec<f64>>,
}

impl Scratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    fn ensure(&mut self, net: &Network) {
        let fits = self.activations.len() == net.layers.len() + 1
            && self
                .activations
                .iter()
                .zip(
                    std::iter::once(net.input_len())
                        .chain(net.layers.iter().map(|l| l.weights.rows())),
                )
                .all(|(buf, want)| buf.len() == want);
        if fits {
            return;
        }
        self.activations = std::iter::once(net.input_len())
            .chain(net.layers.iter().map(|l| l.weights.rows()))
            .map(|s| vec![0.0; s])
            .collect();
    }
}

/// Preallocated feature-major buffers for the minibatch kernels
/// ([`Network::train_minibatches`], [`Network::mse_batched`]). Column `b` of
/// every matrix holds sample `b` of the current batch. Reused across
/// batches and epochs, so steady-state training allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Activations per layer; `acts[0]` is the gathered input batch.
    acts: Vec<Matrix>,
    /// Error terms per non-input layer.
    errs: Vec<Matrix>,
    /// Gathered target batch.
    targets: Option<Matrix>,
    /// Transposed activation batch, rebuilt per layer inside the gradient
    /// step (see [`Matrix::add_batch_outer_pretransposed`]).
    acts_t: Option<Matrix>,
    /// Accumulated minibatch weight gradients per layer.
    grad_w: Vec<Matrix>,
    /// Accumulated minibatch bias gradients per layer.
    grad_b: Vec<Vec<f64>>,
    /// Batch width the buffers are currently sized for.
    cols: usize,
}

impl BatchScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    fn ensure(&mut self, net: &Network, cols: usize) {
        debug_assert!(cols > 0, "batch width must be positive");
        if self.cols == cols && self.acts.len() == net.layers.len() + 1 {
            return;
        }
        let sizes: Vec<usize> = std::iter::once(net.input_len())
            .chain(net.layers.iter().map(|l| l.weights.rows()))
            .collect();
        // Same architecture, different batch width: reshape in place so
        // alternating widths (full chunks vs. the epoch's tail chunk)
        // never reallocate.
        if self.acts.len() == sizes.len()
            && self.acts.iter().zip(&sizes).all(|(m, &s)| m.rows() == s)
        {
            for m in self.acts.iter_mut().chain(&mut self.errs) {
                m.reshape_cols(cols);
            }
            if let Some(t) = self.targets.as_mut() {
                t.reshape_cols(cols);
            }
            self.cols = cols;
            return;
        }
        self.acts = sizes.iter().map(|&s| Matrix::zeros(s, cols)).collect();
        self.errs = sizes[1..].iter().map(|&s| Matrix::zeros(s, cols)).collect();
        self.targets = Some(Matrix::zeros(net.output_len(), cols));
        let widest = sizes.iter().copied().max().expect("layers exist");
        self.acts_t = Some(Matrix::zeros(cols, widest));
        self.grad_w = net
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
            .collect();
        self.grad_b = net
            .layers
            .iter()
            .map(|l| vec![0.0; l.biases.len()])
            .collect();
        self.cols = cols;
    }
}

impl Network {
    /// Builds a network with the given layer sizes, e.g. `[12, 50, 50, 50,
    /// 50, 1]` for the paper's 4 hidden layers of 50 units. Hidden layers
    /// use `hidden`, the output layer uses `output`.
    ///
    /// Weights are initialized uniformly in `±1/sqrt(fan_in)` (the classic
    /// recipe for sigmoid nets) from a seeded RNG, so construction is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let bound = 1.0 / (fan_in as f64).sqrt();
            let weights = Matrix::from_fn(fan_out, fan_in, |_, _| rng.gen_range(-bound..bound));
            let is_output = layers.len() == sizes.len() - 2;
            layers.push(Layer {
                weights,
                biases: vec![0.0; fan_out],
                activation: if is_output { output } else { hidden },
                weight_velocity: Matrix::zeros(fan_out, fan_in),
                bias_velocity: vec![0.0; fan_out],
            });
        }
        let activations = sizes.iter().map(|&s| vec![0.0; s]).collect();
        let errors = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
        Network {
            layers,
            activations,
            errors,
        }
    }

    /// Convenience constructor for the paper's Table II architecture:
    /// `h = 4` sigmoid layers of `units` neurons between `inputs` and
    /// `outputs` (identity output for regression).
    pub fn paper_architecture(inputs: usize, units: usize, outputs: usize, seed: u64) -> Self {
        Self::new(
            &[inputs, units, units, units, units, outputs],
            Activation::Sigmoid,
            Activation::Identity,
            seed,
        )
    }

    /// Input dimension.
    pub fn input_len(&self) -> usize {
        self.activations[0].len()
    }

    /// Output dimension.
    pub fn output_len(&self) -> usize {
        self.activations.last().expect("networks have layers").len()
    }

    /// Number of weight layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Re-creates the scratch buffers after deserialization (serde skips
    /// them). Called lazily by the passes; public for completeness.
    pub fn ensure_scratch(&mut self) {
        if self.activations.len() == self.layers.len() + 1 {
            return;
        }
        let mut sizes = Vec::with_capacity(self.layers.len() + 1);
        sizes.push(self.layers[0].weights.cols());
        for l in &self.layers {
            sizes.push(l.weights.rows());
        }
        self.activations = sizes.iter().map(|&s| vec![0.0; s]).collect();
        self.errors = sizes[1..].iter().map(|&s| vec![0.0; s]).collect();
    }

    /// Feed-forward evaluation (paper Eq. 5). Returns the output slice.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer.
    pub fn forward(&mut self, input: &[f64]) -> &[f64] {
        self.ensure_scratch();
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        self.activations[0].copy_from_slice(input);
        for (d, layer) in self.layers.iter().enumerate() {
            let (lower, upper) = self.activations.split_at_mut(d + 1);
            layer
                .weights
                .mul_vec_fused_into(&lower[d], &mut upper[0], |i, acc| {
                    layer.activation.apply(acc + layer.biases[i])
                });
        }
        self.activations.last().expect("networks have layers")
    }

    /// Feed-forward evaluation through caller-provided scratch, leaving the
    /// network immutable so many threads can share one `&Network`.
    /// Bit-identical to [`forward`](Self::forward): both run the same fused
    /// kernel in the same accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer.
    pub fn forward_with<'s>(&self, input: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        scratch.ensure(self);
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        scratch.activations[0].copy_from_slice(input);
        for (d, layer) in self.layers.iter().enumerate() {
            let (lower, upper) = scratch.activations.split_at_mut(d + 1);
            layer
                .weights
                .mul_vec_fused_into(&lower[d], &mut upper[0], |i, acc| {
                    layer.activation.apply(acc + layer.biases[i])
                });
        }
        scratch.activations.last().expect("networks have layers")
    }

    /// One stochastic training step on a single example: forward pass,
    /// back-propagation of error terms (Eqs. 6-7), and weight update
    /// (Eq. 8) with learning rate `mu` and momentum factor `momentum`
    /// (0.0 recovers the paper's plain update).
    ///
    /// Returns the example's squared error before the update.
    ///
    /// # Panics
    ///
    /// Panics if input/target lengths mismatch the architecture.
    pub fn train_on(&mut self, input: &[f64], target: &[f64], mu: f64, momentum: f64) -> f64 {
        assert_eq!(target.len(), self.output_len(), "target length mismatch");
        self.forward(input);

        // Output-layer error terms: E_i = (t_i - g_i) * F'(g_i)  (Eq. 6).
        let out_idx = self.layers.len() - 1;
        let mut sq_err = 0.0;
        {
            let g_out = self.activations.last().expect("layers exist");
            let act = self.layers[out_idx].activation;
            for ((e, &g), &t) in self.errors[out_idx].iter_mut().zip(g_out).zip(target) {
                let diff = t - g;
                sq_err += diff * diff;
                *e = diff * act.derivative_from_output(g);
            }
        }

        // Hidden-layer error terms: E_i(d) = (sum_j E_j(d+1) w_ji) F'(g_i)
        // (Eq. 7), computed top-down.
        for d in (0..out_idx).rev() {
            let (lower_errs, upper_errs) = self.errors.split_at_mut(d + 1);
            let e_cur = &mut lower_errs[d];
            let e_up = &upper_errs[0];
            self.layers[d + 1]
                .weights
                .mul_vec_transposed_into(e_up, e_cur);
            let act = self.layers[d].activation;
            for (e, &g) in e_cur.iter_mut().zip(&self.activations[d + 1]) {
                *e *= act.derivative_from_output(g);
            }
        }

        // Weight updates: dw_ij = mu * E_i(d) * g_j(d-1)  (Eq. 8), with an
        // optional classical-momentum velocity term. The fused step is
        // bit-identical to the scale/add_outer/add_assign sequence it
        // replaces (see `Matrix::momentum_step`).
        for (d, layer) in self.layers.iter_mut().enumerate() {
            let errs = &self.errors[d];
            let g_prev = &self.activations[d];
            if momentum > 0.0 {
                layer
                    .weights
                    .momentum_step(&mut layer.weight_velocity, errs, g_prev, momentum, mu);
                for ((b, v), e) in layer
                    .biases
                    .iter_mut()
                    .zip(&mut layer.bias_velocity)
                    .zip(errs)
                {
                    *v = momentum * *v + mu * e;
                    *b += *v;
                }
            } else {
                layer.weights.add_outer_scaled(errs, g_prev, mu);
                for (b, e) in layer.biases.iter_mut().zip(errs) {
                    *b += mu * e;
                }
            }
        }
        sq_err
    }

    /// The pre-optimization per-sample training step, kept verbatim
    /// (unfused forward, three-pass momentum update) as the oracle the
    /// fused kernels' bit-identity tests compare against.
    #[cfg(test)]
    fn train_on_reference(&mut self, input: &[f64], target: &[f64], mu: f64, momentum: f64) -> f64 {
        assert_eq!(target.len(), self.output_len(), "target length mismatch");
        self.ensure_scratch();
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        self.activations[0].copy_from_slice(input);
        for (d, layer) in self.layers.iter().enumerate() {
            let (lower, upper) = self.activations.split_at_mut(d + 1);
            let g_cur = &mut upper[0];
            layer.weights.mul_vec_into(&lower[d], g_cur);
            for (g, b) in g_cur.iter_mut().zip(&layer.biases) {
                *g = layer.activation.apply(*g + b);
            }
        }

        let out_idx = self.layers.len() - 1;
        let mut sq_err = 0.0;
        {
            let g_out = self.activations.last().expect("layers exist");
            let act = self.layers[out_idx].activation;
            for ((e, &g), &t) in self.errors[out_idx].iter_mut().zip(g_out).zip(target) {
                let diff = t - g;
                sq_err += diff * diff;
                *e = diff * act.derivative_from_output(g);
            }
        }

        for d in (0..out_idx).rev() {
            let (lower_errs, upper_errs) = self.errors.split_at_mut(d + 1);
            let e_cur = &mut lower_errs[d];
            let e_up = &upper_errs[0];
            self.layers[d + 1]
                .weights
                .mul_vec_transposed_into(e_up, e_cur);
            let act = self.layers[d].activation;
            for (e, &g) in e_cur.iter_mut().zip(&self.activations[d + 1]) {
                *e *= act.derivative_from_output(g);
            }
        }

        for (d, layer) in self.layers.iter_mut().enumerate() {
            let errs = &self.errors[d];
            let g_prev = &self.activations[d];
            if momentum > 0.0 {
                layer.weight_velocity.scale(momentum);
                layer.weight_velocity.add_outer_scaled(errs, g_prev, mu);
                layer.weights.add_assign(&layer.weight_velocity);
                for ((b, v), e) in layer
                    .biases
                    .iter_mut()
                    .zip(&mut layer.bias_velocity)
                    .zip(errs)
                {
                    *v = momentum * *v + mu * e;
                    *b += *v;
                }
            } else {
                layer.weights.add_outer_scaled(errs, g_prev, mu);
                for (b, e) in layer.biases.iter_mut().zip(errs) {
                    *b += mu * e;
                }
            }
        }
        sq_err
    }

    /// One minibatch gradient step over the examples selected by `idx`:
    /// batched forward (blocked matrix-matrix kernel with the activation
    /// fused into the epilogue), batched back-propagation, then a single
    /// momentum update using the *mean* gradient (`mu / batch` scaling), so
    /// the effective step size is comparable to `batch` per-sample steps.
    ///
    /// Returns the sum of squared errors over the batch (before the
    /// update).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty, any index is out of range, or any
    /// example's shape mismatches the architecture.
    pub fn train_batch(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        idx: &[usize],
        mu: f64,
        momentum: f64,
        scratch: &mut BatchScratch,
    ) -> f64 {
        assert!(!idx.is_empty(), "empty minibatch");
        let n = idx.len();
        scratch.ensure(self, n);

        // Gather the batch feature-major: column b = example idx[b].
        {
            let x = &mut scratch.acts[0];
            let t = scratch.targets.as_mut().expect("sized by ensure");
            for (b, &i) in idx.iter().enumerate() {
                assert_eq!(inputs[i].len(), x.rows(), "input length mismatch");
                assert_eq!(targets[i].len(), t.rows(), "target length mismatch");
                for (k, &v) in inputs[i].iter().enumerate() {
                    x.as_mut_slice()[k * n + b] = v;
                }
                for (k, &v) in targets[i].iter().enumerate() {
                    t.as_mut_slice()[k * n + b] = v;
                }
            }
        }

        // Batched forward (Eq. 5 over the whole batch).
        for (d, layer) in self.layers.iter().enumerate() {
            let (lower, upper) = scratch.acts.split_at_mut(d + 1);
            layer
                .weights
                .matmul_fused_into(&lower[d], &mut upper[0], |i, acc| {
                    layer.activation.apply(acc + layer.biases[i])
                });
        }

        // Output-layer error terms (Eq. 6) for every sample at once,
        // row-sliced so the inner loops skip per-element bounds checks.
        let out_idx = self.layers.len() - 1;
        let mut sq_err = 0.0;
        {
            let g_out = scratch.acts.last().expect("layers exist");
            let t = scratch.targets.as_ref().expect("sized by ensure");
            let act = self.layers[out_idx].activation;
            let e_out = &mut scratch.errs[out_idx];
            for ((e_row, g_row), t_row) in e_out
                .as_mut_slice()
                .chunks_exact_mut(n)
                .zip(g_out.as_slice().chunks_exact(n))
                .zip(t.as_slice().chunks_exact(n))
            {
                for ((e, &g), &tv) in e_row.iter_mut().zip(g_row).zip(t_row) {
                    let diff = tv - g;
                    sq_err += diff * diff;
                    *e = diff * act.derivative_from_output(g);
                }
            }
        }

        // Hidden-layer error terms (Eq. 7), batched top-down.
        for d in (0..out_idx).rev() {
            let (lower_errs, upper_errs) = scratch.errs.split_at_mut(d + 1);
            let e_cur = &mut lower_errs[d];
            self.layers[d + 1]
                .weights
                .matmul_transposed_into(&upper_errs[0], e_cur);
            let act = self.layers[d].activation;
            let g = &scratch.acts[d + 1];
            for (e_row, g_row) in e_cur
                .as_mut_slice()
                .chunks_exact_mut(n)
                .zip(g.as_slice().chunks_exact(n))
            {
                for (e, &gv) in e_row.iter_mut().zip(g_row) {
                    *e *= act.derivative_from_output(gv);
                }
            }
        }

        // Mean-gradient momentum update (Eq. 8 summed over the batch,
        // scaled by mu / n).
        let step = mu / n as f64;
        for (d, layer) in self.layers.iter_mut().enumerate() {
            let errs = &scratch.errs[d];
            let grad = &mut scratch.grad_w[d];
            grad.fill(0.0);
            let acts = &scratch.acts[d];
            let gt = scratch.acts_t.as_mut().expect("sized by ensure");
            gt.reshape(acts.cols(), acts.rows());
            acts.transpose_into(gt);
            grad.add_batch_outer_pretransposed(errs, gt);
            layer
                .weights
                .momentum_step_from(&mut layer.weight_velocity, grad, momentum, step);
            let gb = &mut scratch.grad_b[d];
            for (g, e_row) in gb.iter_mut().zip(errs.as_slice().chunks_exact(n)) {
                *g = e_row.iter().sum();
            }
            for ((b, v), g) in layer
                .biases
                .iter_mut()
                .zip(&mut layer.bias_velocity)
                .zip(gb.iter())
            {
                *v = momentum * *v + step * g;
                *b += *v;
            }
        }
        sq_err
    }

    /// Runs one epoch of minibatch SGD over `order`, chunking it into
    /// batches of at most `batch_size` and calling
    /// [`train_batch`](Self::train_batch) on each. Returns the summed
    /// squared error across the epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn train_minibatches(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        order: &[usize],
        batch_size: usize,
        mu: f64,
        momentum: f64,
        scratch: &mut BatchScratch,
    ) -> f64 {
        assert!(batch_size > 0, "batch size must be positive");
        let mut total = 0.0;
        for chunk in order.chunks(batch_size) {
            total += self.train_batch(inputs, targets, chunk, mu, momentum, scratch);
        }
        total
    }

    /// Batched counterpart of [`mse`](Self::mse): evaluates the dataset
    /// through the blocked forward kernel. Bit-identical to `mse` — the
    /// batched forward matches the per-sample forward lane for lane, and
    /// per-sample squared errors are reduced in the same order.
    pub fn mse_batched(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        batch_size: usize,
        scratch: &mut BatchScratch,
    ) -> f64 {
        assert_eq!(inputs.len(), targets.len(), "dataset length mismatch");
        assert!(batch_size > 0, "batch size must be positive");
        if inputs.is_empty() {
            return 0.0;
        }
        let idx: Vec<usize> = (0..inputs.len()).collect();
        let mut total = 0.0;
        for chunk in idx.chunks(batch_size) {
            let n = chunk.len();
            scratch.ensure(self, n);
            {
                let x = &mut scratch.acts[0];
                for (b, &i) in chunk.iter().enumerate() {
                    assert_eq!(inputs[i].len(), x.rows(), "input length mismatch");
                    for (k, &v) in inputs[i].iter().enumerate() {
                        *x.get_mut(k, b) = v;
                    }
                }
            }
            for (d, layer) in self.layers.iter().enumerate() {
                let (lower, upper) = scratch.acts.split_at_mut(d + 1);
                layer
                    .weights
                    .matmul_fused_into(&lower[d], &mut upper[0], |i, acc| {
                        layer.activation.apply(acc + layer.biases[i])
                    });
            }
            let y = scratch.acts.last().expect("layers exist");
            for (b, &i) in chunk.iter().enumerate() {
                let t = &targets[i];
                assert_eq!(t.len(), y.rows(), "target length mismatch");
                let sample: f64 = t
                    .iter()
                    .enumerate()
                    .map(|(r, &tv)| {
                        let d = y.get(r, b) - tv;
                        d * d
                    })
                    .sum();
                total += sample;
            }
        }
        total / inputs.len() as f64
    }

    /// Mean squared error of the network over a dataset, without updating
    /// weights.
    pub fn mse(&mut self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        assert_eq!(inputs.len(), targets.len(), "dataset length mismatch");
        if inputs.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (x, t) in inputs.iter().zip(targets) {
            let y = self.forward(x);
            total += y.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
        }
        total / inputs.len() as f64
    }

    /// Access to a layer's weight matrix (tests, gradient checks).
    pub fn layer_weights(&self, d: usize) -> &Matrix {
        &self.layers[d].weights
    }

    /// Mutable access to a layer's weight matrix (gradient checks perturb
    /// single weights).
    pub fn layer_weights_mut(&mut self, d: usize) -> &mut Matrix {
        &mut self.layers[d].weights
    }

    /// Access to a layer's bias vector (replica averaging).
    pub fn layer_biases(&self, d: usize) -> &[f64] {
        &self.layers[d].biases
    }

    /// Mutable access to a layer's bias vector (replica averaging).
    pub fn layer_biases_mut(&mut self, d: usize) -> &mut [f64] {
        &mut self.layers[d].biases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_output_has_right_shape() {
        let mut net = Network::new(&[3, 5, 2], Activation::Sigmoid, Activation::Identity, 1);
        let out = net.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = Network::new(&[3, 4, 1], Activation::Sigmoid, Activation::Identity, 7);
        let b = Network::new(&[3, 4, 1], Activation::Sigmoid, Activation::Identity, 7);
        assert_eq!(a.layer_weights(0).as_slice(), b.layer_weights(0).as_slice());
    }

    #[test]
    fn sigmoid_hidden_activations_bounded() {
        let mut net = Network::new(&[2, 8, 1], Activation::Sigmoid, Activation::Sigmoid, 3);
        let out = net.forward(&[100.0, -100.0]);
        assert!(out[0] > 0.0 && out[0] < 1.0);
    }

    #[test]
    fn paper_architecture_has_four_hidden_layers() {
        let net = Network::paper_architecture(12, 50, 3, 1);
        assert_eq!(net.depth(), 5, "4 hidden + 1 output weight layers");
        assert_eq!(net.input_len(), 12);
        assert_eq!(net.output_len(), 3);
    }

    #[test]
    fn training_reduces_error_on_linear_task() {
        // y = 0.5*x0 - 0.25*x1 is learnable by a tiny net.
        let mut net = Network::new(&[2, 8, 1], Activation::Sigmoid, Activation::Identity, 5);
        let data: Vec<(Vec<f64>, Vec<f64>)> = (0..50)
            .map(|i| {
                let x0 = (i % 10) as f64 / 10.0;
                let x1 = (i / 10) as f64 / 5.0;
                (vec![x0, x1], vec![0.5 * x0 - 0.25 * x1])
            })
            .collect();
        let inputs: Vec<Vec<f64>> = data.iter().map(|d| d.0.clone()).collect();
        let targets: Vec<Vec<f64>> = data.iter().map(|d| d.1.clone()).collect();
        let before = net.mse(&inputs, &targets);
        for _ in 0..200 {
            for (x, t) in inputs.iter().zip(&targets) {
                net.train_on(x, t, 0.1, 0.0);
            }
        }
        let after = net.mse(&inputs, &targets);
        assert!(after < before * 0.2, "MSE {before} -> {after} insufficient");
    }

    #[test]
    fn momentum_training_also_converges() {
        let mut net = Network::new(&[1, 6, 1], Activation::Tanh, Activation::Identity, 9);
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] * x[0]]).collect();
        for _ in 0..300 {
            for (x, t) in inputs.iter().zip(&targets) {
                net.train_on(x, t, 0.05, 0.9);
            }
        }
        assert!(net.mse(&inputs, &targets) < 0.01);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // The definitive Eq. 6-8 correctness test: analytic gradient (via a
        // mu=1 update direction) must match numeric d(loss)/d(w).
        let net = Network::new(&[3, 4, 2], Activation::Sigmoid, Activation::Identity, 11);
        let x = [0.3, -0.6, 0.9];
        let t = [0.2, -0.1];
        let loss = |n: &mut Network| {
            let y = n.forward(&x);
            y.iter()
                .zip(&t)
                .map(|(a, b)| 0.5 * (a - b) * (a - b))
                .sum::<f64>()
        };
        // Analytic gradient: train_on applies dw = mu * E * g with
        // E = (t-y)F', which is exactly -d(loss)/dw, so compare the weight
        // delta (at mu=1) to the negative numeric gradient.
        for layer in 0..2 {
            for r in 0..net.layer_weights(layer).rows() {
                for c in 0..net.layer_weights(layer).cols() {
                    let eps = 1e-6;
                    let mut probe = net.clone();
                    *probe.layer_weights_mut(layer).get_mut(r, c) += eps;
                    let lp = loss(&mut probe);
                    let mut probe2 = net.clone();
                    *probe2.layer_weights_mut(layer).get_mut(r, c) -= eps;
                    let lm = loss(&mut probe2);
                    let numeric = (lp - lm) / (2.0 * eps);

                    let mut trained = net.clone();
                    let w_before = trained.layer_weights(layer).get(r, c);
                    trained.train_on(&x, &t, 1.0, 0.0);
                    let analytic = trained.layer_weights(layer).get(r, c) - w_before;

                    assert!(
                        (analytic + numeric).abs() < 1e-4,
                        "layer {layer} w[{r}][{c}]: update {analytic} vs -grad {}",
                        -numeric
                    );
                }
            }
        }
    }

    fn toy_dataset(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 5.0])
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| vec![0.5 * x[0] - 0.25 * x[1]])
            .collect();
        (inputs, targets)
    }

    #[test]
    fn fused_train_on_is_bit_identical_to_the_reference_step() {
        let mut fused = Network::new(&[2, 8, 4, 1], Activation::Sigmoid, Activation::Identity, 13);
        let mut reference = fused.clone();
        let (inputs, targets) = toy_dataset(30);
        for _ in 0..5 {
            for (x, t) in inputs.iter().zip(&targets) {
                let a = fused.train_on(x, t, 0.1, 0.5);
                let b = reference.train_on_reference(x, t, 0.1, 0.5);
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        for d in 0..fused.depth() {
            let fw = fused.layer_weights(d).as_slice();
            let rw = reference.layer_weights(d).as_slice();
            assert_eq!(
                fw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "layer {d} weights diverged"
            );
            assert_eq!(fused.layer_biases(d), reference.layer_biases(d));
        }
    }

    #[test]
    fn fused_train_on_matches_reference_without_momentum() {
        let mut fused = Network::new(&[2, 6, 1], Activation::Sigmoid, Activation::Identity, 21);
        let mut reference = fused.clone();
        let (inputs, targets) = toy_dataset(20);
        for (x, t) in inputs.iter().zip(&targets) {
            let a = fused.train_on(x, t, 0.1, 0.0);
            let b = reference.train_on_reference(x, t, 0.1, 0.0);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            fused.layer_weights(0).as_slice(),
            reference.layer_weights(0).as_slice()
        );
    }

    #[test]
    fn forward_with_external_scratch_is_bit_identical_to_forward() {
        let mut net = Network::new(&[3, 7, 5, 2], Activation::Sigmoid, Activation::Identity, 17);
        let mut scratch = Scratch::new();
        for i in 0..10 {
            let x = [i as f64 * 0.1, -(i as f64) * 0.05, 0.3];
            let shared = {
                let y = net.forward_with(&x, &mut scratch);
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let owned: Vec<u64> = net.forward(&x).iter().map(|v| v.to_bits()).collect();
            assert_eq!(shared, owned);
        }
    }

    #[test]
    fn minibatch_training_converges_on_linear_task() {
        let mut net = Network::new(&[2, 8, 1], Activation::Sigmoid, Activation::Identity, 5);
        let (inputs, targets) = toy_dataset(50);
        let order: Vec<usize> = (0..inputs.len()).collect();
        let mut scratch = BatchScratch::new();
        let before = net.mse(&inputs, &targets);
        for _ in 0..400 {
            net.train_minibatches(&inputs, &targets, &order, 8, 0.5, 0.5, &mut scratch);
        }
        let after = net.mse(&inputs, &targets);
        assert!(after < before * 0.2, "MSE {before} -> {after} insufficient");
    }

    #[test]
    fn batch_of_one_matches_per_sample_gradient_direction() {
        // A 1-wide minibatch at momentum 0 is exactly one per-sample step
        // (mean over one sample), so weights must land bit-identically.
        let mut batched = Network::new(&[2, 5, 1], Activation::Sigmoid, Activation::Identity, 8);
        let mut single = batched.clone();
        let (inputs, targets) = toy_dataset(12);
        let mut scratch = BatchScratch::new();
        for i in 0..inputs.len() {
            batched.train_batch(&inputs, &targets, &[i], 0.1, 0.5, &mut scratch);
            single.train_on(&inputs[i], &targets[i], 0.1, 0.5);
        }
        for d in 0..batched.depth() {
            let bw = batched.layer_weights(d).as_slice();
            let sw = single.layer_weights(d).as_slice();
            for (a, b) in bw.iter().zip(sw) {
                // `mu * (e*g)` vs `(mu*e) * g` round differently by design,
                // so allow ulp-level drift.
                assert!((a - b).abs() < 1e-9, "layer {d}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn mse_batched_is_bit_identical_to_mse() {
        let mut net = Network::new(&[2, 9, 1], Activation::Sigmoid, Activation::Identity, 31);
        let (inputs, targets) = toy_dataset(23);
        let mut scratch = BatchScratch::new();
        let plain = net.mse(&inputs, &targets);
        let batched = net.mse_batched(&inputs, &targets, 8, &mut scratch);
        assert_eq!(plain.to_bits(), batched.to_bits());
    }

    #[test]
    fn mse_of_empty_dataset_is_zero() {
        let mut net = Network::new(&[2, 3, 1], Activation::Sigmoid, Activation::Identity, 1);
        assert_eq!(net.mse(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn forward_rejects_wrong_input_len() {
        let mut net = Network::new(&[3, 2, 1], Activation::Sigmoid, Activation::Identity, 1);
        net.forward(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn new_rejects_single_layer() {
        Network::new(&[3], Activation::Sigmoid, Activation::Identity, 1);
    }
}
