//! Viterbi decoding (paper Eq. 16 context).
//!
//! "In implementation, we use Viterbi algorithm to find the single best
//! state sequence (path) ... maximizing P(Q, O | lambda)." Log-space
//! recursion avoids underflow on long sequences.

use crate::model::Hmm;

/// Result of Viterbi decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct ViterbiPath {
    /// The most likely state sequence `Q* = q_1* ... q_T*`.
    pub states: Vec<usize>,
    /// `log P(Q*, O | lambda)`.
    pub log_prob: f64,
}

/// Finds the single best state sequence for `obs` under `hmm`.
///
/// # Panics
///
/// Panics if `obs` is empty or contains out-of-range symbols.
pub fn viterbi(hmm: &Hmm, obs: &[usize]) -> ViterbiPath {
    assert!(!obs.is_empty(), "observation sequence must be non-empty");
    hmm.check_observations(obs);
    let h = hmm.num_states;
    let t_len = obs.len();
    let ln = |p: f64| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY };

    // delta[t][i]: best log-prob of any path ending in state i at t.
    let mut delta = vec![vec![f64::NEG_INFINITY; h]; t_len];
    let mut psi = vec![vec![0usize; h]; t_len];

    for i in 0..h {
        delta[0][i] = ln(hmm.pi[i]) + ln(hmm.b[i][obs[0]]);
    }
    for t in 1..t_len {
        for j in 0..h {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0;
            for i in 0..h {
                let cand = delta[t - 1][i] + ln(hmm.a[i][j]);
                if cand > best {
                    best = cand;
                    arg = i;
                }
            }
            delta[t][j] = best + ln(hmm.b[j][obs[t]]);
            psi[t][j] = arg;
        }
    }

    let (mut last, mut log_prob) = (0usize, f64::NEG_INFINITY);
    for (i, &d) in delta[t_len - 1].iter().enumerate() {
        if d > log_prob {
            log_prob = d;
            last = i;
        }
    }
    let mut states = vec![0usize; t_len];
    states[t_len - 1] = last;
    for t in (0..t_len - 1).rev() {
        states[t] = psi[t + 1][states[t + 1]];
    }
    ViterbiPath { states, log_prob }
}

/// Reusable buffers for [`viterbi_last_in`]: two rolling rows of the
/// `delta` trellis. Cleared and refilled on every call — reuse never
/// changes a result, it only skips the per-call allocations.
#[derive(Debug, Clone, Default)]
pub struct ViterbiScratch {
    prev: Vec<f64>,
    cur: Vec<f64>,
}

impl ViterbiScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        ViterbiScratch::default()
    }
}

/// Natural logs of an [`Hmm`]'s parameters (`ln 0 = -inf`), row-major
/// like the model. A fitted model's tables are computed once, so the
/// Viterbi trellis loop reads them instead of calling `ln` on `A`, `B`
/// and `pi` at every observation step; `ln` is a pure function, so the
/// decode is bit-identical either way.
#[derive(Debug, Clone, Default)]
pub struct HmmLogs {
    num_states: usize,
    num_symbols: usize,
    ln_a: Vec<f64>,
    ln_b: Vec<f64>,
    ln_pi: Vec<f64>,
}

impl HmmLogs {
    /// The log tables of `hmm`.
    pub fn new(hmm: &Hmm) -> Self {
        let ln = |&p: &f64| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY };
        HmmLogs {
            num_states: hmm.num_states,
            num_symbols: hmm.num_symbols,
            ln_a: hmm.a.iter().flatten().map(ln).collect(),
            ln_b: hmm.b.iter().flatten().map(ln).collect(),
            ln_pi: hmm.pi.iter().map(ln).collect(),
        }
    }

    fn ln_a(&self, i: usize, j: usize) -> f64 {
        self.ln_a[i * self.num_states + j]
    }

    fn ln_b(&self, j: usize, k: usize) -> f64 {
        self.ln_b[j * self.num_symbols + k]
    }
}

/// The final state of the single best path and `log P(Q*, O | lambda)`,
/// computed through caller-provided scratch without allocating.
///
/// Runs the same log-space recurrence as [`viterbi`] in the same
/// arithmetic order, so the returned pair is bit-identical to
/// `(*path.states.last().unwrap(), path.log_prob)`; it just keeps only the
/// rolling `delta` rows instead of the full trellis (the last state is the
/// arg-max of the final row — no backtrack needed). Computes `hmm`'s log
/// tables on every call; hot callers keep an [`HmmLogs`] and call
/// [`viterbi_last_logs_in`].
///
/// # Panics
///
/// Panics if `obs` is empty or contains out-of-range symbols.
pub fn viterbi_last_in(hmm: &Hmm, obs: &[usize], scratch: &mut ViterbiScratch) -> (usize, f64) {
    viterbi_last_logs_in(hmm, &HmmLogs::new(hmm), obs, scratch)
}

/// [`viterbi_last_in`] reading precomputed log tables: `logs` must be
/// [`HmmLogs::new`] of `hmm`.
///
/// # Panics
///
/// Panics if `obs` is empty or contains out-of-range symbols.
pub fn viterbi_last_logs_in(
    hmm: &Hmm,
    logs: &HmmLogs,
    obs: &[usize],
    scratch: &mut ViterbiScratch,
) -> (usize, f64) {
    assert!(!obs.is_empty(), "observation sequence must be non-empty");
    hmm.check_observations(obs);
    debug_assert!(
        logs.num_states == hmm.num_states && logs.num_symbols == hmm.num_symbols,
        "log tables of another model"
    );
    let h = hmm.num_states;
    let t_len = obs.len();

    let prev = &mut scratch.prev;
    let cur = &mut scratch.cur;
    prev.clear();
    prev.resize(h, f64::NEG_INFINITY);
    cur.clear();
    cur.resize(h, f64::NEG_INFINITY);

    for i in 0..h {
        prev[i] = logs.ln_pi[i] + logs.ln_b(i, obs[0]);
    }
    for t in 1..t_len {
        for j in 0..h {
            let mut best = f64::NEG_INFINITY;
            for i in 0..h {
                let cand = prev[i] + logs.ln_a(i, j);
                if cand > best {
                    best = cand;
                }
            }
            cur[j] = best + logs.ln_b(j, obs[t]);
        }
        std::mem::swap(prev, cur);
    }

    let (mut last, mut log_prob) = (0usize, f64::NEG_INFINITY);
    for (i, &d) in prev.iter().enumerate() {
        if d > log_prob {
            log_prob = d;
            last = i;
        }
    }
    (last, log_prob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_model() -> Hmm {
        Hmm::new(
            vec![vec![0.7, 0.3], vec![0.4, 0.6]],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![0.6, 0.4],
        )
    }

    /// Brute-force the best path by enumeration.
    fn best_path_brute(hmm: &Hmm, obs: &[usize]) -> (Vec<usize>, f64) {
        let h = hmm.num_states;
        let t_len = obs.len();
        let mut best_p = f64::NEG_INFINITY;
        let mut best_path = Vec::new();
        for code in 0..(h as u64).pow(t_len as u32) {
            let mut c = code;
            let mut path = Vec::with_capacity(t_len);
            for _ in 0..t_len {
                path.push((c % h as u64) as usize);
                c /= h as u64;
            }
            let mut p = (hmm.pi[path[0]] * hmm.b[path[0]][obs[0]]).ln();
            for t in 1..t_len {
                p += (hmm.a[path[t - 1]][path[t]] * hmm.b[path[t]][obs[t]]).ln();
            }
            if p > best_p {
                best_p = p;
                best_path = path;
            }
        }
        (best_path, best_p)
    }

    #[test]
    fn viterbi_matches_brute_force() {
        let hmm = test_model();
        for obs in [
            vec![0],
            vec![1, 0],
            vec![0, 1, 1],
            vec![1, 1, 0, 0, 1],
            vec![0, 0, 0, 1, 1, 1],
        ] {
            let v = viterbi(&hmm, &obs);
            let (path, p) = best_path_brute(&hmm, &obs);
            assert!((v.log_prob - p).abs() < 1e-9, "obs {obs:?}");
            assert_eq!(v.states, path, "obs {obs:?}");
        }
    }

    #[test]
    fn decodes_obvious_emissions() {
        // Symbol 0 is overwhelmingly from state 0, symbol 1 from state 1.
        let hmm = Hmm::new(
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            vec![vec![0.99, 0.01], vec![0.01, 0.99]],
            vec![0.5, 0.5],
        );
        let v = viterbi(&hmm, &[0, 0, 1, 1, 0]);
        assert_eq!(v.states, vec![0, 0, 1, 1, 0]);
    }

    #[test]
    fn sticky_transitions_smooth_the_path() {
        // With extremely sticky states and mildly informative emissions, a
        // single discordant observation should not flip the state.
        let hmm = Hmm::new(
            vec![vec![0.99, 0.01], vec![0.01, 0.99]],
            vec![vec![0.6, 0.4], vec![0.4, 0.6]],
            vec![0.5, 0.5],
        );
        let v = viterbi(&hmm, &[0, 0, 1, 0, 0]);
        assert_eq!(v.states, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn log_prob_is_nonpositive() {
        let v = viterbi(&test_model(), &[0, 1, 0, 1]);
        assert!(v.log_prob <= 0.0);
    }

    #[test]
    fn handles_long_sequences_without_underflow() {
        let obs: Vec<usize> = (0..10_000).map(|t| (t / 11) % 2).collect();
        let v = viterbi(&test_model(), &obs);
        assert_eq!(v.states.len(), obs.len());
        assert!(v.log_prob.is_finite());
    }

    #[test]
    fn impossible_observation_yields_neg_infinity() {
        // State emissions that cannot produce symbol 1 at all.
        let hmm = Hmm::new(vec![vec![1.0]], vec![vec![1.0, 0.0]], vec![1.0]);
        let v = viterbi(&hmm, &[0, 1]);
        assert_eq!(v.log_prob, f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_sequence() {
        viterbi(&test_model(), &[]);
    }

    #[test]
    fn last_state_in_is_bit_identical_to_full_decode() {
        let hmm = test_model();
        let mut scratch = ViterbiScratch::new();
        // Reusing one scratch across calls of different lengths must keep
        // every result bit-identical to the allocating path.
        for obs in [
            vec![0],
            vec![1, 0],
            vec![0, 1, 1],
            vec![1, 1, 0, 0, 1],
            vec![0, 0, 0, 1, 1, 1],
            (0..500).map(|t| (t / 7) % 2).collect::<Vec<_>>(),
        ] {
            let full = viterbi(&hmm, &obs);
            let (last, log_prob) = viterbi_last_in(&hmm, &obs, &mut scratch);
            assert_eq!(last, *full.states.last().unwrap(), "obs {obs:?}");
            assert_eq!(log_prob.to_bits(), full.log_prob.to_bits(), "obs {obs:?}");
        }
    }

    #[test]
    #[should_panic]
    fn last_state_in_rejects_empty_sequence() {
        viterbi_last_in(&test_model(), &[], &mut ViterbiScratch::new());
    }
}
