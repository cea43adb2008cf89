//! The MVM emission kernel.
//!
//! For every signal sample `x`, the decoder needs the emission log-likelihood
//! of each k-mer state. Writing the Gaussian log-density as a dot product
//! against the feature vector `[x², x, 1]` turns the whole per-sample
//! computation into one matrix–vector multiplication with a `states × 3`
//! weight matrix — the exact operation the paper's NVM crossbars perform
//! in-situ (Section 2.2, Figure 2). `genpip-pim` replays these MVMs on its
//! crossbar model; this module is the functional reference.

use genpip_signal::PoreModel;

/// Emission weight matrix: row `s` holds the Gaussian log-density
/// coefficients for state `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct EmissionModel {
    /// Flattened `states × 3` weight matrix, row-major.
    weights: Vec<f32>,
    /// The same matrix column-major (`[w0; states] ++ [w1; states] ++
    /// [w2; states]`), so the Viterbi row kernel reads each coefficient as
    /// one contiguous run across the state axis.
    columns: Vec<f32>,
    states: usize,
    assumed_std: f32,
}

impl EmissionModel {
    /// Number of matrix columns (the feature vector `[x², x, 1]` length).
    pub const FEATURES: usize = 3;

    /// Builds the emission matrix from a pore model.
    ///
    /// The decoder assumes the model's nominal event standard deviation; a
    /// read whose true noise is higher produces systematically lower
    /// likelihoods (and therefore lower quality scores), which is exactly the
    /// behaviour read quality control exploits.
    pub fn from_pore_model(model: &PoreModel) -> EmissionModel {
        let states = model.states();
        let sigma = model.event_std();
        let inv2s2 = 1.0 / (2.0 * sigma * sigma);
        let mut weights = Vec::with_capacity(states * Self::FEATURES);
        for s in 0..states {
            let mu = model.level_bits(s as u64);
            weights.push(-inv2s2); // coefficient of x²
            weights.push(2.0 * mu * inv2s2); // coefficient of x
            weights.push(-mu * mu * inv2s2); // constant term
        }
        let columns = (0..Self::FEATURES)
            .flat_map(|f| weights.iter().skip(f).step_by(Self::FEATURES).copied())
            .collect();
        EmissionModel {
            weights,
            columns,
            states,
            assumed_std: sigma,
        }
    }

    /// Number of states (matrix rows).
    #[inline]
    pub fn states(&self) -> usize {
        self.states
    }

    /// The noise level the decoder assumes (pA).
    #[inline]
    pub fn assumed_std(&self) -> f32 {
        self.assumed_std
    }

    /// The flattened row-major `states × 3` weight matrix — what gets
    /// programmed into the PIM crossbar.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The weight matrix as three per-state columns `[w0, w1, w2]` (the
    /// coefficients of `x²`, `x` and `1`), each `states()` long.
    pub(crate) fn columns(&self) -> [&[f32]; 3] {
        let (w0, rest) = self.columns.split_at(self.states);
        let (w1, w2) = rest.split_at(self.states);
        [w0, w1, w2]
    }

    /// The feature vector for a sample.
    #[inline]
    pub fn features(x: f32) -> [f32; 3] {
        [x * x, x, 1.0]
    }

    /// Computes emission log-likelihoods (up to a state-independent constant)
    /// for all states into `out` — one MVM.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.states()`.
    pub fn log_likelihoods(&self, x: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.states, "output buffer size mismatch");
        let f = Self::features(x);
        for (s, o) in out.iter_mut().enumerate() {
            let row = &self.weights[s * Self::FEATURES..(s + 1) * Self::FEATURES];
            *o = row[0] * f[0] + row[1] * f[1] + row[2] * f[2];
        }
    }

    /// Emission log-likelihood of a single state (reference implementation
    /// for tests; the decoder uses [`EmissionModel::log_likelihoods`]).
    pub fn log_likelihood(&self, x: f32, state: usize) -> f32 {
        assert!(state < self.states, "state out of range");
        let f = Self::features(x);
        let row = &self.weights[state * Self::FEATURES..(state + 1) * Self::FEATURES];
        row[0] * f[0] + row[1] * f[1] + row[2] * f[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (PoreModel, EmissionModel) {
        let pore = PoreModel::synthetic(3, 7);
        let em = EmissionModel::from_pore_model(&pore);
        (pore, em)
    }

    #[test]
    fn dimensions_match_pore_model() {
        let (pore, em) = model();
        assert_eq!(em.states(), pore.states());
        assert_eq!(em.weights().len(), pore.states() * 3);
    }

    #[test]
    fn mvm_equals_gaussian_log_density_up_to_constant() {
        let (pore, em) = model();
        let sigma = pore.event_std();
        let x = 87.3f32;
        let mut out = vec![0.0f32; em.states()];
        em.log_likelihoods(x, &mut out);
        for s in 0..em.states() {
            let mu = pore.level_bits(s as u64);
            let expected = -((x - mu) * (x - mu)) / (2.0 * sigma * sigma);
            assert!(
                (out[s] - expected).abs() < 1e-2,
                "state {s}: {} vs {expected}",
                out[s]
            );
        }
    }

    #[test]
    fn correct_state_has_highest_likelihood_at_its_level() {
        let (pore, em) = model();
        let mut out = vec![0.0f32; em.states()];
        for s in [0usize, 17, 63] {
            let x = pore.level_bits(s as u64);
            em.log_likelihoods(x, &mut out);
            let best = out
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(best, s);
        }
    }

    #[test]
    fn single_state_matches_batch() {
        let (_, em) = model();
        let mut out = vec![0.0f32; em.states()];
        em.log_likelihoods(100.0, &mut out);
        for s in 0..em.states() {
            assert_eq!(em.log_likelihood(100.0, s), out[s]);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_buffer_size_panics() {
        let (_, em) = model();
        let mut out = vec![0.0f32; 3];
        em.log_likelihoods(100.0, &mut out);
    }
}
