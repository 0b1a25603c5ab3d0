//! Shared setup for the Criterion benches under `benches/`.
//!
//! Every kernel bench pins the same workload — a seeded paper-scale
//! network and a smooth deterministic state fill — so their numbers stay
//! comparable across benches and with the `spikefolio bench` regression
//! harness, which uses the identical fill (see
//! `spikefolio::profiling::bench_states`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_support {
    //! The pinned networks, states, and RNGs the kernel benches share.

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
    use spikefolio_tensor::Matrix;

    /// Paper-scale state dimension: 11 assets × window 8 × 4 channels +
    /// 12 weights.
    pub const PAPER_STATE_DIM: usize = 364;
    /// Paper-scale action dimension: 11 assets + cash.
    pub const PAPER_ACTION_DIM: usize = 12;

    /// The seeded paper-scale network (364-dim state, hidden 128 × 128,
    /// T = 5) every kernel bench runs against.
    pub fn paper_network(seed: u64) -> SdpNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        SdpNetwork::new(SdpNetworkConfig::paper(PAPER_STATE_DIM, PAPER_ACTION_DIM), &mut rng)
    }

    /// The pinned single-sample state fill: smooth values around 1.0,
    /// deterministic in the flat index.
    pub fn pinned_state(dim: usize) -> Vec<f64> {
        (0..dim).map(|i| 0.85 + 0.001 * (i % 300) as f64).collect()
    }

    /// The batched version of [`pinned_state`]: row `b` of the matrix is
    /// the same fill continued at flat offset `b * dim`.
    pub fn pinned_states(batch: usize, dim: usize) -> Matrix {
        Matrix::from_fn(batch, dim, |b, d| 0.85 + 0.001 * ((b * dim + d) % 300) as f64)
    }

    /// The pinned action-gradient batch the backward benches feed STBP.
    pub fn pinned_d_actions(batch: usize, action_dim: usize) -> Matrix {
        Matrix::from_fn(batch, action_dim, |_, a| 0.1 - 0.01 * a as f64)
    }

    /// One deterministic encoder RNG per sample, seeded by sample index.
    pub fn sample_rngs(batch: usize) -> Vec<StdRng> {
        (0..batch).map(|s| StdRng::seed_from_u64(s as u64)).collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn pinned_fills_agree_between_vector_and_matrix_forms() {
            let batch = 3;
            let m = pinned_states(batch, PAPER_STATE_DIM);
            let flat = pinned_state(batch * PAPER_STATE_DIM);
            for b in 0..batch {
                assert_eq!(m.row(b), &flat[b * PAPER_STATE_DIM..(b + 1) * PAPER_STATE_DIM]);
            }
        }

        #[test]
        fn networks_are_seed_deterministic() {
            let a = paper_network(9);
            let b = paper_network(9);
            assert_eq!(a.layers[0].weights.as_slice(), b.layers[0].weights.as_slice());
        }
    }
}
