//! Reference output digests, one per input variant, pinned from the
//! program's own entry points with `e2ebench --print-reference <workload>`.
//!
//! A change that alters any output bit of a workload fails its check:
//! the program's numbers are bitwise-stable by contract, so a deliberate
//! numeric change re-pins these tables in a change of its own.

/// `[table3, table4]` digests per variant.
const PAPER: [(u64, [u64; 2]); 4] = [
    (0, [0x70cd12325c825bce, 0xc8299b8606784200]),
    (1, [0xa98f74405b787122, 0xe16afac4bd1e6cb0]),
    (2, [0x4345c5ea8f21fbb5, 0xae49de59c7dfceef]),
    (3, [0xb14550f14e2c322e, 0x9d95aa166bf5e520]),
];

/// Scorecard digests per variant.
const SCENARIO: [(u64, [u64; 1]); 4] = [
    (0, [0x804fead0e3b82f47]),
    (1, [0xb44169af191a4235]),
    (2, [0x359ad5bf3d42b9ca]),
    (3, [0xa85f01d8351d97df]),
];

/// Desk report digests per variant.
const DESK: [(u64, [u64; 1]); 4] = [
    (0, [0x59c0b2c402df8c26]),
    (1, [0x960da99e09a2e1b1]),
    (2, [0xd854015b1d186d85]),
    (3, [0x1216b29534a06fba]),
];

fn lookup<const N: usize>(table: &[(u64, [u64; N])], variant: u64) -> [u64; N] {
    table
        .iter()
        .find(|(v, _)| *v == variant)
        .map(|(_, d)| *d)
        .unwrap_or_else(|| panic!("no reference pinned for variant {variant}"))
}

/// Table 3 and Table 4 digests of `paper-tables` for `variant`.
pub fn paper(variant: u64) -> [u64; 2] {
    lookup(&PAPER, variant)
}

/// Scorecard digest of `scenario-matrix` for `variant`.
pub fn scenario(variant: u64) -> u64 {
    lookup(&SCENARIO, variant)[0]
}

/// Report digest of `desk-rounds` for `variant`.
pub fn desk(variant: u64) -> u64 {
    lookup(&DESK, variant)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_reference() {
        for v in 0..crate::VARIANTS {
            let _ = (paper(v), scenario(v), desk(v));
        }
    }
}
