//! Encryption parameter model (paper Table 5).
//!
//! HElib's BGV instantiation is configured by three knobs the paper
//! sweeps in its sensitivity analysis: the *security parameter*, the
//! *number of bits in the modulus chain*, and the *number of columns in
//! the key-switching matrices*. This module reproduces that parameter
//! space and the engineering trade-offs each knob controls:
//!
//! * more modulus bits → deeper circuits supported, but larger
//!   ciphertexts and slower arithmetic;
//! * higher security → larger ring dimension for the same modulus,
//!   slower arithmetic;
//! * more key-switching columns → fewer, faster key-switch digits but
//!   more noise per switch (one level of depth lost beyond 3 columns;
//!   fewer than 3 columns costs extra digit multiplications).
//!
//! The derived quantities ([`depth_budget`](EncryptionParams::depth_budget),
//! [`ring_dimension`](EncryptionParams::ring_dimension),
//! [`cost_model`](EncryptionParams::cost_model)) follow the standard
//! BGV/HElib sizing heuristics (~25–30 modulus bits consumed per
//! multiplicative level; LWE security roughly proportional to
//! `dimension / log2(q)`). They are a calibrated model, not a security
//! proof; see docs/PARAMETERS.md.

use crate::cost::CostModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Bits of security requested from the LWE instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SecurityLevel {
    /// 80-bit (legacy, fast).
    Bits80,
    /// 128-bit (the paper's choice).
    Bits128,
    /// 192-bit (conservative).
    Bits192,
}

impl SecurityLevel {
    /// Numeric value of the level.
    pub fn bits(self) -> u32 {
        match self {
            SecurityLevel::Bits80 => 80,
            SecurityLevel::Bits128 => 128,
            SecurityLevel::Bits192 => 192,
        }
    }

    /// All levels, ascending.
    pub const ALL: [SecurityLevel; 3] = [
        SecurityLevel::Bits80,
        SecurityLevel::Bits128,
        SecurityLevel::Bits192,
    ];
}

impl fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bits())
    }
}

/// A BGV parameter point: the three knobs of paper Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EncryptionParams {
    /// Security parameter (bits).
    pub security: SecurityLevel,
    /// Total bits in the ciphertext modulus chain.
    pub modulus_bits: u32,
    /// Columns in the key-switching matrices.
    pub ks_columns: u32,
}

/// Modulus bits consumed by the top/bottom special primes.
const CHAIN_OVERHEAD_BITS: u32 = 50;
/// Modulus bits consumed per multiplicative level.
const BITS_PER_LEVEL: u32 = 25;
/// LWE hardness heuristic: `security ~ RATE * dimension / modulus_bits`.
const LWE_RATE: f64 = 7.2;
/// Modeled GF(2) slot fraction of the ring dimension (slot count =
/// `phi(m) / ord_m(2)`; HElib parameter searches typically land near
/// `ord = 16`).
const SLOT_FRACTION: usize = 16;

impl EncryptionParams {
    /// The single parameter set the paper found to dominate its sweep
    /// (Table 5): security 128, 400 modulus bits, 3 key-switch columns.
    pub fn paper_optimal() -> Self {
        Self {
            security: SecurityLevel::Bits128,
            modulus_bits: 400,
            ks_columns: 3,
        }
    }

    /// Maximum ciphertext-ciphertext multiplicative depth this chain
    /// supports. Beyond 3 key-switch columns, each extra column widens
    /// the decomposition digits enough to cost two levels of noise
    /// headroom.
    pub fn depth_budget(&self) -> u32 {
        let levels = self.modulus_bits.saturating_sub(CHAIN_OVERHEAD_BITS) / BITS_PER_LEVEL;
        levels.saturating_sub(2 * self.ks_columns.saturating_sub(3))
    }

    /// Smallest power-of-two ring dimension meeting the LWE security
    /// heuristic for this modulus size.
    pub fn ring_dimension(&self) -> usize {
        let min = (self.security.bits() as f64 * self.modulus_bits as f64 / LWE_RATE).ceil();
        let mut dim = 1024usize;
        while (dim as f64) < min {
            dim *= 2;
        }
        dim
    }

    /// Modeled usable GF(2) SIMD slots per ciphertext.
    pub fn slot_capacity(&self) -> usize {
        self.ring_dimension() / SLOT_FRACTION
    }

    /// Latency model scaled from the paper-optimal baseline.
    ///
    /// Polynomial arithmetic scales with `dimension * modulus_bits`
    /// (number-theoretic transforms over the chain); key-switch-heavy
    /// operations (rotate, ct-ct multiply) additionally scale with the
    /// digit count implied by the key-switching column choice.
    pub fn cost_model(&self) -> CostModel {
        let base = CostModel::helib_bgv_128();
        let reference = EncryptionParams::paper_optimal();
        let poly = (self.ring_dimension() as f64 / reference.ring_dimension() as f64)
            * (self.modulus_bits as f64 / reference.modulus_bits as f64);
        let ks = Self::ks_digit_factor(self.ks_columns) / Self::ks_digit_factor(3);
        CostModel {
            encrypt_us: base.encrypt_us * poly,
            decrypt_us: base.decrypt_us * poly,
            rotate_us: base.rotate_us * poly * ks,
            add_us: base.add_us * poly,
            constant_add_us: base.constant_add_us * poly,
            multiply_us: base.multiply_us * poly * ks,
            constant_multiply_us: base.constant_multiply_us * poly,
        }
    }

    /// Relative key-switch work: fewer columns means more decomposition
    /// digits, hence more inner products per switch.
    fn ks_digit_factor(columns: u32) -> f64 {
        1.0 + 4.0 / columns.max(1) as f64
    }

    /// The sweep grid used by the Table 5 harness.
    pub fn sweep_grid() -> Vec<EncryptionParams> {
        let mut grid = Vec::new();
        for security in SecurityLevel::ALL {
            for modulus_bits in [200u32, 300, 400, 500, 600] {
                for ks_columns in [2u32, 3, 4] {
                    grid.push(EncryptionParams {
                        security,
                        modulus_bits,
                        ks_columns,
                    });
                }
            }
        }
        grid
    }
}

impl Default for EncryptionParams {
    fn default() -> Self {
        Self::paper_optimal()
    }
}

impl fmt::Display for EncryptionParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sec={} bits={} cols={}",
            self.security, self.modulus_bits, self.ks_columns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimal_matches_table5() {
        let p = EncryptionParams::paper_optimal();
        assert_eq!(p.security.bits(), 128);
        assert_eq!(p.modulus_bits, 400);
        assert_eq!(p.ks_columns, 3);
    }

    #[test]
    fn depth_budget_grows_with_bits() {
        let mut p = EncryptionParams::paper_optimal();
        let d400 = p.depth_budget();
        p.modulus_bits = 200;
        let d200 = p.depth_budget();
        p.modulus_bits = 600;
        let d600 = p.depth_budget();
        assert!(d200 < d400 && d400 < d600);
        // 400-bit chain supports the deepest microbenchmark circuit
        // (prec16/depth5 needs 2*4 + 3 + 2 = 13).
        assert!(d400 >= 13, "d400 = {d400}");
        // 200-bit chain does not.
        assert!(d200 < 11, "d200 = {d200}");
    }

    #[test]
    fn extra_ks_columns_cost_depth() {
        let mut p = EncryptionParams::paper_optimal();
        let d3 = p.depth_budget();
        p.ks_columns = 4;
        assert_eq!(p.depth_budget(), d3 - 2);
        p.ks_columns = 2;
        assert_eq!(p.depth_budget(), d3);
    }

    #[test]
    fn fewer_ks_columns_cost_time() {
        let mut p = EncryptionParams::paper_optimal();
        let t3 = p.cost_model().multiply_us;
        p.ks_columns = 2;
        assert!(p.cost_model().multiply_us > t3);
        p.ks_columns = 4;
        assert!(p.cost_model().multiply_us < t3);
    }

    #[test]
    fn higher_security_needs_larger_ring() {
        let lo = EncryptionParams {
            security: SecurityLevel::Bits80,
            ..EncryptionParams::paper_optimal()
        };
        let hi = EncryptionParams {
            security: SecurityLevel::Bits192,
            ..EncryptionParams::paper_optimal()
        };
        assert!(lo.ring_dimension() < hi.ring_dimension());
        assert!(lo.cost_model().multiply_us < hi.cost_model().multiply_us);
    }

    #[test]
    fn ring_dimension_is_power_of_two() {
        for p in EncryptionParams::sweep_grid() {
            assert!(p.ring_dimension().is_power_of_two());
            assert!(p.slot_capacity() > 0);
        }
    }

    #[test]
    fn sweep_grid_is_full_factorial() {
        assert_eq!(EncryptionParams::sweep_grid().len(), 3 * 5 * 3);
    }

    #[test]
    fn display_formats() {
        let p = EncryptionParams::paper_optimal();
        assert_eq!(p.to_string(), "sec=128 bits=400 cols=3");
    }
}
