//! A from-scratch leveled BGV cryptosystem with GF(2) SIMD slots.
//!
//! This is the real-lattice counterpart of the clear evaluator: the
//! substrate role HElib plays in the paper, rebuilt in three layers —
//!
//! * [`ring`] — RNS polynomial arithmetic in `Z_Q[X]/Φ_m(X)`, in two
//!   [`RingFlavor`]s: the prime cyclotomic ring (odd prime `m`) and
//!   the negacyclic power-of-two ring `Z_q[X]/(X^(m/2) + 1)`,
//!   including BGV modulus switching and digit decomposition;
//! * [`scheme`] — RLWE keys, encryption, homomorphic add/multiply with
//!   relinearisation, Galois-automorphism slot rotation (prime flavor
//!   only), and an automatic modulus-switching noise policy;
//! * [`level`] — that policy as pure functions of a ciphertext's chain
//!   position ([`LevelRule`]), which the scheme calls, and the
//!   [`AbstractBackend`] a static analyzer runs circuits on;
//! * [`backend`] — the [`FheBackend`](crate::FheBackend)
//!   implementation over the prime flavor with logical-width slot
//!   packing (masked rotations, ring-form matrix products), differentially
//!   tested against [`ClearBackend`](crate::ClearBackend). The
//!   power-of-two flavor has no GF(2) slots, so no backend runs on it.
//!
//! Parameters are demonstration-sized (`m = 31` or `m = 127`; `m = 32`
//! negacyclic); the algebra is faithful, the security level is not
//! (see docs/PARAMETERS.md).

pub mod backend;
pub mod level;
pub mod ring;
pub mod scheme;

pub use backend::{BgvBackend, BgvCiphertext, BgvPlaintext};
pub use level::{AbstractBackend, AbstractCiphertext, Level, LevelRule};
pub use ring::RingFlavor;
pub use scheme::{BgvParams, BgvScheme};
