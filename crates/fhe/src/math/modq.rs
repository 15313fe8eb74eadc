//! 64-bit modular arithmetic and prime generation.
//!
//! The RNS modulus chain of the BGV backend is a list of distinct odd
//! word-sized primes; this module provides the arithmetic (via `u128`
//! widening) and a deterministic Miller–Rabin test valid for all `u64`.

/// `(a + b) mod q`.
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    let s = a as u128 + b as u128;
    (s % q as u128) as u64
}

/// `(a - b) mod q`.
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    let (a, b) = (a % q, b % q);
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// `(a * b) mod q` via 128-bit widening.
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// `a^e mod q` by square-and-multiply.
pub fn pow_mod(mut a: u64, mut e: u64, q: u64) -> u64 {
    if q == 1 {
        return 0;
    }
    let mut r = 1u64;
    a %= q;
    while e > 0 {
        if e & 1 == 1 {
            r = mul_mod(r, a, q);
        }
        a = mul_mod(a, a, q);
        e >>= 1;
    }
    r
}

/// Modular inverse of `a` mod `q` via the extended Euclidean algorithm.
///
/// Returns `None` when `gcd(a, q) != 1`.
pub fn inv_mod(a: u64, q: u64) -> Option<u64> {
    let (mut old_r, mut r) = (a as i128, q as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let quot = old_r / r;
        (old_r, r) = (r, old_r - quot * r);
        (old_s, s) = (s, old_s - quot * s);
    }
    if old_r != 1 {
        return None;
    }
    Some(old_s.rem_euclid(q as i128) as u64)
}

/// Greatest common divisor by the Euclidean algorithm
/// (`gcd(0, 0) = 0`).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Centered representative of `a mod q` in `(-q/2, q/2]`.
#[inline]
pub fn center(a: u64, q: u64) -> i64 {
    let a = a % q;
    if a > q / 2 {
        a as i64 - q as i64
    } else {
        a as i64
    }
}

/// Deterministic Miller–Rabin for all 64-bit integers.
///
/// Uses the well-known 12-base witness set, which is exhaustive for
/// `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Multiplicative order of `a` modulo prime `m`.
///
/// # Panics
///
/// Panics if `gcd(a, m) != 1` (the order is then undefined).
pub fn multiplicative_order(a: u64, m: u64) -> u64 {
    assert!(m > 1);
    let a = a % m;
    assert!(a != 0, "order undefined for a = 0 mod m");
    let mut x = a;
    let mut ord = 1u64;
    while x != 1 {
        x = mul_mod(x, a, m);
        ord += 1;
        assert!(ord <= m, "no order found: a and m not coprime?");
    }
    ord
}

/// Generates `count` distinct odd primes, descending from just below
/// `2^bits`.
///
/// # Panics
///
/// Panics if `bits` is not in `3..=62` or if the range below `2^bits`
/// cannot supply enough primes.
pub fn chain_primes(bits: u32, count: usize) -> Vec<u64> {
    assert!((3..=62).contains(&bits), "bits must be in 3..=62");
    let mut primes = Vec::with_capacity(count);
    let mut candidate = (1u64 << bits) - 1;
    while primes.len() < count {
        assert!(
            candidate > (1u64 << (bits - 1)),
            "exhausted {bits}-bit prime range"
        );
        if is_prime(candidate) {
            primes.push(candidate);
        }
        candidate -= 2;
    }
    primes
}

/// Generates `count` distinct **NTT-friendly** primes
/// `q ≡ 1 (mod 2^two_adic_order)`, descending from just below
/// `2^bits`. Such a prime's multiplicative group contains a root of
/// unity of any power-of-two order up to `2^two_adic_order`, so an
/// [`NttPlan`](crate::math::ntt::NttPlan) of that size always exists
/// for it.
///
/// # Panics
///
/// Panics if `bits` is not in `3..=62`, if `two_adic_order >= bits`
/// (no candidate of the right residue class fits the range), or if
/// the range below `2^bits` cannot supply enough primes.
pub fn ntt_chain_primes(bits: u32, count: usize, two_adic_order: u32) -> Vec<u64> {
    assert!((3..=62).contains(&bits), "bits must be in 3..=62");
    assert!(
        two_adic_order < bits,
        "2-adic order {two_adic_order} leaves no {bits}-bit candidates"
    );
    let primes: Vec<u64> = ntt_primes_below(bits, two_adic_order).take(count).collect();
    assert!(
        primes.len() == count,
        "exhausted {bits}-bit primes with 2-adicity {two_adic_order}"
    );
    primes
}

/// The `bits`-bit primes `q ≡ 1 (mod 2^two_adic_order)` in descending
/// order from just below `2^bits`: the candidates [`ntt_chain_primes`]
/// takes its chain from, as a lazy sequence that ends where the range
/// does (at once when `two_adic_order >= bits`).
pub fn ntt_primes_below(bits: u32, two_adic_order: u32) -> impl Iterator<Item = u64> {
    let step = 1u64 << two_adic_order;
    let floor = 1u64 << (bits - 1);
    // Largest k * 2^s + 1 below 2^bits.
    let top = (((1u64 << bits) - 2) / step) * step + 1;
    std::iter::successors(Some(top), move |&c| c.checked_sub(step))
        .take_while(move |&c| c > floor)
        .filter(|&c| is_prime(c))
}

/// Generates `count` distinct primes with `2n | q - 1` for a
/// power-of-two ring degree `n`, descending from just below `2^bits`.
///
/// These are the chain primes of the **negacyclic** ring flavor
/// `Z_q[X]/(X^n + 1)`: a primitive `2n`-th root of unity `ψ` exists in
/// `Z_q^*`, so an [`NttPlan`](crate::math::ntt::NttPlan) of size
/// exactly `n` with `ψ` twist tables always exists — no zero padding
/// to `next_pow2(2n - 1)` needed. (Compare
/// [`ntt_chain_primes`], which the prime-cyclotomic flavor calls with
/// the padded transform's 2-adic order.)
///
/// # Panics
///
/// Panics if `n` is not a power of two `>= 2` or the constraints of
/// [`ntt_chain_primes`] are violated (`bits` outside `3..=62`, or the
/// 2-adicity `log2(2n)` leaving no `bits`-sized candidates).
pub fn negacyclic_chain_primes(bits: u32, count: usize, n: usize) -> Vec<u64> {
    assert!(
        n.is_power_of_two() && n >= 2,
        "negacyclic ring degree must be 2^k >= 2"
    );
    ntt_chain_primes(bits, count, (2 * n).trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_recognized() {
        for p in [2u64, 3, 5, 7, 11, 101, 127, 257, 65537] {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in [0u64, 1, 4, 9, 100, 255, 65535] {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn large_prime_and_carmichael() {
        assert!(is_prime((1u64 << 61) - 1)); // Mersenne prime M61
        assert!(!is_prime(561)); // Carmichael number
        assert!(!is_prime(3_215_031_751)); // strong pseudoprime to bases 2,3,5,7
    }

    #[test]
    fn pow_mod_matches_naive() {
        for a in 1u64..20 {
            for e in 0u64..10 {
                let q = 1009;
                let naive = (0..e).fold(1u64, |acc, _| acc * a % q);
                assert_eq!(pow_mod(a, e, q), naive);
            }
        }
    }

    #[test]
    fn inv_mod_inverts() {
        let q = 1_000_003;
        for a in [1u64, 2, 17, 999_999, 123_456] {
            let inv = inv_mod(a, q).unwrap();
            assert_eq!(mul_mod(a, inv, q), 1);
        }
        assert_eq!(inv_mod(6, 9), None);
        assert_eq!(inv_mod(0, 7), None);
    }

    #[test]
    fn center_is_symmetric() {
        assert_eq!(center(0, 7), 0);
        assert_eq!(center(3, 7), 3);
        assert_eq!(center(4, 7), -3);
        assert_eq!(center(6, 7), -1);
    }

    #[test]
    fn order_of_two_in_small_groups() {
        assert_eq!(multiplicative_order(2, 7), 3); // 2,4,1
        assert_eq!(multiplicative_order(2, 127), 7); // 2^7 = 128 = 1 mod 127
        assert_eq!(multiplicative_order(2, 257), 16);
        assert_eq!(multiplicative_order(3, 7), 6); // generator
    }

    #[test]
    fn chain_primes_are_distinct_odd_primes() {
        let ps = chain_primes(25, 10);
        assert_eq!(ps.len(), 10);
        for &p in &ps {
            assert!(is_prime(p));
            assert!(p % 2 == 1);
            assert!(p < (1 << 25) && p > (1 << 24));
        }
        let mut dedup = ps.clone();
        dedup.dedup();
        assert_eq!(dedup, ps);
    }

    #[test]
    fn ntt_chain_primes_have_the_required_two_adicity() {
        for (bits, s) in [(20u32, 6u32), (25, 8), (45, 11)] {
            let ps = ntt_chain_primes(bits, 5, s);
            assert_eq!(ps.len(), 5);
            for &p in &ps {
                assert!(is_prime(p));
                assert_eq!((p - 1) % (1 << s), 0, "{p} lacks 2-adicity {s}");
                assert!(p < (1 << bits) && p > (1 << (bits - 1)));
            }
            let mut dedup = ps.clone();
            dedup.dedup();
            assert_eq!(dedup, ps);
        }
    }

    #[test]
    #[should_panic(expected = "leaves no")]
    fn ntt_chain_primes_rejects_oversized_two_adicity() {
        let _ = ntt_chain_primes(10, 1, 10);
    }

    #[test]
    fn negacyclic_chain_primes_admit_a_2n_th_root() {
        for n in [8usize, 16, 64, 128] {
            let ps = negacyclic_chain_primes(25, 4, n);
            assert_eq!(ps.len(), 4);
            for &p in &ps {
                assert!(is_prime(p));
                assert_eq!((p - 1) % (2 * n as u64), 0, "{p} lacks 2n | q - 1");
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^k >= 2")]
    fn negacyclic_chain_primes_rejects_non_power_of_two_degree() {
        let _ = negacyclic_chain_primes(25, 1, 24);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn sub_mod_wraps() {
        assert_eq!(sub_mod(2, 5, 7), 4);
        assert_eq!(sub_mod(5, 2, 7), 3);
        assert_eq!(sub_mod(0, 0, 7), 0);
    }
}
