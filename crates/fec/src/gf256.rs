//! Arithmetic over the finite field GF(2⁸).
//!
//! Addition and subtraction are XOR; multiplication and division go through
//! exp/log tables built over the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D) with generator α = 2, the conventional
//! choice for Reed–Solomon erasure codes.
//!
//! # One slice kernel
//!
//! The Reed–Solomon inner loop — [`mul_add_slice`], `dst[i] ^= c · src[i]` —
//! is a plain per-byte log/exp loop: one `log` load, one `exp` load and a
//! zero test per byte. That is enough here because no simulation decodes:
//! a window counts as decodable once `decode_threshold` of its packets
//! arrive, which is exact for an MDS code. The codec runs only in the FEC
//! tests, the payload-path `StreamReassembler` (which no simulation
//! drives), the `fec_window` example and the benchmark's FEC probe. Even
//! there it encodes and decodes at tens of MiB/s or more, hundreds of times
//! the paper's 600 kbps stream. A vectorised split-nibble kernel would be
//! ~20× faster, at the cost of runtime CPU detection and per-ISA
//! intrinsics that no workload needs.

use std::sync::OnceLock;

/// The primitive polynomial used to reduce products, expressed with the x⁸
/// term included (0x11D).
pub const PRIMITIVE_POLY: u16 = 0x11D;

struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, slot) in exp.iter_mut().enumerate().take(255) {
            *slot = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        // Duplicate the table so exp[a + b] never needs a modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Adds two field elements (XOR).
///
/// # Examples
///
/// ```
/// assert_eq!(heap_fec::gf256::add(0x53, 0xCA), 0x99);
/// ```
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts two field elements (identical to [`add`] in characteristic 2).
#[inline]
pub fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
///
/// # Examples
///
/// ```
/// use heap_fec::gf256::mul;
/// assert_eq!(mul(0, 123), 0);
/// assert_eq!(mul(1, 123), 123);
/// assert_eq!(mul(2, 0x80), 0x1D); // wraps through the primitive polynomial
/// ```
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    let idx = t.log[a as usize] as usize + t.log[b as usize] as usize;
    t.exp[idx]
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b` is zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    let idx = 255 + t.log[a as usize] as usize - t.log[b as usize] as usize;
    t.exp[idx]
}

/// The multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a` is zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    div(1, a)
}

/// Raises `a` to the power `n`.
pub fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let t = tables();
    let log_a = t.log[a as usize] as u64;
    let idx = (log_a * n as u64) % 255;
    t.exp[idx as usize]
}

/// The name of the slice kernel, for benchmark reports. ROADMAP item 2(b)
/// removes it.
pub fn kernel_name() -> &'static str {
    "log-exp"
}

/// Computes `dst[i] ^= c * src[i]` for every element — the inner loop of both
/// Reed–Solomon encoding and decoding.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    let t = tables();
    let log_c = t.log[c as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= t.exp[log_c + t.log[*s as usize] as usize];
        }
    }
}

/// Multiplies every element of `data` by `c` in place.
pub fn mul_slice(data: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        data.fill(0);
        return;
    }
    let t = tables();
    let log_c = t.log[c as usize] as usize;
    for d in data.iter_mut() {
        if *d != 0 {
            *d = t.exp[log_c + t.log[*d as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_is_xor_and_self_inverse() {
        assert_eq!(add(0xAB, 0xAB), 0);
        assert_eq!(sub(0xAB, 0), 0xAB);
        for a in 0..=255u8 {
            assert_eq!(add(a, 0), a);
            assert_eq!(sub(add(a, 0x5C), 0x5C), a);
        }
    }

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = div(3, 0);
    }

    #[test]
    fn known_multiplication_values() {
        // Values checked against the standard 0x11D tables.
        assert_eq!(mul(2, 0x80), 0x1D);
        assert_eq!(pow(2, 8), 0x1D);
        assert_eq!(pow(2, 255), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(7, 0), 1);
    }

    /// The slice kernel must agree with the element-wise field definition
    /// for *every* coefficient, on every length up to 64.
    #[test]
    fn mul_add_slice_matches_field_definition_exhaustively() {
        let src: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let base: Vec<u8> = (0..64u32).map(|i| (i * 101 + 3) as u8).collect();
        for c in 0..=255u8 {
            for len in 1..=64usize {
                let mut got = base[..len].to_vec();
                mul_add_slice(&mut got, &src[..len], c);
                let want: Vec<u8> = base[..len]
                    .iter()
                    .zip(&src[..len])
                    .map(|(&d, &s)| add(d, mul(c, s)))
                    .collect();
                assert_eq!(got, want, "mul_add c={c} len={len}");
            }
        }
    }

    #[test]
    fn mul_slice_matches_field_definition_exhaustively() {
        let base: Vec<u8> = (0..64u32).map(|i| (i * 59 + 7) as u8).collect();
        for c in 0..=255u8 {
            for len in 1..=64usize {
                let mut got = base[..len].to_vec();
                mul_slice(&mut got, c);
                let want: Vec<u8> = base[..len].iter().map(|&d| mul(c, d)).collect();
                assert_eq!(got, want, "mul c={c} len={len}");
            }
        }
    }

    #[test]
    fn kernel_name_is_reported() {
        assert_eq!(kernel_name(), "log-exp");
    }

    #[test]
    fn mul_add_slice_matches_scalar_ops() {
        let src = [1u8, 2, 3, 250, 0, 77];
        let mut dst = [9u8, 8, 7, 6, 5, 4];
        let expected: Vec<u8> = dst
            .iter()
            .zip(&src)
            .map(|(&d, &s)| add(d, mul(0x35, s)))
            .collect();
        mul_add_slice(&mut dst, &src, 0x35);
        assert_eq!(dst.to_vec(), expected);
    }

    #[test]
    fn mul_add_slice_special_coefficients() {
        let src = [5u8, 6, 7];
        let mut dst = [1u8, 2, 3];
        mul_add_slice(&mut dst, &src, 0);
        assert_eq!(dst, [1, 2, 3]);
        mul_add_slice(&mut dst, &src, 1);
        assert_eq!(dst, [4, 4, 4]);
    }

    #[test]
    fn xor_fast_path_handles_long_slices() {
        let src: Vec<u8> = (0..37u32).map(|i| (i * 7) as u8).collect();
        let mut dst: Vec<u8> = (0..37u32).map(|i| (i * 3) as u8).collect();
        let expected: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ s).collect();
        mul_add_slice(&mut dst, &src, 1);
        assert_eq!(dst, expected);
    }

    #[test]
    fn mul_slice_scales_in_place() {
        let mut data = [0u8, 1, 2, 3];
        mul_slice(&mut data, 1);
        assert_eq!(data, [0, 1, 2, 3]);
        mul_slice(&mut data, 2);
        assert_eq!(data, [0, 2, 4, 6]);
        mul_slice(&mut data, 0);
        assert_eq!(data, [0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mul_add_slice_length_mismatch_panics() {
        let mut dst = [0u8; 3];
        mul_add_slice(&mut dst, &[0u8; 4], 2);
    }

    proptest! {
        #[test]
        fn mul_is_commutative_and_associative(a: u8, b: u8, c: u8) {
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }

        #[test]
        fn mul_distributes_over_add(a: u8, b: u8, c: u8) {
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }

        #[test]
        fn division_inverts_multiplication(a: u8, b in 1u8..=255) {
            prop_assert_eq!(div(mul(a, b), b), a);
        }

        #[test]
        fn pow_adds_exponents(a in 1u8..=255, m in 0u32..16, n in 0u32..16) {
            prop_assert_eq!(mul(pow(a, m), pow(a, n)), pow(a, m + n));
        }
    }
}
