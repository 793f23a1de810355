//! Arithmetic over the finite field GF(2⁸).
//!
//! Addition and subtraction are XOR; multiplication and division go through
//! exp/log tables built over the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D) with generator α = 2, the conventional
//! choice for Reed–Solomon erasure codes.
//!
//! # FEC kernel design
//!
//! The Reed–Solomon inner loop — [`mul_add_slice`], `dst[i] ^= c · src[i]` —
//! is where an erasure-coding stack spends essentially all of its CPU, so it
//! does **not** use the exp/log tables. A log/exp kernel performs two
//! dependent table loads per byte plus a branch on `src[i] == 0`; the loads
//! hit a 768-byte table and serialise on the address computation.
//!
//! Instead the kernel is *table-blocked*: because multiplication by a fixed
//! `c` is GF(2)-linear, `c · x == c · (x & 0x0F) ⊕ c · (x & 0xF0)`, so two
//! 16-entry tables (one per nibble, built once per call from the log/exp
//! tables — 30 lookups, amortised over the whole slice) replace the per-byte
//! log/exp chain. This is the portable-Rust equivalent of the `PSHUFB`
//! split-nibble trick used by ISA-L and `reed-solomon-erasure`'s SIMD paths:
//! on x86-64 the kernel *is* that trick. Three tiers are selected once at
//! runtime (`is_x86_feature_detected!`), all consuming the same two nibble
//! tables:
//!
//! * **AVX2** — `VPSHUFB` performs 32 parallel nibble lookups per
//!   instruction; 32 bytes per load/shuffle/shuffle/XOR/XOR/store.
//! * **SSSE3** — the 16-byte `PSHUFB` variant of the same loop.
//! * **Portable** — 8-byte `u64` chunks with eight independent scalar
//!   nibble lookups per chunk (no carried dependency, no branches), used on
//!   non-x86 targets and as the tail handler for the SIMD tiers.
//!
//! The scalar reference kernels are kept as
//! [`mul_add_slice_scalar`]/[`mul_slice_scalar`] and the test suite checks
//! the blocked kernel against them exhaustively for every coefficient
//! `c in 0..=255` on unaligned lengths, so every tier is proven
//! bit-identical to the log/exp semantics.

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

/// The split-nibble multiplication tables for a fixed coefficient `c`:
/// `lo[x] = c · x` for the low nibble and `hi[x] = c · (x << 4)` for the
/// high nibble, so `c · b = lo[b & 0x0F] ^ hi[b >> 4]`.
#[inline]
fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let t = tables();
    let log_c = t.log[c as usize] as usize;
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for x in 1..16usize {
        lo[x] = t.exp[log_c + t.log[x] as usize];
        hi[x] = t.exp[log_c + t.log[x << 4] as usize];
    }
    (lo, hi)
}

/// `dst[i] ^= src[i]`, processed in 8-byte `u64` chunks.
#[inline]
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let dv = u64::from_le_bytes((&*dc).try_into().expect("8-byte chunk"));
        let sv = u64::from_le_bytes(sc.try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&(dv ^ sv).to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

/// The kernel tier selected for this process (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Ssse3,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                return Kernel::Ssse3;
            }
        }
        Kernel::Portable
    })
}

/// The name of the slice-kernel tier in use, for benchmark reports.
pub fn kernel_name() -> &'static str {
    match kernel() {
        Kernel::Portable => "portable-u64",
        #[cfg(target_arch = "x86_64")]
        Kernel::Ssse3 => "ssse3-pshufb",
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => "avx2-vpshufb",
    }
}

/// Computes `dst[i] ^= c * src[i]` for every element — the inner loop of both
/// Reed–Solomon encoding and decoding.
///
/// Uses the table-blocked kernel described in the module docs; semantically
/// identical to [`mul_add_slice_scalar`].
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
        xor_slice(dst, src);
        return;
    }
    let (lo, hi) = nibble_tables(c);
    match kernel() {
        // SAFETY: `kernel()` detected AVX2 at runtime, and the lengths are
        // equal (asserted above).
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { mul_add_avx2(dst, src, &lo, &hi) },
        // SAFETY: `kernel()` detected SSSE3 at runtime, and the lengths are
        // equal (asserted above).
        #[cfg(target_arch = "x86_64")]
        Kernel::Ssse3 => unsafe { mul_add_ssse3(dst, src, &lo, &hi) },
        Kernel::Portable => mul_add_portable(dst, src, &lo, &hi),
    }
}

/// Multiplies every element of `data` by `c` in place.
///
/// Uses the same table-blocked kernel as [`mul_add_slice`]; semantically
/// identical to [`mul_slice_scalar`].
pub fn mul_slice(data: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        data.fill(0);
        return;
    }
    let (lo, hi) = nibble_tables(c);
    match kernel() {
        // SAFETY: `kernel()` detected AVX2 at runtime.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { mul_avx2(data, &lo, &hi) },
        // SAFETY: `kernel()` detected SSSE3 at runtime.
        #[cfg(target_arch = "x86_64")]
        Kernel::Ssse3 => unsafe { mul_ssse3(data, &lo, &hi) },
        Kernel::Portable => mul_portable(data, &lo, &hi),
    }
}

/// Portable tier: 8-byte `u64` chunks, eight independent nibble lookups per
/// chunk, scalar tail. Also finishes the sub-chunk tail of the SIMD tiers.
fn mul_add_portable(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let sv = u64::from_le_bytes(sc.try_into().expect("8-byte chunk"));
        let dv = u64::from_le_bytes((&*dc).try_into().expect("8-byte chunk"));
        let mut prod = [0u8; 8];
        for (i, p) in prod.iter_mut().enumerate() {
            let b = (sv >> (8 * i)) as u8;
            *p = lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize];
        }
        dc.copy_from_slice(&(dv ^ u64::from_le_bytes(prod)).to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= lo[(sb & 0x0F) as usize] ^ hi[(sb >> 4) as usize];
    }
}

fn mul_portable(data: &mut [u8], lo: &[u8; 16], hi: &[u8; 16]) {
    let mut d = data.chunks_exact_mut(8);
    for dc in &mut d {
        let dv = u64::from_le_bytes((&*dc).try_into().expect("8-byte chunk"));
        let mut prod = [0u8; 8];
        for (i, p) in prod.iter_mut().enumerate() {
            let b = (dv >> (8 * i)) as u8;
            *p = lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize];
        }
        dc.copy_from_slice(&prod);
    }
    for db in d.into_remainder().iter_mut() {
        *db = lo[(*db & 0x0F) as usize] ^ hi[(*db >> 4) as usize];
    }
}

/// AVX2 tier: `VPSHUFB` does 32 nibble lookups per instruction, so each
/// 32-byte chunk costs two loads, two shuffles, two XORs and one store.
///
/// # Safety
///
/// The CPU must support AVX2, and `src` must hold at least `dst.len()`
/// bytes: the vector loop reads `src` at every whole 32-byte chunk of `dst`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_add_avx2(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
    use std::arch::x86_64::*;
    debug_assert!(src.len() >= dst.len());
    let lo_v = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
    let hi_v = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
    let mask = _mm256_set1_epi8(0x0F);
    let chunks = dst.len() / 32;
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    for k in 0..chunks {
        let s = _mm256_loadu_si256(sp.add(k * 32).cast());
        let d = _mm256_loadu_si256(dp.add(k * 32).cast());
        let lo_idx = _mm256_and_si256(s, mask);
        let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
        let prod = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_v, lo_idx),
            _mm256_shuffle_epi8(hi_v, hi_idx),
        );
        _mm256_storeu_si256(dp.add(k * 32).cast(), _mm256_xor_si256(d, prod));
    }
    let done = chunks * 32;
    mul_add_portable(&mut dst[done..], &src[done..], lo, hi);
}

/// The in-place AVX2 tier of [`mul_slice`].
///
/// # Safety
///
/// The CPU must support AVX2. There is no length precondition: every load
/// and store lies inside `data`'s whole 32-byte chunks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2(data: &mut [u8], lo: &[u8; 16], hi: &[u8; 16]) {
    use std::arch::x86_64::*;
    let lo_v = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
    let hi_v = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
    let mask = _mm256_set1_epi8(0x0F);
    let chunks = data.len() / 32;
    let dp = data.as_mut_ptr();
    for k in 0..chunks {
        let d = _mm256_loadu_si256(dp.add(k * 32).cast());
        let lo_idx = _mm256_and_si256(d, mask);
        let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(d), mask);
        let prod = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo_v, lo_idx),
            _mm256_shuffle_epi8(hi_v, hi_idx),
        );
        _mm256_storeu_si256(dp.add(k * 32).cast(), prod);
    }
    let done = chunks * 32;
    mul_portable(&mut data[done..], lo, hi);
}

/// SSSE3 tier: the 16-byte `PSHUFB` variant of the AVX2 loop.
///
/// # Safety
///
/// The CPU must support SSSE3, and `src` must hold at least `dst.len()`
/// bytes: the vector loop reads `src` at every whole 16-byte chunk of `dst`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn mul_add_ssse3(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
    use std::arch::x86_64::*;
    debug_assert!(src.len() >= dst.len());
    let lo_v = _mm_loadu_si128(lo.as_ptr().cast());
    let hi_v = _mm_loadu_si128(hi.as_ptr().cast());
    let mask = _mm_set1_epi8(0x0F);
    let chunks = dst.len() / 16;
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    for k in 0..chunks {
        let s = _mm_loadu_si128(sp.add(k * 16).cast());
        let d = _mm_loadu_si128(dp.add(k * 16).cast());
        let lo_idx = _mm_and_si128(s, mask);
        let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
        let prod = _mm_xor_si128(
            _mm_shuffle_epi8(lo_v, lo_idx),
            _mm_shuffle_epi8(hi_v, hi_idx),
        );
        _mm_storeu_si128(dp.add(k * 16).cast(), _mm_xor_si128(d, prod));
    }
    let done = chunks * 16;
    mul_add_portable(&mut dst[done..], &src[done..], lo, hi);
}

/// The in-place SSSE3 tier of [`mul_slice`].
///
/// # Safety
///
/// The CPU must support SSSE3. There is no length precondition: every load
/// and store lies inside `data`'s whole 16-byte chunks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn mul_ssse3(data: &mut [u8], lo: &[u8; 16], hi: &[u8; 16]) {
    use std::arch::x86_64::*;
    let lo_v = _mm_loadu_si128(lo.as_ptr().cast());
    let hi_v = _mm_loadu_si128(hi.as_ptr().cast());
    let mask = _mm_set1_epi8(0x0F);
    let chunks = data.len() / 16;
    let dp = data.as_mut_ptr();
    for k in 0..chunks {
        let d = _mm_loadu_si128(dp.add(k * 16).cast());
        let lo_idx = _mm_and_si128(d, mask);
        let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(d), mask);
        let prod = _mm_xor_si128(
            _mm_shuffle_epi8(lo_v, lo_idx),
            _mm_shuffle_epi8(hi_v, hi_idx),
        );
        _mm_storeu_si128(dp.add(k * 16).cast(), prod);
    }
    let done = chunks * 16;
    mul_portable(&mut data[done..], lo, hi);
}

/// The per-byte log/exp reference implementation of [`mul_add_slice`].
///
/// Kept as the ground truth the blocked kernel is tested against (and as a
/// readable statement of the semantics); not used on the hot path.
pub fn mul_add_slice_scalar(dst: &mut [u8], src: &[u8], c: u8) {
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

/// The per-byte log/exp reference implementation of [`mul_slice`].
pub fn mul_slice_scalar(data: &mut [u8], c: u8) {
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

    #[test]
    fn nibble_tables_cover_every_product() {
        for c in 0..=255u8 {
            if c == 0 {
                continue;
            }
            let (lo, hi) = nibble_tables(c);
            for b in 0..=255u8 {
                assert_eq!(
                    lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize],
                    mul(c, b),
                    "c={c} b={b}"
                );
            }
        }
    }

    /// The blocked kernel must agree with the scalar reference for *every*
    /// coefficient and for lengths that exercise both the `u64` body and the
    /// scalar tail (1..64 covers all `len % 8` residues several times over).
    #[test]
    fn blocked_mul_add_matches_scalar_exhaustively() {
        let src: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let base: Vec<u8> = (0..64u32).map(|i| (i * 101 + 3) as u8).collect();
        for c in 0..=255u8 {
            for len in 1..=64usize {
                let mut fast = base[..len].to_vec();
                let mut slow = base[..len].to_vec();
                mul_add_slice(&mut fast, &src[..len], c);
                mul_add_slice_scalar(&mut slow, &src[..len], c);
                assert_eq!(fast, slow, "mul_add c={c} len={len}");
            }
        }
    }

    #[test]
    fn blocked_mul_slice_matches_scalar_exhaustively() {
        let base: Vec<u8> = (0..64u32).map(|i| (i * 59 + 7) as u8).collect();
        for c in 0..=255u8 {
            for len in 1..=64usize {
                let mut fast = base[..len].to_vec();
                let mut slow = base[..len].to_vec();
                mul_slice(&mut fast, c);
                mul_slice_scalar(&mut slow, c);
                assert_eq!(fast, slow, "mul c={c} len={len}");
            }
        }
    }

    /// Unaligned starting offsets (sub-slices of a larger buffer) must not
    /// change the result — the kernel only assumes byte alignment.
    #[test]
    fn blocked_kernel_is_offset_independent() {
        let src: Vec<u8> = (0..80u32).map(|i| (i * 13 + 5) as u8).collect();
        let base: Vec<u8> = (0..80u32).map(|i| (i * 29 + 1) as u8).collect();
        for offset in 0..8usize {
            for c in [2u8, 0x35, 0x8E, 0xFF] {
                let len = 41;
                let mut fast = base[offset..offset + len].to_vec();
                let mut slow = fast.clone();
                mul_add_slice(&mut fast, &src[offset..offset + len], c);
                mul_add_slice_scalar(&mut slow, &src[offset..offset + len], c);
                assert_eq!(fast, slow, "offset={offset} c={c}");
            }
        }
    }

    /// Every tier available on this machine — not just the one `kernel()`
    /// picks — must match the scalar reference.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn all_simd_tiers_match_scalar() {
        let lens = [1usize, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 100];
        let src: Vec<u8> = (0..100u32).map(|i| (i * 41 + 17) as u8).collect();
        let base: Vec<u8> = (0..100u32).map(|i| (i * 89 + 5) as u8).collect();
        for c in (0..=255u8).step_by(7).chain([255]) {
            if c == 0 || c == 1 {
                continue;
            }
            let (lo, hi) = nibble_tables(c);
            for &len in &lens {
                let mut expect = base[..len].to_vec();
                mul_add_slice_scalar(&mut expect, &src[..len], c);
                let mut portable = base[..len].to_vec();
                mul_add_portable(&mut portable, &src[..len], &lo, &hi);
                assert_eq!(portable, expect, "portable c={c} len={len}");
                if std::arch::is_x86_feature_detected!("ssse3") {
                    let mut v = base[..len].to_vec();
                    // SAFETY: feature detected above; equal lengths.
                    unsafe { mul_add_ssse3(&mut v, &src[..len], &lo, &hi) };
                    assert_eq!(v, expect, "ssse3 c={c} len={len}");
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut v = base[..len].to_vec();
                    // SAFETY: feature detected above; equal lengths.
                    unsafe { mul_add_avx2(&mut v, &src[..len], &lo, &hi) };
                    assert_eq!(v, expect, "avx2 c={c} len={len}");
                }

                let mut expect = base[..len].to_vec();
                mul_slice_scalar(&mut expect, c);
                let mut portable = base[..len].to_vec();
                mul_portable(&mut portable, &lo, &hi);
                assert_eq!(portable, expect, "mul portable c={c} len={len}");
                if std::arch::is_x86_feature_detected!("ssse3") {
                    let mut v = base[..len].to_vec();
                    // SAFETY: feature detected above.
                    unsafe { mul_ssse3(&mut v, &lo, &hi) };
                    assert_eq!(v, expect, "mul ssse3 c={c} len={len}");
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut v = base[..len].to_vec();
                    // SAFETY: feature detected above.
                    unsafe { mul_avx2(&mut v, &lo, &hi) };
                    assert_eq!(v, expect, "mul avx2 c={c} len={len}");
                }
            }
        }
    }

    #[test]
    fn kernel_name_is_reported() {
        let name = kernel_name();
        assert!(["portable-u64", "ssse3-pshufb", "avx2-vpshufb"].contains(&name));
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

        /// Random slices: the blocked kernel equals the scalar reference.
        #[test]
        fn blocked_kernel_matches_scalar_on_random_input(
            c: u8,
            src in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let mut fast = vec![0xA5u8; src.len()];
            let mut slow = fast.clone();
            mul_add_slice(&mut fast, &src, c);
            mul_add_slice_scalar(&mut slow, &src, c);
            prop_assert_eq!(fast, slow);
        }
    }
}
