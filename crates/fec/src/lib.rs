//! # heap-fec
//!
//! Systematic forward-error-correction substrate for the HEAP reproduction.
//!
//! The paper's streaming application groups the stream into FEC-encoded
//! windows of **101 source packets plus 9 parity packets** (systematic
//! coding): a window can be fully decoded from *any* 101 of its 110 packets,
//! and because the code is systematic a window that cannot be decoded still
//! yields every source packet that was received verbatim.
//!
//! The crate implements that scheme from scratch:
//!
//! * [`gf256`] — arithmetic over GF(2⁸) with the primitive polynomial
//!   `x⁸+x⁴+x³+x²+1` (0x11D),
//! * [`matrix`] — dense matrices over GF(2⁸) with Gauss–Jordan inversion,
//! * [`rs`] — a systematic Reed–Solomon erasure code built from a
//!   Vandermonde matrix,
//! * [`window`] — the 101+9 window codec used by `heap-streaming`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod gf256;
pub mod matrix;
pub mod rs;
pub mod window;

pub use rs::{DecodeWorkspace, ReedSolomon, RsError};
pub use window::{WindowDecoder, WindowEncoder, WindowParams};
