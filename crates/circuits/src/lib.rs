#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Benchmark circuit generators: the designs the paper evaluates.
//!
//! The paper uses five processor-class designs (VLIW, RISC with 5 and 6
//! pipeline stages, FFT, DSP) plus the DCT and IDCT circuits of its image
//! chain. Their RTL is proprietary, so this crate generates equivalent
//! datapath-dominated designs from scratch: word-level operators (ripple
//! and carry-lookahead adders, array multipliers, barrel shifters, muxes)
//! composed into AIGs with registered pipeline stages, ready for
//! [`synth::synthesize`].
//!
//! A [`Design`] couples the AIG with bus-level port metadata so workloads
//! can be encoded/decoded as integers.
//!
//! # Example
//!
//! ```
//! use circuits::Design;
//!
//! let dct = circuits::dct8();
//! assert_eq!(dct.name, "DCT");
//! // 8 signed 12-bit inputs, 8 signed 12-bit outputs.
//! assert_eq!(dct.inputs.len(), 8);
//! let v = dct.encode(&[("x0", 100), ("x1", -5)]).unwrap();
//! assert_eq!(v.len(), 96);
//! ```

mod design;
mod designs;
pub mod fixed;
pub mod word;

pub use design::{Design, DesignError, PortSpec};
pub use designs::dct::{dct8, idct8};
pub use designs::dsp::dsp_fir;
pub use designs::fft::fft_butterflies;
pub use designs::risc::{risc_5p, risc_6p};
pub use designs::vliw::vliw;

/// All seven benchmark designs of the paper's evaluation, in its order:
/// DSP, FFT, RISC-6P, RISC-5P, VLIW, DCT, IDCT.
#[must_use]
pub fn all_benchmarks() -> Vec<Design> {
    vec![dsp_fir(), fft_butterflies(), risc_6p(), risc_5p(), vliw(), dct8(), idct8()]
}
