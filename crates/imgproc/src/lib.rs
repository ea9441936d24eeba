#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Grayscale image utilities for the system-level aging study.
//!
//! The paper quantifies aging by pushing images through a gate-level
//! DCT→IDCT chain and measuring PSNR (Sec. 5, Figs. 6(c) and 7). Its test
//! images come from a proprietary video-trace archive; this crate
//! substitutes deterministic *procedural* images with natural-image-like
//! statistics (smooth gradients, edges, texture) plus PGM I/O so results
//! can be inspected visually.
//!
//! # Example
//!
//! ```
//! use imgproc::{psnr, GrayImage};
//!
//! let a = imgproc::synthetic::test_image(64, 64, 7);
//! let b = a.clone();
//! assert_eq!(psnr(&a, &b), f64::INFINITY);
//!
//! let mut c = a.clone();
//! c.set(0, 0, a.get(0, 0).wrapping_add(60));
//! assert!(psnr(&a, &c).is_finite());
//! # let _ = GrayImage::new(8, 8);
//! ```

mod image;
mod metrics;
mod pgm;
pub mod synthetic;

pub use image::GrayImage;
pub use metrics::{mse, psnr};
pub use pgm::{parse_pgm, write_pgm, PgmError};

/// PSNR (dB) conventionally considered the threshold of acceptable image
/// quality — the paper's lifetime criterion.
pub const ACCEPTABLE_PSNR_DB: f64 = 30.0;
