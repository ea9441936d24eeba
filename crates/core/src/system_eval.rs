//! System-level aging evaluation: the gate-level DCT→IDCT image chain
//! (paper Sec. 5, Figs. 6(c) and 7).
//!
//! Both circuits run at a **fixed** clock period (the fresh critical path
//! of the traditionally-synthesized design — i.e. *no guardband*), while
//! their gates carry the delays of an aging scenario. Every path slower
//! than the period silently corrupts coefficients/pixels; PSNR against the
//! original image quantifies the damage.

use crate::error::EvalError;
use circuits::{fixed, Design};
use imgproc::{psnr, GrayImage};
use liberty::Library;
use logicsim::{SimError, TimedSim};
use netlist::{DelayAnnotation, Netlist};
use sta::{Constraints, StaError};

/// Builds the per-arc delay annotation of `netlist` under `library` by
/// running STA and freezing each arc's delay at its propagated input slew
/// and actual output load ([`sta::annotate`]) — the SDF-generation step of
/// the paper's flow.
///
/// A relialint pre-flight gate runs first: error diagnostics abort (as
/// [`StaError::Preflight`]), warnings are logged to stderr.
///
/// # Errors
///
/// Propagates [`StaError`].
pub fn annotation_from_sta(
    netlist: &Netlist,
    library: &Library,
    constraints: &Constraints,
) -> Result<DelayAnnotation, StaError> {
    let survivors = lint::preflight(netlist, library)
        .map_err(|e| StaError::Preflight { message: e.to_string() })?;
    for d in &survivors {
        eprintln!("[relialint] {d}");
    }
    sta::annotate(netlist, library, constraints)
}

/// The outcome of pushing an image through the gate-level chain.
#[derive(Debug, Clone)]
pub struct ImageChainResult {
    /// The decoded image.
    pub output: GrayImage,
    /// PSNR of the output against the original, in dB.
    pub psnr_db: f64,
    /// Timing-violation events observed across all four passes.
    pub late_events: usize,
}

/// The error-free software reference of the chain (fixed-point DCT→IDCT,
/// no timing): the paper's "in the absence of aging" quality bound.
#[must_use]
pub fn reference_chain(image: &GrayImage) -> GrayImage {
    let (bw, bh) = image.block_grid();
    let mut out = GrayImage::new(image.width(), image.height());
    for by in 0..bh {
        for bx in 0..bw {
            let block = image.block8(bx, by);
            let mut shifted = [[0i64; 8]; 8];
            for r in 0..8 {
                for c in 0..8 {
                    shifted[r][c] = i64::from(block[r][c]) - 128;
                }
            }
            let coeffs = fixed::dct2d(&shifted);
            let back = fixed::idct2d(&coeffs);
            let mut pixels = [[0u8; 8]; 8];
            for r in 0..8 {
                for c in 0..8 {
                    pixels[r][c] = (back[r][c] + 128).clamp(0, 255) as u8;
                }
            }
            out.set_block8(bx, by, &pixels);
        }
    }
    out
}

/// Parses PGM bytes into a [`GrayImage`] with a typed flow error — the
/// image-loading front door of the system-level study.
///
/// # Errors
///
/// Returns [`EvalError::Image`] for malformed PGM data.
pub fn image_from_pgm(bytes: &[u8]) -> Result<GrayImage, EvalError> {
    Ok(imgproc::parse_pgm(bytes)?)
}

/// Runs the full gate-level chain: 2-D DCT (rows then columns) through the
/// DCT netlist, then 2-D IDCT (columns then rows) through the IDCT
/// netlist, each 1-D transform being one clock cycle of the corresponding
/// circuit at `period` with delays from the annotations. Each netlist is
/// compiled once into a [`TimedSim`] that runs both of its passes.
///
/// # Errors
///
/// Returns [`EvalError::Design`] for port encode/decode failures and
/// [`EvalError::Simulation`] for gate-level simulation failures, among them
/// a `period` that is not positive and finite.
#[allow(clippy::too_many_arguments)]
pub fn run_image_chain(
    image: &GrayImage,
    dct_netlist: &Netlist,
    dct_design: &Design,
    idct_netlist: &Netlist,
    idct_design: &Design,
    library: &Library,
    dct_delays: &DelayAnnotation,
    idct_delays: &DelayAnnotation,
    period: f64,
) -> Result<ImageChainResult, EvalError> {
    let (bw, bh) = image.block_grid();
    let n_blocks = bw * bh;

    // Collect all blocks, level-shifted.
    let mut blocks: Vec<[[i64; 8]; 8]> = Vec::with_capacity(n_blocks);
    for by in 0..bh {
        for bx in 0..bw {
            let b = image.block8(bx, by);
            let mut s = [[0i64; 8]; 8];
            for r in 0..8 {
                for c in 0..8 {
                    s[r][c] = i64::from(b[r][c]) - 128;
                }
            }
            blocks.push(s);
        }
    }
    let sim_error = |e: SimError| EvalError::Simulation { message: e.to_string() };
    let dct = TimedSim::new(dct_netlist, library, dct_delays, None).map_err(sim_error)?;
    let idct = TimedSim::new(idct_netlist, library, idct_delays, None).map_err(sim_error)?;
    let mut late_events = 0usize;

    // Runs one 1-D pass over every block: `rows = true` transforms rows,
    // otherwise columns. Returns the transformed blocks.
    let mut pass = |sim: &TimedSim,
                    design: &Design,
                    blocks: &[[[i64; 8]; 8]],
                    rows: bool,
                    in_prefix: &str,
                    out_prefix: &str|
     -> Result<Vec<[[i64; 8]; 8]>, EvalError> {
        let clamp12 = |v: i64| v.clamp(-2048, 2047);
        let in_names: Vec<String> = (0..8).map(|j| format!("{in_prefix}{j}")).collect();
        let out_names: Vec<String> = (0..8).map(|j| format!("{out_prefix}{j}")).collect();
        let mut vectors = Vec::with_capacity(blocks.len() * 8);
        for block in blocks {
            // k indexes rows or columns of `block` depending on `rows`.
            #[allow(clippy::needless_range_loop)]
            for k in 0..8 {
                let lane: [i64; 8] =
                    std::array::from_fn(|j| if rows { block[k][j] } else { block[j][k] });
                let pairs: Vec<(&str, i64)> = in_names
                    .iter()
                    .enumerate()
                    .map(|(j, n)| (n.as_str(), clamp12(lane[j])))
                    .collect();
                vectors.push(
                    design
                        .encode(&pairs)
                        .map_err(|e| EvalError::Design { message: e.to_string() })?,
                );
            }
        }
        let run = sim.run(period, &vectors).map_err(sim_error)?;
        late_events += run.late_events;
        let mut out = vec![[[0i64; 8]; 8]; blocks.len()];
        for (cycle, bits) in run.outputs.iter().enumerate() {
            let block = cycle / 8;
            let k = cycle % 8;
            // j indexes rows or columns of `out` depending on `rows`.
            #[allow(clippy::needless_range_loop)]
            for j in 0..8 {
                let v = design
                    .decode(bits, &out_names[j])
                    .map_err(|e| EvalError::Design { message: e.to_string() })?;
                if rows {
                    out[block][k][j] = v;
                } else {
                    out[block][j][k] = v;
                }
            }
        }
        Ok(out)
    };

    // DCT: rows then columns. IDCT: columns then rows.
    let stage1 = pass(&dct, dct_design, &blocks, true, "x", "y")?;
    let stage2 = pass(&dct, dct_design, &stage1, false, "x", "y")?;
    let stage3 = pass(&idct, idct_design, &stage2, false, "y", "x")?;
    let stage4 = pass(&idct, idct_design, &stage3, true, "y", "x")?;

    // Reassemble.
    let mut output = GrayImage::new(image.width(), image.height());
    for by in 0..bh {
        for bx in 0..bw {
            let block = &stage4[by * bw + bx];
            let mut pixels = [[0u8; 8]; 8];
            for r in 0..8 {
                for c in 0..8 {
                    pixels[r][c] = (block[r][c] + 128).clamp(0, 255) as u8;
                }
            }
            output.set_block8(bx, by, &pixels);
        }
    }
    let psnr_db = psnr(image, &output);
    Ok(ImageChainResult { output, psnr_db, late_events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{dct8, idct8};
    use liberty::CellClass;
    use netlist::ArcDelays;
    use sta::analyze;
    use synth::test_fixtures::fixture_library;
    use synth::{synthesize, MapOptions};

    #[test]
    fn reference_chain_is_high_quality() {
        let img = imgproc::synthetic::test_image(32, 32, 3);
        let out = reference_chain(&img);
        let q = psnr(&img, &out);
        assert!(q > 38.0, "reference chain PSNR {q} dB");
    }

    #[test]
    fn broken_netlist_fails_preflight() {
        let lib = fixture_library();
        let mut nl = Netlist::new("bad");
        let a = nl.add_port("a", netlist::PortDir::Input);
        let y = nl.add_port("y", netlist::PortDir::Output);
        nl.add_instance("u0", "NOT_A_CELL", &[("A", a), ("Y", y)]);
        let err = annotation_from_sta(&nl, &lib, &Constraints::default()).unwrap_err();
        match err {
            StaError::Preflight { message } => assert!(message.contains("NL001"), "{message}"),
            other => panic!("expected Preflight, got {other:?}"),
        }
    }

    #[test]
    fn annotation_covers_all_arcs() {
        let lib = fixture_library();
        let mut g = synth::Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let y = g.and(a, b);
        g.output("y", y);
        let nl = synthesize(&g, &lib, &MapOptions::default()).unwrap();
        let ann = annotation_from_sta(&nl, &lib, &Constraints::default()).unwrap();
        assert!(!ann.is_empty());
        assert!(ann.max_delay() > 0.0);
    }

    /// Every entry is its library arc's delay at the input net's larger
    /// slew and the output net's load, as `analyze` reports them by pin
    /// name: a flop's clk→Q arc on its clock row, zero where the cell has
    /// no arc or the output is unconnected.
    #[test]
    fn annotation_holds_each_arc_at_its_slew_and_load() {
        let lib = fixture_library();
        let mut nl = synthesize(&circuits::risc_5p().aig, &lib, &MapOptions::default()).unwrap();
        let a = nl.instance_ids().find_map(|id| nl.instance(id).net_on("A")).unwrap();
        nl.add_instance("spare", "NAND2_X1", &[("A", a), ("B", a)]);
        let c = Constraints::default();
        let report = analyze(&nl, &lib, &c).unwrap();
        let ann = annotation_from_sta(&nl, &lib, &c).unwrap();
        let (mut clock_rows, mut no_arc, mut unconnected) = (0, 0, 0);
        for id in nl.instance_ids() {
            let inst = nl.instance(id);
            let cell = lib.cell(&inst.cell).unwrap();
            assert_eq!(ann.shape(id), (cell.inputs.len(), cell.outputs.len()));
            let clock = match &cell.class {
                CellClass::Flop { clock, .. } => Some(clock),
                CellClass::Combinational => None,
            };
            for (i, input) in cell.inputs.iter().enumerate() {
                let in_net = inst.net_on(&input.name).unwrap();
                let slew = report.slew_edge(in_net, true).max(report.slew_edge(in_net, false));
                for (o, output) in cell.outputs.iter().enumerate() {
                    let want = match (output.arc_from(&input.name), inst.net_on(&output.name)) {
                        (Some(arc), Some(out_net)) => {
                            let load = report.load(out_net);
                            clock_rows += usize::from(clock == Some(&input.name));
                            ArcDelays {
                                rise: arc.delay(true, slew, load),
                                fall: arc.delay(false, slew, load),
                            }
                        }
                        (None, _) => {
                            no_arc += 1;
                            ArcDelays::default()
                        }
                        (_, None) => {
                            unconnected += 1;
                            ArcDelays::default()
                        }
                    };
                    let got = ann.get(id, i, o);
                    assert_eq!(
                        (got.rise.to_bits(), got.fall.to_bits()),
                        (want.rise.to_bits(), want.fall.to_bits()),
                        "{} {} -> {}",
                        inst.name,
                        input.name,
                        output.name
                    );
                }
            }
        }
        assert!(clock_rows > 0 && no_arc > 0 && unconnected == 2, "{clock_rows} {no_arc}");
    }

    /// End-to-end smoke test at a generous clock: the gate-level chain
    /// matches the software reference bit for bit (tiny image; the full
    /// experiment lives in the bench harness).
    #[test]
    fn gate_level_chain_matches_reference_with_slack() {
        let lib = fixture_library();
        let options = MapOptions::default();
        let dct_design = dct8();
        let idct_design = idct8();
        let dct_nl = synthesize(&dct_design.aig, &lib, &options).unwrap();
        let idct_nl = synthesize(&idct_design.aig, &lib, &options).unwrap();
        let c = Constraints::default();
        let dct_ann = annotation_from_sta(&dct_nl, &lib, &c).unwrap();
        let idct_ann = annotation_from_sta(&idct_nl, &lib, &c).unwrap();
        let period = 1.0; // one second: nothing can be late
        let img = imgproc::synthetic::test_image(8, 8, 9);
        let result = run_image_chain(
            &img,
            &dct_nl,
            &dct_design,
            &idct_nl,
            &idct_design,
            &lib,
            &dct_ann,
            &idct_ann,
            period,
        )
        .unwrap();
        assert_eq!(result.late_events, 0);
        let reference = reference_chain(&img);
        assert_eq!(result.output, reference, "gate-level chain must equal software reference");
        assert!(result.psnr_db > 38.0);
    }

    /// An absurdly fast clock corrupts the image.
    #[test]
    fn tight_clock_destroys_quality() {
        let lib = fixture_library();
        let options = MapOptions::default();
        let dct_design = dct8();
        let idct_design = idct8();
        let dct_nl = synthesize(&dct_design.aig, &lib, &options).unwrap();
        let idct_nl = synthesize(&idct_design.aig, &lib, &options).unwrap();
        let c = Constraints::default();
        let dct_ann = annotation_from_sta(&dct_nl, &lib, &c).unwrap();
        let idct_ann = annotation_from_sta(&idct_nl, &lib, &c).unwrap();
        let fresh_cp = analyze(&dct_nl, &lib, &c).unwrap().critical_delay();
        let img = imgproc::synthetic::test_image(8, 8, 9);
        let result = run_image_chain(
            &img,
            &dct_nl,
            &dct_design,
            &idct_nl,
            &idct_design,
            &lib,
            &dct_ann,
            &idct_ann,
            fresh_cp * 0.2,
        )
        .unwrap();
        assert!(result.late_events > 0, "80% overclock must violate timing");
        assert!(
            result.psnr_db < 35.0,
            "massive violations must hurt quality, got {} dB",
            result.psnr_db
        );
    }
}
