//! Aging-aware logic synthesis and guardband containment (Sec. 4.3,
//! Fig. 4(c)).

use liberty::Library;
use netlist::Netlist;
use sta::{analyze, Constraints};
use synth::{synthesize, Aig, MapOptions, SynthError};

/// The head-to-head comparison of Fig. 6: a traditionally-synthesized
/// baseline (initial library) versus the aging-aware design (synthesized
/// with the degradation-aware library), both timed against fresh *and*
/// aged libraries.
#[derive(Debug, Clone)]
pub struct SynthesisComparison {
    /// The baseline netlist (synthesized with the initial library).
    pub baseline: Netlist,
    /// The aging-aware netlist (synthesized with the aged library).
    pub aware: Netlist,
    /// Baseline fresh critical path `T(t=0)`, seconds.
    pub baseline_fresh: f64,
    /// Baseline delay under aging, seconds.
    pub baseline_aged: f64,
    /// Aware design fresh delay, seconds.
    pub aware_fresh: f64,
    /// Aware design delay under aging, seconds.
    pub aware_aged: f64,
    /// Baseline area, µm².
    pub baseline_area: f64,
    /// Aware-design area, µm².
    pub aware_area: f64,
}

impl SynthesisComparison {
    /// The traditional required guardband: baseline aged − baseline fresh.
    #[must_use]
    pub fn required_guardband(&self) -> f64 {
        self.baseline_aged - self.baseline_fresh
    }

    /// The contained guardband of the aging-aware design, measured as the
    /// paper defines it: its aged delay against the *baseline's* fresh
    /// delay (the common reference of Fig. 6(a)).
    #[must_use]
    pub fn contained_guardband(&self) -> f64 {
        self.aware_aged - self.baseline_fresh
    }

    /// Guardband reduction of the aware design, `1 − contained/required`.
    #[must_use]
    pub fn guardband_reduction(&self) -> f64 {
        if self.required_guardband() <= 0.0 {
            0.0
        } else {
            1.0 - self.contained_guardband() / self.required_guardband()
        }
    }

    /// Relative area overhead of the aware design.
    #[must_use]
    pub fn area_overhead(&self) -> f64 {
        self.aware_area / self.baseline_area - 1.0
    }

    /// Frequency gain from the contained guardband: `f_aware/f_baseline − 1`
    /// where each runs at its own aged delay.
    #[must_use]
    pub fn frequency_gain(&self) -> f64 {
        self.baseline_aged / self.aware_aged - 1.0
    }
}

/// Multi-start synthesis: runs the mapper under a handful of configurations
/// and keeps the netlist with the best critical delay *as judged by the
/// target library* — the design-space exploration a `compile_ultra`-class
/// tool performs internally. With a degradation-aware target library the
/// selection criterion itself is the aged delay, which is precisely how
/// awareness propagates into the final netlist.
///
/// A relialint pre-flight gate validates `library` first: error diagnostics
/// abort (as [`SynthError::Preflight`]), warnings are logged to stderr.
///
/// # Errors
///
/// Propagates [`SynthError`].
pub fn synthesize_best(
    aig: &Aig,
    library: &Library,
    base: &MapOptions,
) -> Result<Netlist, SynthError> {
    lint_gate(library)?;
    let constraints = Constraints::default();
    let mut best: Option<(f64, Netlist)> = None;
    for options in &candidate_options(base) {
        let nl = synthesize(aig, library, options)?;
        let delay = analyze(&nl, library, &constraints)?.critical_delay();
        if best.as_ref().is_none_or(|(d, _)| delay < *d) {
            best = Some((delay, nl));
        }
    }
    let Some((_, mut nl)) = best else {
        return Err(SynthError::Preflight("synthesis produced no candidates".into()));
    };
    synth::optimize_critical_path(&mut nl, library, 6)?;
    synth::area_recover(&mut nl, library, None)?;
    Ok(nl)
}

/// The aging-aware synthesis of Sec. 4.3: map with the degradation-aware
/// library's tables (and, as additional exploration starts, the initial
/// library's), then select the candidate with the smallest **aged**
/// critical path. Judging every candidate by the degradation-aware library
/// is the paper's mechanism — the tool's optimization objective *is* the
/// aged delay; the widened start pool substitutes for the far stronger
/// internal exploration of a commercial synthesizer (see `DESIGN.md`).
///
/// # Errors
///
/// Propagates [`SynthError`].
pub fn synthesize_aging_aware(
    aig: &Aig,
    fresh: &Library,
    aged: &Library,
    options: &MapOptions,
) -> Result<Netlist, SynthError> {
    lint_gate(fresh)?;
    lint_gate(aged)?;
    // Cross-check the pair: aged delays should dominate fresh ones (AG001);
    // violations are warnings unless the whitelist says otherwise.
    for d in lint::LintReport::run_aging(fresh, aged, &lint::LintConfig::default()).diagnostics() {
        eprintln!("[relialint] {d}");
    }
    let constraints = Constraints::default();
    let mut best: Option<(f64, Netlist)> = None;
    for start_lib in [aged, fresh] {
        for candidate in candidate_options(options) {
            let mut nl = synthesize(aig, start_lib, &candidate)?;
            // Re-size against the aged tables regardless of the start point:
            // the optimization loop always judges by aged timing.
            synth::size_gates(&mut nl, aged, &candidate)?;
            let delay = analyze(&nl, aged, &constraints)?.critical_delay();
            if best.as_ref().is_none_or(|(d, _)| delay < *d) {
                best = Some((delay, nl));
            }
        }
    }
    let Some((_, mut nl)) = best else {
        return Err(SynthError::Preflight("synthesis produced no candidates".into()));
    };
    synth::optimize_critical_path(&mut nl, aged, 6)?;
    synth::area_recover(&mut nl, aged, None)?;
    // Post-synthesis netlist pre-flight: structural NL rules plus the DF
    // dataflow checks (constant cones, dead logic, impossible λ pairs) and
    // the LT static lifetime bounds at the default mechanism suite.
    let config = lint::LintConfig {
        lifetime: Some(lint::LifetimeLintConfig::default()),
        ..lint::LintConfig::default()
    };
    let survivors = lint::preflight_with(&nl, aged, &config)
        .map_err(|e| SynthError::Preflight(e.to_string()))?;
    for d in &survivors {
        eprintln!("[relialint] {d}");
    }
    Ok(nl)
}

/// The library-side relialint gate shared by the synthesis entry points.
fn lint_gate(library: &Library) -> Result<(), SynthError> {
    let survivors = lint::preflight_library(library, &lint::LintConfig::default())
        .map_err(|e| SynthError::Preflight(e.to_string()))?;
    for d in &survivors {
        eprintln!("[relialint] {d}");
    }
    Ok(())
}

fn candidate_options(base: &MapOptions) -> Vec<MapOptions> {
    vec![
        base.clone(),
        MapOptions { cut_size: 3, ..base.clone() },
        MapOptions { cuts_per_node: 14, ..base.clone() },
        MapOptions {
            max_fanout: base.max_fanout.saturating_sub(3).max(4),
            sizing_iterations: base.sizing_iterations + 2,
            ..base.clone()
        },
    ]
}

/// Synthesizes `aig` twice — with the `fresh` (initial) library and with
/// the `aged` degradation-aware library — and times both against both, as
/// in the paper's Fig. 4(c)/Fig. 6 comparison.
///
/// # Errors
///
/// Propagates [`SynthError`] from either synthesis or its timing runs.
pub fn compare_synthesis(
    aig: &Aig,
    fresh: &Library,
    aged: &Library,
    options: &MapOptions,
) -> Result<SynthesisComparison, SynthError> {
    let constraints = Constraints::default();
    let baseline = synthesize_best(aig, fresh, options)?;
    let aware = synthesize_aging_aware(aig, fresh, aged, options)?;
    let baseline_fresh = analyze(&baseline, fresh, &constraints)?.critical_delay();
    let baseline_aged = analyze(&baseline, aged, &constraints)?.critical_delay();
    let aware_fresh = analyze(&aware, fresh, &constraints)?.critical_delay();
    let aware_aged = analyze(&aware, aged, &constraints)?.critical_delay();
    let baseline_area = baseline.area(fresh).map_err(sta::StaError::Netlist)?;
    let aware_area = aware.area(fresh).map_err(sta::StaError::Netlist)?;
    Ok(SynthesisComparison {
        baseline,
        aware,
        baseline_fresh,
        baseline_aged,
        aware_fresh,
        aware_aged,
        baseline_area,
        aware_area,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth::test_fixtures::{fixture_library, slowed_library};
    use synth::Lit;

    fn sample_aig() -> Aig {
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..6).map(|k| g.input(&format!("i{k}"))).collect();
        let parity = ins.iter().fold(Lit::FALSE, |acc, &x| g.xor(acc, x));
        let t1 = g.and_multi(&ins[0..3]);
        let t2 = g.and_multi(&ins[3..6]);
        let any = g.or(t1, t2);
        g.output("p", parity);
        g.output("q", any);
        g
    }

    #[test]
    fn empty_library_fails_preflight() {
        let aig = sample_aig();
        let empty = liberty::Library::new("empty", 1.2);
        let err = synthesize_best(&aig, &empty, &MapOptions::default()).unwrap_err();
        match err {
            SynthError::Preflight(m) => assert!(m.contains("LB001"), "{m}"),
            other => panic!("expected Preflight, got {other:?}"),
        }
        let fresh = fixture_library();
        let err = synthesize_aging_aware(&aig, &fresh, &empty, &MapOptions::default()).unwrap_err();
        assert!(matches!(err, SynthError::Preflight(_)), "{err:?}");
    }

    #[test]
    fn comparison_structure() {
        let aig = sample_aig();
        let fresh = fixture_library();
        let aged = slowed_library(1.3);
        let cmp = compare_synthesis(&aig, &fresh, &aged, &MapOptions::default()).unwrap();
        assert!(cmp.baseline_fresh > 0.0);
        assert!(cmp.baseline_aged > cmp.baseline_fresh, "aging slows the baseline");
        assert!(cmp.required_guardband() > 0.0);
        assert!(cmp.baseline_area > 0.0 && cmp.aware_area > 0.0);
        cmp.baseline.validate(&fresh).unwrap();
        cmp.aware.validate(&aged).unwrap();
    }

    #[test]
    fn uniform_aging_gives_no_advantage() {
        // With uniformly-scaled delays the mapper sees proportional costs,
        // so the aware design cannot meaningfully beat the baseline — a
        // sanity check that advantages come from *non-uniform* aging.
        let aig = sample_aig();
        let fresh = fixture_library();
        let aged = slowed_library(1.3);
        let cmp = compare_synthesis(&aig, &fresh, &aged, &MapOptions::default()).unwrap();
        let ratio = cmp.aware_aged / cmp.baseline_aged;
        assert!((0.9..=1.1).contains(&ratio), "uniform aging ratio {ratio}");
    }

    #[test]
    fn nonuniform_aging_rewards_awareness() {
        // Age XOR2 brutally (3×) and everything else mildly (1.1×): the
        // aware mapper avoids XOR cells, containing the guardband.
        let aig = sample_aig();
        let fresh = fixture_library();
        let mut aged = slowed_library(1.1);
        let mut xor = aged.cell("XOR2_X1").unwrap().clone();
        for o in &mut xor.outputs {
            for arc in &mut o.arcs {
                arc.cell_rise = arc.cell_rise.map(|v| v * 3.0);
                arc.cell_fall = arc.cell_fall.map(|v| v * 3.0);
            }
        }
        aged.add_cell(xor);
        let cmp = compare_synthesis(&aig, &fresh, &aged, &MapOptions::default()).unwrap();
        // Baseline (mapped for fresh) uses XOR cells for the parity tree;
        // under aging they blow up. The aware design avoids that.
        assert!(
            cmp.aware_aged < cmp.baseline_aged,
            "aware {} must beat baseline {} under non-uniform aging",
            cmp.aware_aged,
            cmp.baseline_aged
        );
        assert!(cmp.contained_guardband() < cmp.required_guardband());
        assert!(cmp.guardband_reduction() > 0.0);
        let xor_in_baseline =
            cmp.baseline.instances().iter().filter(|i| i.cell.starts_with("XOR")).count();
        let xor_in_aware =
            cmp.aware.instances().iter().filter(|i| i.cell.starts_with("XOR")).count();
        assert!(xor_in_aware < xor_in_baseline, "aware mapping must avoid aged XOR cells");
    }
}
