//! `LT` rules: static lifetime verification.
//!
//! `LT003`/`LT004` validate the configuration itself — an unsound
//! environment interval or a non-monotone mechanism makes interval-endpoint
//! evaluation prove nothing, so when either fires the bound is **not**
//! computed and the remaining rules stay silent rather than reporting
//! unsound numbers. Otherwise [`dataflow::static_lifetime_bound`] runs and
//! its report drives `LT001` (design MTTF below target), `LT002`
//! (single-mechanism hazard dominance), `LT005` (per-instance lifetime
//! hotspots) and `LT006` (guardband budget exhausted inside the horizon).

use crate::{Diagnostic, LintConfig, Location, Rule};
use liberty::Library;
use netlist::Netlist;

pub(crate) fn check(
    netlist: &Netlist,
    library: &Library,
    config: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    let Some(lifetime) = &config.lifetime else { return };

    let mut unsound = false;
    for problem in lifetime.config.validation_errors() {
        unsound = true;
        out.push(Diagnostic::new(Rule::EnvIntervalUnsound, Location::Design, problem));
    }
    for (_, mechanism) in lifetime.config.suite.mechanisms() {
        let violations = bti::monotonicity_violations(mechanism);
        if !violations.is_empty() {
            unsound = true;
            out.push(Diagnostic::new(
                Rule::NonMonotoneMechanism,
                Location::Design,
                format!(
                    "mechanism {} fails the monotonicity probe: {}",
                    mechanism.name(),
                    violations.join("; ")
                ),
            ));
        }
    }
    if unsound {
        return;
    }

    let df_config = dataflow::DataflowConfig { input_intervals: config.input_intervals.clone() };
    let report = dataflow::static_lifetime_bound(netlist, library, &lifetime.config, &df_config);

    if report.design_mttf_lo_years < lifetime.mttf_target_years {
        let worst = report.worst_instance.as_deref().unwrap_or("-");
        out.push(Diagnostic::new(
            Rule::MttfBelowTarget,
            Location::Design,
            format!(
                "provable design MTTF lower bound {:.2} y < target {:.2} y (worst instance {worst})",
                report.design_mttf_lo_years, lifetime.mttf_target_years
            ),
        ));
    }

    for (mechanism, share) in &report.hazard_shares {
        if *share > lifetime.dominance_share {
            out.push(Diagnostic::new(
                Rule::MechanismDominance,
                Location::Design,
                format!(
                    "mechanism {mechanism} carries {:.1} % of the design failure hazard at {:.1} y",
                    100.0 * share,
                    lifetime.config.years
                ),
            ));
        }
    }

    for inst in &report.instances {
        if inst.mttf_lo_years < lifetime.mttf_target_years {
            out.push(Diagnostic::new(
                Rule::LifetimeHotspot,
                Location::Instance { instance: inst.name.clone() },
                format!(
                    "MTTF lower bound {:.2} y < target {:.2} y (dominant mechanism {})",
                    inst.mttf_lo_years, lifetime.mttf_target_years, inst.dominant
                ),
            ));
        }
    }

    if report.years_until_budget < lifetime.config.years {
        out.push(Diagnostic::new(
            Rule::GuardbandExhausted,
            Location::Design,
            format!(
                "ΔVth budget {:.3} V provably exhausted after {:.2} y < horizon {:.1} y",
                lifetime.config.vth_budget, report.years_until_budget, lifetime.config.years
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::{LifetimeLintConfig, LintConfig, LintReport, Rule, Severity};
    use liberty::{Cell, Library};
    use netlist::{Netlist, PortDir};

    fn lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        lib
    }

    fn inv_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_port("a", PortDir::Input);
        for k in 0..n {
            let next = if k + 1 == n {
                nl.add_port("y", PortDir::Output)
            } else {
                nl.add_net(&format!("n{k}"))
            };
            nl.add_instance(&format!("u{k}"), "INV_X1", &[("A", prev), ("Y", next)]);
            prev = next;
        }
        nl
    }

    fn lifetime_config() -> LintConfig {
        LintConfig { lifetime: Some(LifetimeLintConfig::default()), ..LintConfig::default() }
    }

    #[test]
    fn clean_chain_raises_no_lifetime_findings() {
        let report = LintReport::run_lifetime(&inv_chain(6), &lib(), &lifetime_config());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn skipped_without_lifetime_config() {
        // LintReport::run only invokes the LT rules when configured.
        let report = LintReport::run(&inv_chain(2), &lib(), &LintConfig::default());
        assert!(report.diagnostics().iter().all(|d| !d.rule.code().starts_with("LT")));
    }

    #[test]
    fn unreachable_target_fires_mttf_and_hotspot_rules() {
        let mut config = lifetime_config();
        config.lifetime.as_mut().unwrap().mttf_target_years = 1.0e9;
        let report = LintReport::run_lifetime(&inv_chain(3), &lib(), &config);
        let rules: Vec<Rule> = report.diagnostics().iter().map(|d| d.rule).collect();
        assert!(rules.contains(&Rule::MttfBelowTarget));
        assert!(rules.iter().filter(|r| **r == Rule::LifetimeHotspot).count() == 3);
        assert!(report.diagnostics().iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn tight_budget_fires_guardband_exhausted() {
        let mut config = lifetime_config();
        config.lifetime.as_mut().unwrap().config.vth_budget = 1.0e-3;
        let report = LintReport::run_lifetime(&inv_chain(2), &lib(), &config);
        assert!(report.diagnostics().iter().any(|d| d.rule == Rule::GuardbandExhausted));
    }

    #[test]
    fn unsound_environment_is_an_error_and_skips_the_bound() {
        let mut config = lifetime_config();
        let lt = config.lifetime.as_mut().unwrap();
        lt.config.temperature_range = (428.15, 398.15);
        // Even with an absurd target no LT001 may appear: the bound must
        // not be computed from an unsound configuration.
        lt.mttf_target_years = 1.0e9;
        let report = LintReport::run_lifetime(&inv_chain(2), &lib(), &config);
        assert!(report.has_errors());
        assert!(report.diagnostics().iter().any(|d| d.rule == Rule::EnvIntervalUnsound));
        assert!(report.diagnostics().iter().all(|d| d.rule != Rule::MttfBelowTarget));
    }

    #[test]
    fn non_monotone_mechanism_is_rejected() {
        let mut config = lifetime_config();
        let hci = &mut config.lifetime.as_mut().unwrap().config.suite.hci;
        let bti::Law::CyclePowerLaw { cycle_exp, .. } = &mut hci.law else { panic!("HCI law") };
        *cycle_exp = -0.45;
        let report = LintReport::run_lifetime(&inv_chain(2), &lib(), &config);
        assert!(report.has_errors());
        assert!(report.diagnostics().iter().any(|d| d.rule == Rule::NonMonotoneMechanism));
    }

    #[test]
    fn dominance_fires_when_one_mechanism_owns_the_hazard() {
        // Lower every other mechanism's severity so TDDB owns the hazard.
        let mut config = lifetime_config();
        let lt = config.lifetime.as_mut().unwrap();
        let bti::Law::Black { mttf_nominal_years: em, .. } = &mut lt.config.suite.em.law else {
            panic!("EM law")
        };
        *em = 9.0e5;
        let bti::Law::VoltagePowerLaw { mttf_nominal_years: tddb, .. } =
            &mut lt.config.suite.tddb.law
        else {
            panic!("TDDB law")
        };
        *tddb = 2.0;
        lt.dominance_share = 0.5;
        let report = LintReport::run_lifetime(&inv_chain(2), &lib(), &config);
        let dominance: Vec<_> =
            report.diagnostics().iter().filter(|d| d.rule == Rule::MechanismDominance).collect();
        assert_eq!(dominance.len(), 1);
        assert!(dominance[0].message.contains("tddb"));
        assert_eq!(dominance[0].severity, Severity::Info);
    }

    #[test]
    fn diagnostics_are_bit_identical_across_runs() {
        let mut config = lifetime_config();
        config.lifetime.as_mut().unwrap().mttf_target_years = 1.0e9;
        let nl = inv_chain(4);
        let library = lib();
        let first = LintReport::run_lifetime(&nl, &library, &config);
        let second = LintReport::run_lifetime(&nl, &library, &config);
        assert_eq!(first.to_json(), second.to_json());
        assert!(!first.is_clean());
    }
}
