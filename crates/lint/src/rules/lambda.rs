//! `LM` rules: λ-annotation consistency against a merged complete library.
//!
//! The paper's flow annotates each instance with its signal-probability
//! duty cycles and retargets it to the λ-indexed cell variant
//! (`NAND2_X1_0.40_0.60`). Two things go wrong in practice: an annotation
//! lands on a duty-cycle pair the library was never characterized for
//! (`LM001`), or the annotation pass covers only part of the design
//! (`LM002`).

use crate::{Diagnostic, Location, Rule};
use liberty::{split_lambda_tag, LambdaTag, Library};
use netlist::Netlist;

pub(crate) fn check(netlist: &Netlist, library: &Library, out: &mut Vec<Diagnostic>) {
    let mut tagged = 0usize;
    let mut untagged: Vec<(&str, &str)> = Vec::new();
    for inst in netlist.instances() {
        let (base, tag) = split_lambda_tag(&inst.cell);
        match tag {
            Some(tag) => {
                tagged += 1;
                if library.cell(&inst.cell).is_none() {
                    out_of_grid(inst, base, tag, library, out);
                }
            }
            None => untagged.push((&inst.name, base)),
        }
    }
    // LM002 fires only on *mixed* annotation: some instances retargeted,
    // others left on base cells that do have λ variants. A fully
    // unannotated netlist is a different (legitimate) flow stage, so the
    // library is not searched for variants at all.
    if tagged == 0 {
        return;
    }
    let gaps: Vec<&str> = untagged
        .into_iter()
        .filter(|(_, base)| has_lambda_variants(library, base))
        .map(|(name, _)| name)
        .collect();
    if !gaps.is_empty() {
        let shown = gaps.iter().take(4).copied().collect::<Vec<_>>().join(", ");
        let suffix = if gaps.len() > 4 { ", ..." } else { "" };
        out.push(Diagnostic::new(
            Rule::LambdaCoverageGap,
            Location::Design,
            format!(
                "{} instance(s) are λ-annotated but {} are not ({shown}{suffix}) although \
                 their cells have λ variants",
                tagged,
                gaps.len(),
            ),
        ));
    }
}

/// `LM001` with a diagnosis of *why* the pair is missing: non-canonical
/// number formatting, a range violation, or a hole between grid points.
fn out_of_grid(
    inst: &netlist::Instance,
    base: &str,
    tag: LambdaTag,
    library: &Library,
    out: &mut Vec<Diagnostic>,
) {
    let canonical = format!("{base}_{}", tag.suffix());
    let detail = if library.cell(&canonical).is_some() {
        format!(
            "pair is characterized as {canonical}; the annotation uses non-canonical formatting"
        )
    } else {
        let grid: Vec<LambdaTag> =
            library.cells_with_base(base).filter_map(|c| split_lambda_tag(&c.name).1).collect();
        if grid.is_empty() {
            format!("library {} has {base} but no λ-indexed variants of it", library.name)
        } else {
            let (p_lo, p_hi) = min_max(grid.iter().map(|t| t.lambda_pmos));
            let (n_lo, n_hi) = min_max(grid.iter().map(|t| t.lambda_nmos));
            if tag.lambda_pmos < p_lo
                || tag.lambda_pmos > p_hi
                || tag.lambda_nmos < n_lo
                || tag.lambda_nmos > n_hi
            {
                format!(
                    "(λp={:.2}, λn={:.2}) lies outside the characterized grid \
                     λp ∈ [{p_lo:.2}, {p_hi:.2}], λn ∈ [{n_lo:.2}, {n_hi:.2}]",
                    tag.lambda_pmos, tag.lambda_nmos
                )
            } else {
                format!(
                    "(λp={:.2}, λn={:.2}) falls between the {} characterized grid points \
                     of {base}",
                    tag.lambda_pmos,
                    tag.lambda_nmos,
                    grid.len()
                )
            }
        }
    };
    out.push(Diagnostic::new(
        Rule::LambdaOutOfGrid,
        Location::Instance { instance: inst.name.clone() },
        format!("cell {}: {detail}", inst.cell),
    ));
}

fn has_lambda_variants(library: &Library, base: &str) -> bool {
    library.cells_with_base(base).any(|c| c.name != base)
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::Cell;
    use netlist::{Netlist, PortDir};

    /// A merged library with `INV_X1` characterized at the 2×2 grid
    /// {0.25, 0.75}².
    fn merged() -> Library {
        let mut lib = Library::new("complete", 1.2);
        for p in ["0.25", "0.75"] {
            for n in ["0.25", "0.75"] {
                lib.add_cell(Cell::test_inverter(&format!("INV_X1_{p}_{n}")));
            }
        }
        lib
    }

    fn one_instance(cell: &str) -> Netlist {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", cell, &[("A", a), ("Y", y)]);
        nl
    }

    fn run(nl: &Netlist, lib: &Library) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(nl, lib, &mut out);
        out
    }

    #[test]
    fn characterized_pair_is_silent() {
        assert!(run(&one_instance("INV_X1_0.25_0.75"), &merged()).is_empty());
    }

    #[test]
    fn pair_outside_grid_range() {
        let diags = run(&one_instance("INV_X1_0.90_0.25"), &merged());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::LambdaOutOfGrid);
        assert!(diags[0].message.contains("outside"), "{}", diags[0].message);
    }

    #[test]
    fn pair_between_grid_points() {
        let diags = run(&one_instance("INV_X1_0.50_0.50"), &merged());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::LambdaOutOfGrid);
        assert!(diags[0].message.contains("between"), "{}", diags[0].message);
    }

    #[test]
    fn non_canonical_formatting_diagnosed() {
        let diags = run(&one_instance("INV_X1_0.2500_0.75"), &merged());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("non-canonical"), "{}", diags[0].message);
    }

    #[test]
    fn base_without_variants() {
        let mut lib = merged();
        lib.add_cell(Cell::test_inverter("NAND2_X1"));
        let diags = run(&one_instance("NAND2_X1_0.25_0.25"), &lib);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no λ-indexed variants"), "{}", diags[0].message);
    }

    #[test]
    fn coverage_gap_on_mixed_annotation() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "INV_X1_0.25_0.25", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", y)]);
        let diags = run(&nl, &merged());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::LambdaCoverageGap);
        assert_eq!(diags[0].location, Location::Design);
        assert!(diags[0].message.contains("u1"), "{}", diags[0].message);
    }

    #[test]
    fn coverage_gap_when_the_untagged_instance_comes_first() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1_0.25_0.25", &[("A", n1), ("Y", y)]);
        let diags = run(&nl, &merged());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::LambdaCoverageGap);
        assert!(diags[0].message.starts_with("1 instance(s) are λ-annotated but 1 are not (u0)"));
    }

    #[test]
    fn fully_unannotated_netlist_has_no_gap() {
        // Against a merged library an unannotated instance is NL001
        // territory, not a coverage gap.
        assert!(run(&one_instance("INV_X1"), &merged()).is_empty());
    }
}
