//! Post-mapping netlist optimization: fanout buffering and gate sizing.
//!
//! Both passes are *library-driven*: they query the active library's delay
//! tables, so running them with a degradation-aware library sizes and
//! buffers against the **aged** delays — the mechanism by which the paper's
//! flow "contains" guardbands (Sec. 4.3).

use crate::matching::family_name;
use crate::{MapOptions, SynthError};
use liberty::Library;
use netlist::{Bound, InstId, NetId, Netlist};
use sta::{Constraints, IncrementalSta};
use std::collections::HashMap;

/// Splits nets whose fanout exceeds `max_fanout` by inserting buffer trees.
///
/// Overloaded nets are worked in `NetId` order against one per-net sink
/// table, taken from the netlist's [`Bound`] binding to `library` and
/// updated in place as buffers go in; a net is revisited
/// until its fanout fits. Buffer names and instance order thus follow from
/// the netlist alone, so the same netlist and library always give the same
/// result. A buffer is named `fob<branch net index>`, or the next unused
/// `fob<k>` if that name is taken.
///
/// # Errors
///
/// Returns [`SynthError::Sta`] with the error of [`Bound::new`] if `nl`
/// does not bind to `library` (an unknown cell, say), whether or not the
/// library has a buffer cell.
pub fn buffer_fanout(
    nl: &mut Netlist,
    library: &Library,
    max_fanout: usize,
) -> Result<(), SynthError> {
    let max_fanout = max_fanout.max(2);
    let bound = Bound::new(nl, library)?;
    let mut sinks: Vec<Vec<(InstId, usize)>> =
        (0..nl.net_count()).map(|n| bound.sinks(NetId::from_index(n)).collect()).collect();
    let Some((buf_cell, in_pin, out_pin)) = library
        .cells()
        .find(|c| {
            !c.is_sequential()
                && c.inputs.len() == 1
                && c.outputs.len() == 1
                && c.outputs[0].function == liberty::BoolExpr::var(&c.inputs[0].name)
        })
        .map(|c| (c.name.as_str(), c.inputs[0].name.as_str(), c.outputs[0].name.as_str()))
    else {
        // Without a buffer cell, leave every net alone (inverter pairs
        // would double delay on every branch); sizing will upsize the
        // driver instead.
        return Ok(());
    };

    let mut net = 0;
    while net < sinks.len() {
        if sinks[net].len() <= max_fanout {
            net += 1;
            continue;
        }
        // Move every sink group behind a fresh buffer. The buffers' own
        // input pins become the net's only sinks (⌈n/max⌉ < n of them), so
        // each revisit strictly reduces the fanout and the walk terminates.
        let pins = std::mem::take(&mut sinks[net]);
        for group in pins.chunks(max_fanout) {
            let branch = nl.add_anonymous_net("fobuf");
            let mut k = branch.index();
            let name = loop {
                let candidate = format!("fob{k}");
                if nl.find_instance(&candidate).is_none() {
                    break candidate;
                }
                k += 1;
            };
            let buffer = nl.add_instance(
                &name,
                buf_cell,
                &[(in_pin, NetId::from_index(net)), (out_pin, branch)],
            );
            for &(inst, conn) in group {
                nl.instance_mut(inst).connections[conn].1 = branch;
            }
            sinks[net].push((buffer, 0));
            sinks.resize_with(nl.net_count(), Vec::new);
            sinks[branch.index()] = group.to_vec();
        }
    }
    Ok(())
}

/// Gate sizing: a load-based pass that picks the smallest strength able to
/// drive each instance's load near the library's characterized sweet spot,
/// followed by greedy critical-path upsizing validated by STA — all against
/// the delays of `library`.
///
/// # Errors
///
/// Propagates STA failures on malformed netlists.
pub fn size_gates(
    nl: &mut Netlist,
    library: &Library,
    options: &MapOptions,
) -> Result<(), SynthError> {
    let variants = strength_variants(library);
    if variants.is_empty() {
        return Ok(());
    }

    // --- pass 1: load-proportional sizing ---
    let mut is_output = vec![false; nl.net_count()];
    for net in nl.output_nets() {
        is_output[net.index()] = true;
    }
    for _ in 0..2 {
        let bound = Bound::new(nl, library)?;
        let mut changes: Vec<(InstId, String)> = Vec::new();
        for id in nl.instance_ids() {
            let inst = nl.instance(id);
            let (fam, _) = family_name(&inst.cell);
            let Some(fam_variants) = variants.get(fam) else { continue };
            if fam_variants.len() < 2 {
                continue;
            }
            // Load on the (first) output.
            let Some(Some(out_net)) = bound.output_nets(id).next() else { continue };
            let load: f64 = bound
                .sinks(out_net)
                .filter_map(|(s, conn)| {
                    let input = bound.connection_input(s, conn)?;
                    Some(library.cell_at(bound.cell(s)).inputs[input].capacitance)
                })
                .sum::<f64>()
                + library.default_output_load * f64::from(u8::from(is_output[out_net.index()]));
            // Choose the variant whose max_capacitance comfortably covers
            // the load (electrical-correctness driven, then speed).
            let mut best = inst.cell.clone();
            for (name, max_cap) in fam_variants {
                best = name.clone();
                if load <= 0.35 * max_cap {
                    break;
                }
            }
            if best != inst.cell {
                changes.push((id, best));
            }
        }
        if changes.is_empty() {
            break;
        }
        for (id, cell) in changes {
            nl.instance_mut(id).cell = cell;
        }
    }

    // --- pass 2: greedy critical-path upsizing validated by STA ---
    //
    // One persistent incremental engine serves every trial: each upsize is a
    // `Recell` change that only re-times the instance's fanout cone, and a
    // rejected batch is undone by revert-recells. Incremental results are
    // bit-identical to a fresh `analyze`, so the decisions (and thus the
    // final netlist) are exactly those of the full re-STA loop. The engine
    // edits `nl` itself.
    let constraints = Constraints::default();
    let mut sta = IncrementalSta::new(nl, library, &constraints)?;
    for _ in 0..options.sizing_iterations {
        let report = sta.report()?;
        let before = report.critical_delay();
        let path: Vec<InstId> = report.critical_path().steps.iter().map(|s| s.inst).collect();
        let mut touched: Vec<(InstId, String)> = Vec::new();
        for inst_id in path {
            let cell = sta.netlist().instance(inst_id).cell.clone();
            let (fam, strength) = family_name(&cell);
            let Some(fam_variants) = variants.get(fam) else { continue };
            // Next strength up, if any.
            let next = fam_variants.iter().find(|(name, _)| family_name(name).1 > strength);
            if let Some((next, _)) = next {
                sta.recell(inst_id, next)?;
                touched.push((inst_id, cell));
            }
        }
        if touched.is_empty() {
            break;
        }
        let after = sta.critical_delay()?;
        if after >= before {
            // Revert a non-improving batch and stop.
            for (id, cell) in touched {
                sta.recell(id, &cell)?;
            }
            break;
        }
    }
    Ok(())
}

/// Aggressive critical-path optimization: walks the current critical path
/// and greedily upsizes one instance at a time, keeping each change only if
/// re-analysis improves the critical delay. Judged entirely by `library` —
/// handing it a degradation-aware library optimizes the *aged* critical
/// path (paper Sec. 4.3).
///
/// Every trial is an incremental `Recell` against a persistent
/// [`IncrementalSta`], so only the touched instance's fanout cone is
/// re-timed per probe; rejected probes are undone with a revert-recell.
/// The accept/reject decisions are bit-identical to the full re-STA loop.
///
/// # Errors
///
/// Propagates STA failures.
pub fn optimize_critical_path(
    nl: &mut Netlist,
    library: &Library,
    rounds: usize,
) -> Result<(), SynthError> {
    let variants = strength_variants(library);
    if variants.is_empty() {
        return Ok(());
    }
    let constraints = Constraints::default();
    let mut sta = IncrementalSta::new(nl, library, &constraints)?;
    let mut best = sta.critical_delay()?;
    for _ in 0..rounds {
        let steps: Vec<InstId> =
            sta.report()?.critical_path().steps.iter().map(|s| s.inst).collect();
        let mut improved = false;
        for inst_id in steps.into_iter().rev() {
            let cell_name = sta.netlist().instance(inst_id).cell.clone();
            let (fam, strength) = family_name(&cell_name);
            let Some(fam_variants) = variants.get(fam) else { continue };
            let Some((next, _)) =
                fam_variants.iter().find(|(name, _)| family_name(name).1 > strength)
            else {
                continue;
            };
            sta.recell(inst_id, next)?;
            let delay = sta.critical_delay()?;
            if delay < best - 1e-15 {
                best = delay;
                improved = true;
            } else {
                sta.recell(inst_id, &cell_name)?;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(())
}

/// Area recovery: downsizes instances whose output slack comfortably covers
/// the slowdown, as a `compile_ultra`-class flow does after meeting timing.
/// `clock_period` sets the required times (`None` = the design's own
/// critical path, i.e. recovery must not degrade the CP at all).
///
/// This is what makes traditionally-synthesized netlists *fragile under
/// aging* (paper Sec. 5): paths get pulled toward the constraint, so a few
/// percent of aging pushes a large population of paths past the clock.
///
/// # Errors
///
/// Propagates STA failures.
pub fn area_recover(
    nl: &mut Netlist,
    library: &Library,
    clock_period: Option<f64>,
) -> Result<(), SynthError> {
    let variants = strength_variants(library);
    if variants.is_empty() {
        return Ok(());
    }
    let constraints = Constraints { clock_period, ..Constraints::default() };
    let mut sta = IncrementalSta::new(nl, library, &constraints)?;
    for _round in 0..4 {
        let report = sta.report()?;
        let baseline_cp = report.critical_delay();
        let mut changes: Vec<(InstId, String, String)> = Vec::new();
        for id in sta.netlist().instance_ids() {
            let inst = sta.netlist().instance(id);
            let Some(cell) = library.cell(&inst.cell) else { continue };
            if cell.is_sequential() {
                continue;
            }
            let (fam, strength) = family_name(&inst.cell);
            if strength <= 1 {
                continue;
            }
            let Some(fam_variants) = variants.get(fam) else { continue };
            // Next strength down.
            let smaller = fam_variants
                .iter()
                .rev()
                .find(|(name, _)| family_name(name).1 < strength)
                .map(|(name, _)| name.clone());
            let Some(smaller) = smaller else { continue };
            // Conservative acceptance: the instance's output slack must
            // exceed a healthy multiple of its current delay (a proxy for
            // the slowdown a one-step downsize can cause here and upstream).
            let Some(out) = cell.outputs.first() else { continue };
            let Some(out_net) = inst.net_on(&out.name) else { continue };
            let slack = report.net_slack(out_net);
            let own_delay =
                cell.worst_delay(library.default_input_slew, library.default_output_load);
            if slack > 2.0 * own_delay {
                changes.push((id, inst.cell.clone(), smaller));
            }
        }
        if changes.is_empty() {
            break;
        }
        for (id, _, smaller) in &changes {
            sta.recell(*id, smaller)?;
        }
        // Validate the batch: recovery must never create negative slack
        // (or worsen the CP when unconstrained). Only the downsized cones
        // were re-timed — the result is still bit-identical to a full run.
        let after = sta.report()?;
        let violated = match clock_period {
            Some(_) => after.worst_slack().unwrap_or(0.0) < -1e-15,
            None => after.critical_delay() > baseline_cp + 1e-15,
        };
        if violated {
            for (id, original, _) in &changes {
                sta.recell(*id, original)?;
            }
            break;
        }
    }
    Ok(())
}

/// Strength-ordered `(cell name, max output cap)` variants per family.
fn strength_variants(library: &Library) -> HashMap<String, Vec<(String, f64)>> {
    let mut map: HashMap<String, Vec<(String, u32, f64)>> = HashMap::new();
    for cell in library.cells() {
        if cell.is_sequential() || cell.outputs.len() != 1 {
            continue;
        }
        let (fam, strength) = family_name(&cell.name);
        map.entry(fam.to_owned()).or_default().push((
            cell.name.clone(),
            strength,
            cell.outputs[0].max_capacitance,
        ));
    }
    map.into_iter()
        .map(|(fam, mut v)| {
            v.sort_by_key(|(_, s, _)| *s);
            (fam, v.into_iter().map(|(n, _, c)| (n, c)).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::fixture_library;
    use netlist::{NetlistError, PortDir};
    use sta::analyze;

    fn star(fanout: usize) -> Netlist {
        let mut nl = Netlist::new("star");
        let a = nl.add_port("a", PortDir::Input);
        let hub = nl.add_net("hub");
        nl.add_instance("drv", "INV_X1", &[("A", a), ("Y", hub)]);
        for k in 0..fanout {
            let y = nl.add_port(&format!("y{k}"), PortDir::Output);
            nl.add_instance(&format!("s{k}"), "INV_X1", &[("A", hub), ("Y", y)]);
        }
        nl
    }

    /// Largest fanout of any net.
    fn max_fanout(nl: &Netlist, lib: &Library) -> usize {
        let bound = Bound::new(nl, lib).unwrap();
        (0..nl.net_count()).map(|n| bound.sinks(NetId::from_index(n)).len()).max().unwrap_or(0)
    }

    #[test]
    fn buffering_splits_high_fanout() {
        let lib = fixture_library();
        let mut nl = star(20);
        buffer_fanout(&mut nl, &lib, 6).unwrap();
        nl.validate(&lib).unwrap();
        assert!(max_fanout(&nl, &lib) <= 6);
        assert!(nl.instances().iter().any(|i| i.cell.starts_with("BUF")));
    }

    #[test]
    fn buffering_revisits_a_net_until_it_fits() {
        // 40 sinks at fanout 2: 20 buffers, then 10, 5, 3 and 2 on the hub.
        let lib = fixture_library();
        let mut nl = star(40);
        buffer_fanout(&mut nl, &lib, 2).unwrap();
        nl.validate(&lib).unwrap();
        assert!(max_fanout(&nl, &lib) <= 2);
        assert_eq!(nl.instance_count(), 41 + 20 + 10 + 5 + 3 + 2);
    }

    #[test]
    fn buffering_skips_taken_buffer_names() {
        // star(10) has 12 nets; the 13th feeds an instance already named
        // after the first branch net, `fob13`.
        let lib = fixture_library();
        let mut nl = star(10);
        let a = nl.find_net("a").unwrap();
        let z = nl.add_port("z", PortDir::Output);
        nl.add_instance("fob13", "INV_X1", &[("A", a), ("Y", z)]);
        buffer_fanout(&mut nl, &lib, 6).unwrap();
        nl.validate(&lib).unwrap();
        let names: Vec<&str> = nl.instances()[12..].iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["fob14", "fob15"]);
        assert!(max_fanout(&nl, &lib) <= 6);
    }

    #[test]
    fn buffering_reports_unmapped_instances_with_or_without_a_buffer() {
        let mut unmapped = star(10);
        let a = unmapped.find_net("a").unwrap();
        let z = unmapped.add_port("z", PortDir::Output);
        unmapped.add_instance("u", "NOT_A_CELL", &[("A", a), ("Y", z)]);
        let mut no_buffer = fixture_library();
        let buffers: Vec<String> = no_buffer
            .cells()
            .filter(|c| c.name.starts_with("BUF"))
            .map(|c| c.name.clone())
            .collect();
        for name in &buffers {
            no_buffer.remove_cell(name);
        }
        for lib in [fixture_library(), no_buffer] {
            let err = buffer_fanout(&mut unmapped.clone(), &lib, 6).unwrap_err();
            let expected =
                NetlistError::UnknownCell { instance: "u".into(), cell: "NOT_A_CELL".into() };
            assert_eq!(err, SynthError::from(expected));
        }
    }

    #[test]
    fn buffering_works_overloaded_nets_in_net_order() {
        // A second hub driven from the first: both overloaded at once.
        let lib = fixture_library();
        let mut nl = star(8);
        let hub = nl.find_net("hub").unwrap();
        let hub2 = nl.add_net("hub2");
        nl.add_instance("drv2", "INV_X1", &[("A", hub), ("Y", hub2)]);
        for k in 0..8 {
            let y = nl.add_port(&format!("z{k}"), PortDir::Output);
            nl.add_instance(&format!("t{k}"), "INV_X1", &[("A", hub2), ("Y", y)]);
        }
        let mut again = nl.clone();
        buffer_fanout(&mut nl, &lib, 6).unwrap();
        buffer_fanout(&mut again, &lib, 6).unwrap();
        assert_eq!(nl, again);
        // hub (9 sinks) is split before hub2 (8 sinks).
        let buffered: Vec<NetId> =
            nl.instances()[18..].iter().map(|i| i.net_on("A").unwrap()).collect();
        assert_eq!(buffered, [hub, hub, hub2, hub2]);
        assert!(max_fanout(&nl, &lib) <= 6);
    }

    #[test]
    fn buffering_leaves_small_nets_alone() {
        let lib = fixture_library();
        let mut nl = star(3);
        let before = nl.instance_count();
        buffer_fanout(&mut nl, &lib, 6).unwrap();
        assert_eq!(nl.instance_count(), before);
    }

    #[test]
    fn sizing_upsizes_loaded_driver() {
        let lib = fixture_library();
        let mut nl = star(8);
        size_gates(&mut nl, &lib, &MapOptions::default()).unwrap();
        nl.validate(&lib).unwrap();
        let drv = &nl.instances()[0];
        let (_, strength) = family_name(&drv.cell);
        assert!(strength > 1, "heavily loaded driver must be upsized, got {}", drv.cell);
    }

    #[test]
    fn sizing_reduces_or_keeps_critical_delay() {
        let lib = fixture_library();
        let mut nl = star(8);
        let before = analyze(&nl, &lib, &Constraints::default()).unwrap().critical_delay();
        size_gates(&mut nl, &lib, &MapOptions::default()).unwrap();
        let after = analyze(&nl, &lib, &Constraints::default()).unwrap().critical_delay();
        assert!(after <= before + 1e-15, "sizing must not worsen timing: {after} vs {before}");
    }

    #[test]
    fn variants_sorted_by_strength() {
        let v = strength_variants(&fixture_library());
        let invs = &v["INV"];
        assert_eq!(invs.len(), 3);
        assert!(family_name(&invs[0].0).1 < family_name(&invs[2].0).1);
    }
}
