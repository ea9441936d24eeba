//! Property-based tests: random netlists survive the Verilog text round
//! trip, and λ annotation composes with name splitting.

use liberty::LambdaTag;
use netlist::verilog::{parse_verilog, write_verilog};
use netlist::{Netlist, PortDir};
use proptest::prelude::*;

/// Builds a random single-output-per-gate netlist from connection choices.
fn random_netlist(cells: &[(usize, usize)]) -> Netlist {
    let mut nl = Netlist::new("rand_mod");
    let a = nl.add_port("in_a", PortDir::Input);
    let b = nl.add_port("in_b", PortDir::Input);
    let mut nets = vec![a, b];
    for (k, &(c1, c2)) in cells.iter().enumerate() {
        let out = nl.add_net(&format!("w{k}"));
        let x = nets[c1 % nets.len()];
        let y = nets[c2 % nets.len()];
        nl.add_instance(&format!("g{k}"), "NAND2_X1", &[("A", x), ("B", y), ("Y", out)]);
        nets.push(out);
    }
    let yport = nl.add_port("out_y", PortDir::Output);
    let last = *nets.last().expect("nonempty");
    nl.add_instance("obuf", "BUF_X2", &[("A", last), ("Y", yport)]);
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Structure survives write → parse exactly (names, cells, connections).
    #[test]
    fn verilog_round_trip(cells in prop::collection::vec((any::<usize>(), any::<usize>()), 1..30)) {
        let nl = random_netlist(&cells);
        let parsed = parse_verilog(&write_verilog(&nl)).expect("parses");
        prop_assert_eq!(parsed.name.clone(), nl.name.clone());
        prop_assert_eq!(parsed.instance_count(), nl.instance_count());
        prop_assert_eq!(parsed.net_count(), nl.net_count());
        prop_assert_eq!(parsed.ports().len(), nl.ports().len());
        for (pa, pb) in parsed.instances().iter().zip(nl.instances()) {
            prop_assert_eq!(&pa.name, &pb.name);
            prop_assert_eq!(&pa.cell, &pb.cell);
            for ((pin_a, net_a), (pin_b, net_b)) in pa.connections.iter().zip(&pb.connections) {
                prop_assert_eq!(pin_a, pin_b);
                prop_assert_eq!(parsed.net_name(*net_a), nl.net_name(*net_b));
            }
        }
    }

    /// Static λ annotation tags every instance, round-trips through
    /// `split_lambda_tag`, and never touches the original netlist.
    #[test]
    fn annotation_round_trip(
        cells in prop::collection::vec((any::<usize>(), any::<usize>()), 1..15),
        p in 0u32..=10,
        n in 0u32..=10,
    ) {
        let nl = random_netlist(&cells);
        let tag = LambdaTag {
            lambda_pmos: f64::from(p) / 10.0,
            lambda_nmos: f64::from(n) / 10.0,
        };
        let annotated = netlist::annotate::annotated_with_static(&nl, tag);
        for (orig, new) in nl.instances().iter().zip(annotated.instances()) {
            let (base, parsed) = liberty::split_lambda_tag(&new.cell);
            prop_assert_eq!(base, orig.cell.as_str());
            let parsed = parsed.expect("tag parses back");
            prop_assert!((parsed.lambda_pmos - tag.lambda_pmos).abs() < 5e-3);
            prop_assert!((parsed.lambda_nmos - tag.lambda_nmos).abs() < 5e-3);
        }
        // The annotated netlist also survives the Verilog round trip
        // (dotted cell names are legal identifiers in our subset).
        let back = parse_verilog(&write_verilog(&annotated)).expect("parses");
        prop_assert_eq!(back.instance_count(), annotated.instance_count());
    }
}
