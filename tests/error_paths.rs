//! Error-path coverage of the fallible flow APIs: malformed inputs must
//! surface as **typed** errors — never panics — and every [`FlowError`]
//! rendering must name the failing stage.

use proptest::prelude::*;
use reliaware::bti::AgingScenario;
use reliaware::flow::{
    annotation_from_sta, image_from_pgm, CharConfig, CharError, Characterizer, EvalError, FlowError,
};
use reliaware::logicsim::{run_cycles, SimError};
use reliaware::netlist::{Netlist, NetlistError, PortDir};
use reliaware::serve::{CharRequest, Op, Request};
use reliaware::sta::{analyze, Constraints, StaError};
use reliaware::stdcells::CellSet;
use reliaware::synth::test_fixtures::fixture_library;

/// A tiny netlist whose single instance references a cell the library does
/// not contain.
fn unknown_cell_netlist() -> Netlist {
    let mut nl = Netlist::new("bad");
    let a = nl.add_port("a", PortDir::Input);
    let y = nl.add_port("y", PortDir::Output);
    nl.add_instance("u0", "NOT_A_CELL", &[("A", a), ("Y", y)]);
    nl
}

#[test]
fn sta_reports_unknown_cell_as_typed_error() {
    let lib = fixture_library();
    let err = analyze(&unknown_cell_netlist(), &lib, &Constraints::default()).unwrap_err();
    match err {
        StaError::Netlist(NetlistError::UnknownCell { instance, cell }) => {
            assert_eq!(instance, "u0");
            assert_eq!(cell, "NOT_A_CELL");
        }
        other => panic!("expected UnknownCell, got {other:?}"),
    }
    // Through the flow wrapper the rendering names the STA stage.
    let flow_err = FlowError::from(
        analyze(&unknown_cell_netlist(), &lib, &Constraints::default()).unwrap_err(),
    );
    assert!(flow_err.to_string().starts_with("[sta] "), "{flow_err}");
    assert_eq!(flow_err.exit_code(), 1);
}

/// `u0` reads `n2` of the loop `u1` (`NAND2_X1`) <-> `u2` (`INV_X1`) but is not
/// on it.
fn loop_read_from_outside() -> Netlist {
    let mut nl = Netlist::new("loop");
    let a = nl.add_port("a", PortDir::Input);
    let y = nl.add_port("y", PortDir::Output);
    let (n1, n2) = (nl.add_net("n1"), nl.add_net("n2"));
    nl.add_instance("u0", "INV_X1", &[("A", n2), ("Y", y)]);
    nl.add_instance("u1", "NAND2_X1", &[("A", a), ("B", n2), ("Y", n1)]);
    nl.add_instance("u2", "INV_X1", &[("A", n1), ("Y", n2)]);
    nl
}

#[test]
fn sta_and_simulation_name_one_instance_on_a_loop() {
    let mut lib = fixture_library();
    let nl = loop_read_from_outside();
    let from_sta = match analyze(&nl, &lib, &Constraints::default()) {
        Err(StaError::CombinationalLoop { instance }) => instance,
        other => panic!("expected CombinationalLoop from analyze, got {other:?}"),
    };
    let from_sim = match run_cycles(&nl, &lib, None, &[vec![false]]) {
        Err(SimError::CombinationalLoop { instance }) => instance,
        other => panic!("expected CombinationalLoop from run_cycles, got {other:?}"),
    };
    assert_eq!(from_sta, from_sim);
    assert!(from_sta == "u1" || from_sta == "u2", "{from_sta} is not on the loop");

    // Without NAND2_X1's B arc the loop is still what analyze reports, and
    // a loop-free use of the cell reports the missing arc.
    let mut nand = lib.cell("NAND2_X1").cloned().expect("fixture has NAND2_X1");
    nand.outputs[0].arcs.retain(|arc| arc.related_pin != "B");
    lib.remove_cell("NAND2_X1");
    lib.add_cell(nand);
    assert!(matches!(
        analyze(&nl, &lib, &Constraints::default()),
        Err(StaError::CombinationalLoop { .. })
    ));
    let mut open = Netlist::new("open");
    let (a, b) = (open.add_port("a", PortDir::Input), open.add_port("b", PortDir::Input));
    let y = open.add_port("y", PortDir::Output);
    open.add_instance("u0", "NAND2_X1", &[("A", a), ("B", b), ("Y", y)]);
    assert!(matches!(
        analyze(&open, &lib, &Constraints::default()),
        Err(StaError::MissingArc { input, .. }) if input == "B"
    ));
}

#[test]
fn annotation_rejects_unannotatable_netlist_via_preflight() {
    let lib = fixture_library();
    let err = annotation_from_sta(&unknown_cell_netlist(), &lib, &Constraints::default())
        .expect_err("an unknown cell has no annotatable arcs");
    match err {
        StaError::Preflight { message } => {
            assert!(message.contains("NOT_A_CELL"), "diagnostic names the cell: {message}");
        }
        other => panic!("expected Preflight, got {other:?}"),
    }
}

#[test]
fn image_chain_rejects_malformed_pgm() {
    // Not a PGM at all.
    let err = image_from_pgm(b"definitely not an image").unwrap_err();
    assert!(matches!(err, EvalError::Image(_)), "expected Image error, got {err:?}");
    // Truncated pixel payload behind a valid header.
    let err = image_from_pgm(b"P5\n4 4\n255\n\x00\x01").unwrap_err();
    assert!(matches!(err, EvalError::Image(_)), "expected Image error, got {err:?}");
    let flow_err = FlowError::from(err);
    assert!(flow_err.to_string().starts_with("[system-eval] "), "{flow_err}");
}

#[test]
fn image_chain_rejects_a_bad_clock_period() {
    use reliaware::circuits::{dct8, idct8};
    use reliaware::flow::run_image_chain;
    use reliaware::netlist::DelayAnnotation;
    use reliaware::synth::{synthesize, MapOptions};
    let lib = fixture_library();
    let (dct, idct) = (dct8(), idct8());
    let dct_nl = synthesize(&dct.aig, &lib, &MapOptions::default()).expect("synthesis");
    let idct_nl = synthesize(&idct.aig, &lib, &MapOptions::default()).expect("synthesis");
    let image = reliaware::imgproc::synthetic::test_image(8, 8, 1);
    let delays = DelayAnnotation::new();
    for period in [0.0, f64::NAN] {
        let err =
            run_image_chain(&image, &dct_nl, &dct, &idct_nl, &idct, &lib, &delays, &delays, period)
                .expect_err("a bad period must not run");
        match &err {
            EvalError::Simulation { message } => assert!(message.contains("period"), "{message}"),
            other => panic!("period {period}: expected Simulation, got {other:?}"),
        }
        let flow_err = FlowError::from(err);
        assert!(flow_err.to_string().starts_with("[system-eval] "), "{flow_err}");
    }
}

#[test]
fn characterizer_validates_its_config() {
    let cells = CellSet::minimal();
    let empty_axis = CharConfig { slews: vec![], ..CharConfig::fast() };
    match Characterizer::new(cells.clone(), empty_axis) {
        Err(CharError::InvalidConfig { message }) => {
            assert!(!message.is_empty());
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let decreasing = CharConfig { loads: vec![10e-15, 1e-15], ..CharConfig::fast() };
    assert!(matches!(Characterizer::new(cells, decreasing), Err(CharError::InvalidConfig { .. })));
}

#[test]
fn complete_library_rejects_an_empty_grid() {
    let chars = Characterizer::new(CellSet::minimal(), CharConfig::fast()).unwrap();
    match chars.complete_library(0, 10.0) {
        Err(CharError::InvalidConfig { message }) => assert!(message.contains("steps")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn characterizer_rejects_an_empty_cell_set() {
    let none = CellSet::nangate45_like().subset(&[]);
    assert!(matches!(Characterizer::new(none, CharConfig::fast()), Err(CharError::EmptyCellSet)));
}

#[test]
fn for_named_cells_rejects_unknown_names() {
    let err = Characterizer::for_named_cells(
        &CellSet::nangate45_like(),
        &["INV_X1", "XNOR9_X4"],
        CharConfig::fast(),
    )
    .expect_err("unknown cell must not silently vanish");
    assert_eq!(err, CharError::UnknownCell { cell: "XNOR9_X4".into() });
    // The happy path still works and yields a usable characterizer.
    let chars =
        Characterizer::for_named_cells(&CellSet::nangate45_like(), &["INV_X1"], CharConfig::fast())
            .expect("known cell");
    let lib = chars.library(&AgingScenario::fresh()).expect("characterization");
    assert!(lib.cell("INV_X1").is_some());
}

#[test]
fn mc_lifetime_rejects_an_invalid_plan_without_panicking() {
    use reliaware::dataflow::{DataflowConfig, LifetimeConfig, McSampling};
    use reliaware::flow::{mc_lifetime, RunContext};
    let lib = fixture_library();
    let mut nl = Netlist::new("inv");
    let a = nl.add_port("a", PortDir::Input);
    let y = nl.add_port("y", PortDir::Output);
    nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
    let ctx = RunContext::new();
    let (lifetime, df) = (LifetimeConfig::default(), DataflowConfig::default());
    let dies = |samples: usize| McSampling::nominal_45nm(samples, 1);

    let err = mc_lifetime(&ctx, &nl, &lib, &lifetime, &df, &dies(0)).expect_err("zero dies");
    assert_eq!(
        err,
        CharError::InvalidLifetimePlan { problems: vec!["sample count must be at least 1".into()] }
    );
    let flow_err = FlowError::from(err);
    assert!(
        flow_err.to_string().starts_with("[characterize] invalid Monte-Carlo lifetime plan: "),
        "{flow_err}"
    );

    // Every failed check is named, the sampling plan's first.
    let broken = LifetimeConfig {
        years: -1.0,
        temperature_range: (428.15, 398.15),
        ..LifetimeConfig::default()
    };
    match mc_lifetime(&ctx, &nl, &lib, &broken, &df, &dies(0)) {
        Err(CharError::InvalidLifetimePlan { problems }) => {
            assert_eq!(problems.len(), 3, "{problems:?}");
            assert!(problems[0].contains("sample count"), "{problems:?}");
            assert!(problems.iter().any(|p| p.contains("temperature range")), "{problems:?}");
            assert!(problems.iter().any(|p| p.contains("lifetime horizon")), "{problems:?}");
        }
        other => panic!("expected InvalidLifetimePlan, got {other:?}"),
    }

    let sound = mc_lifetime(&ctx, &nl, &lib, &lifetime, &df, &dies(2)).expect("sound plan");
    assert_eq!(sound.distribution.samples.len(), 2);
}

proptest! {
    /// Whatever the variant and whatever the payload, the `Display`
    /// rendering of a [`FlowError`] leads with the bracketed stage name —
    /// the invariant batch drivers rely on when grepping logs.
    #[test]
    fn flow_error_display_always_names_the_stage(
        text in proptest::collection::vec(32u8..127, 0..40)
            .prop_map(|bytes| bytes.into_iter().map(char::from).collect::<String>()),
        pick in 0usize..6,
    ) {
        let e = match pick {
            0 => FlowError::Char(CharError::UnknownCell { cell: text.clone() }),
            1 => FlowError::Char(CharError::InvalidConfig { message: text.clone() }),
            2 => FlowError::Io { path: text.clone(), message: "denied".into() },
            3 => FlowError::Usage(text.clone()),
            4 => FlowError::Eval(EvalError::Design { message: text.clone() }),
            _ => FlowError::Sta(StaError::CombinationalLoop { instance: text.clone() }),
        };
        let rendered = e.to_string();
        prop_assert!(
            rendered.starts_with(&format!("[{}] ", e.stage())),
            "{rendered:?} does not lead with stage {:?}", e.stage()
        );
        prop_assert_eq!(e.exit_code() == 2, matches!(e, FlowError::Io { .. } | FlowError::Usage(_)));
    }
}

/// Fragments spliced into request lines: whole fields, ill-typed or out of
/// range, and the JSON punctuation and numbers that break a line.
const REQUEST_TOKENS: &[&str] = &[
    r#""v":"reliaware-serve-v0","#,
    r#""op":"characterize","#,
    r#""op":"stats","#,
    r#""op":"nope","#,
    r#""op":7,"#,
    r#""cells":[],"#,
    r#""cells":[1],"#,
    r#""cells":"INV_X1","#,
    r#""lambda_pmos":null,"#,
    r#""years":"10","#,
    r#""slews":[1e-11,null],"#,
    r#""loads":{},"#,
    r#""sigma_vth":0.015,"#,
    r#""var_seed":9007199254740992,"#,
    r#""var_seed":-1,"#,
    r#""var_seed":1.5,"#,
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\u",
    "1e400",
    "-0",
    "null",
    " ",
];

/// Characters of generated ids and cell names: JSON's escapes and
/// multi-byte UTF-8.
const NAME_CHARS: &[char] = &['"', '\\', '\n', '\u{1}', '/', 'A', '_', '1', 'é', '😀'];

/// Up to seven characters of [`NAME_CHARS`], chosen by the bits of `seed`.
fn name_from(seed: u64) -> String {
    let len = (seed % 8) as usize;
    (0..len)
        .map(|k| NAME_CHARS[((seed >> (3 + 6 * k)) % NAME_CHARS.len() as u64) as usize])
        .collect()
}

/// A finite number from any bit pattern (the wire carries no NaN or ∞).
fn finite_from(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        (bits >> 11) as f64
    }
}

/// A request built from generated bits: a `stats` or `ping` request, or a
/// `characterize` request whose names, axes and numbers all come from the
/// seeds (the variation fields only when the spread is non-zero, as on the
/// wire).
fn request_from(
    op: usize,
    names: &[u64],
    slews: &[u64],
    loads: &[u64],
    scalars: &[u64],
    var_seed: u64,
) -> Request {
    let id = name_from(names[0]);
    match op {
        0 => Request::stats(&id),
        1 => Request { id, op: Op::Ping },
        _ => {
            let [lp, ln, years, temperature, vdd, max_dv, sigma, clamp] =
                std::array::from_fn(|k| finite_from(scalars[k]));
            let mut c = CharRequest::new(&[], lp, ln, years);
            c.cells = names[1..].iter().map(|&seed| name_from(seed)).collect();
            c.slews = slews.iter().map(|&bits| finite_from(bits)).collect();
            c.loads = loads.iter().map(|&bits| finite_from(bits)).collect();
            (c.temperature_k, c.vdd, c.max_dv) = (temperature, vdd, max_dv);
            if sigma != 0.0 {
                c = c.with_variation(sigma, var_seed);
                c.clamp_sigmas = clamp;
            }
            Request::characterize(&id, c)
        }
    }
}

/// `line` with [`REQUEST_TOKENS`] spliced in after its `{` or a `,`, so
/// that a whole field can land where a field may stand, and cut short when
/// `cut` is odd.
fn mangle(mut line: String, splices: &[(usize, usize)], cut: usize) -> String {
    for &(at, token) in splices {
        let seams: Vec<usize> = line.match_indices(['{', ',']).map(|(i, _)| i + 1).collect();
        line.insert_str(seams[at % seams.len()], REQUEST_TOKENS[token]);
    }
    if cut % 2 == 1 {
        let mut end = cut / 2 % (line.len() + 1);
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        line.truncate(end);
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mangled request line is a request or a usage error, never a
    /// panic.
    #[test]
    fn request_parse_never_panics(
        op in 0usize..3,
        names in proptest::collection::vec(any::<u64>(), 2..5),
        slews in proptest::collection::vec(any::<u64>(), 0..4),
        scalars in proptest::collection::vec(any::<u64>(), 8),
        splices in proptest::collection::vec((any::<usize>(), 0..REQUEST_TOKENS.len()), 0..4),
        cut in any::<usize>(),
    ) {
        let line = request_from(op, &names, &slews, &[], &scalars, 1).to_line();
        let _ = Request::parse(&mangle(line, &splices, cut));
    }

    /// Every request a client can build survives `to_line` → `parse`
    /// unchanged, escapes and extreme numbers included.
    #[test]
    fn generated_requests_round_trip_through_to_line(
        op in 0usize..3,
        names in proptest::collection::vec(any::<u64>(), 2..5),
        slews in proptest::collection::vec(any::<u64>(), 0..4),
        loads in proptest::collection::vec(any::<u64>(), 0..4),
        scalars in proptest::collection::vec(any::<u64>(), 8),
        var_seed in 0u64..(1 << 53),
    ) {
        let request = request_from(op, &names, &slews, &loads, &scalars, var_seed);
        let line = request.to_line();
        prop_assert_eq!(Request::parse(&line), Ok(request.clone()), "{}", line);
    }
}
