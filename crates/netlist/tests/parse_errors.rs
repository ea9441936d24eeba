//! Error-path coverage of the structural-Verilog parser: every malformed
//! input must come back as a typed [`NetlistError`] — never a panic — and
//! parse errors must carry a usable line number.

use netlist::verilog::parse_verilog;
use netlist::NetlistError;

// ---------------------------------------------------------------- Verilog

#[test]
fn malformed_module_header() {
    // Wrong keyword.
    let err = parse_verilog("modul m (a); endmodule").unwrap_err();
    assert!(matches!(err, NetlistError::Parse { line: 1, .. }), "{err}");
    assert!(err.to_string().contains("module"), "{err}");

    // Missing '(' after the module name.
    let err = parse_verilog("module m a, b);\nendmodule").unwrap_err();
    assert!(matches!(err, NetlistError::Parse { line: 1, .. }), "{err}");

    // Missing ';' after the port list.
    let err = parse_verilog("module m (a)\n  input a;\nendmodule").unwrap_err();
    assert!(matches!(err, NetlistError::Parse { .. }), "{err}");
}

#[test]
fn truncated_verilog_is_a_typed_error() {
    let full =
        "module m (a, y);\n  input a;\n  output y;\n  INV_X1 u0 (.A(a), .Y(y));\nendmodule\n";
    assert!(parse_verilog(full).is_ok());
    // Every prefix must fail cleanly, not panic.
    for cut in 0..full.len() - 1 {
        if !full.is_char_boundary(cut) {
            continue;
        }
        let res = parse_verilog(&full[..cut]);
        assert!(res.is_err(), "prefix of length {cut} unexpectedly parsed");
    }
}

#[test]
fn declaration_without_terminator() {
    let err = parse_verilog("module m (a);\n  input a\nendmodule").unwrap_err();
    let NetlistError::Parse { line, message } = &err else {
        panic!("expected parse error, got {err:?}");
    };
    assert!(*line >= 3, "error should point at the offending token: {err}");
    assert!(message.contains("';'"), "{err}");
}

#[test]
fn malformed_port_connection() {
    // Bare net name instead of '.pin(net)'.
    let err =
        parse_verilog("module m (a, y);\n  input a;\n  output y;\n  INV_X1 u0 (a, y);\nendmodule")
            .unwrap_err();
    assert!(matches!(err, NetlistError::Parse { line: 4, .. }), "{err}");

    // Unclosed connection list.
    let err =
        parse_verilog("module m (a, y);\n  input a;\n  output y;\n  INV_X1 u0 (.A(a) endmodule")
            .unwrap_err();
    assert!(matches!(err, NetlistError::Parse { .. }), "{err}");
}

#[test]
fn duplicate_instance_is_a_structural_error() {
    let text = "module m (a, y);\n  input a;\n  output y;\n  wire n1;\n\
                INV_X1 u0 (.A(a), .Y(n1));\n  INV_X1 u0 (.A(n1), .Y(y));\nendmodule";
    let err = parse_verilog(text).unwrap_err();
    assert_eq!(err, NetlistError::DuplicateInstance { instance: "u0".into() });
}

#[test]
fn stray_character_and_unterminated_comment() {
    let err = parse_verilog("module m (%); endmodule").unwrap_err();
    assert!(err.to_string().contains('%'), "{err}");

    let err = parse_verilog("module m (a);\n/* never closed").unwrap_err();
    assert!(matches!(err, NetlistError::Parse { line: 2, .. }), "{err}");
    assert!(err.to_string().contains("comment"), "{err}");
}
