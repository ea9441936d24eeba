//! The DSP benchmark: a sequential 4-tap FIR filter with programmable
//! coefficients and a registered multiply-accumulate datapath.

use crate::design::{Design, PortSpec};
use crate::word::{
    add_ripple, connect_register, input_bus, mul_signed, output_bus, register_bus, resize_signed,
    Bus,
};
use synth::{Aig, Lit};

/// Sample and coefficient width.
pub const DATA_BITS: usize = 12;
/// Accumulator/output width.
pub const OUT_BITS: usize = 26;

/// Builds the FIR design: `y[n] = Σ_{i<4} h_i · x[n−i]`, with a 3-deep
/// sample delay line and a registered output.
#[must_use]
pub fn dsp_fir() -> Design {
    let mut aig = Aig::new();
    let x = input_bus(&mut aig, "x", DATA_BITS);
    let h: Vec<Bus> = (0..4).map(|i| input_bus(&mut aig, &format!("h{i}"), DATA_BITS)).collect();

    // Delay line x[n-1..n-3].
    let mut taps: Vec<Bus> = vec![x.clone()];
    let mut prev = x.clone();
    for i in 1..4 {
        let reg = register_bus(&mut aig, &format!("z{i}"), DATA_BITS);
        connect_register(&mut aig, &reg, &prev);
        prev = reg.clone();
        taps.push(reg);
    }

    // MAC tree.
    let mut acc: Option<Bus> = None;
    for (tap, coeff) in taps.iter().zip(&h) {
        let p = mul_signed(&mut aig, tap, coeff);
        let p = resize_signed(&p, OUT_BITS);
        acc = Some(match acc {
            None => p,
            Some(a) => add_ripple(&mut aig, &a, &p, Lit::FALSE).0,
        });
    }
    #[allow(clippy::expect_used)] // the MAC loop runs once per tap, and there are four
    let acc = acc.expect("four taps");

    // Registered output.
    let y_reg = register_bus(&mut aig, "yreg", OUT_BITS);
    connect_register(&mut aig, &y_reg, &acc);
    output_bus(&mut aig, "y", &y_reg);

    Design {
        name: "DSP".into(),
        aig,
        inputs: {
            let mut ports = vec![PortSpec { name: "x".into(), width: DATA_BITS, signed: true }];
            ports.extend((0..4).map(|i| PortSpec {
                name: format!("h{i}"),
                width: DATA_BITS,
                signed: true,
            }));
            ports
        },
        outputs: vec![PortSpec { name: "y".into(), width: OUT_BITS, signed: true }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps the sequential design one clock: returns (output, next state).
    fn step(d: &Design, state: &[bool], values: &[(&str, i64)]) -> (i64, Vec<bool>) {
        let bits = d.encode(values).unwrap();
        let outs = d.aig.eval(&bits, state);
        let y = d.decode(&outs, "y").unwrap();
        let next = d.aig.eval_next_state(&bits, state);
        (y, next)
    }

    #[test]
    fn impulse_response_reveals_coefficients() {
        let d = dsp_fir();
        let n_state = d.aig.latch_nodes().len();
        let mut state = vec![false; n_state];
        let h: [i64; 4] = [7, -3, 11, 2];
        let coeffs: Vec<(String, i64)> =
            h.iter().enumerate().map(|(i, &v)| (format!("h{i}"), v)).collect();
        let mut seen = Vec::new();
        // Impulse at t=0 followed by zeros.
        for t in 0..6 {
            let x = i64::from(t == 0) * 100;
            let mut vals: Vec<(&str, i64)> = vec![("x", x)];
            vals.extend(coeffs.iter().map(|(n, v)| (n.as_str(), *v)));
            let (y, next) = step(&d, &state, &vals);
            seen.push(y);
            state = next;
        }
        // Output is registered: y[t+1] corresponds to the MAC at time t.
        assert_eq!(seen[1], 700, "h0·impulse");
        assert_eq!(seen[2], -300, "h1·impulse");
        assert_eq!(seen[3], 1100, "h2·impulse");
        assert_eq!(seen[4], 200, "h3·impulse");
        assert_eq!(seen[5], 0, "impulse has passed");
    }

    #[test]
    fn metadata() {
        let d = dsp_fir();
        assert!(d.is_sequential());
        assert_eq!(d.name, "DSP");
        assert_eq!(d.aig.latch_nodes().len(), 3 * DATA_BITS + OUT_BITS);
    }
}
