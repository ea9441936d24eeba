//! The 8-point fixed-point DCT and IDCT circuits of the paper's image
//! chain — bit-exact hardware twins of [`crate::fixed`].

use crate::design::{Design, PortSpec};
use crate::fixed::{coeff, COEFF_BITS};
use crate::word::{
    add_ripple, const_mul, input_bus, output_bus, resize_signed, round_asr, sub, Bus,
};
use synth::Aig;

/// Width of each sample/coefficient port.
pub const SAMPLE_BITS: usize = 12;
/// Internal accumulator width (products of 12-bit data with 8-bit-scaled
/// coefficients plus headroom for 4-term sums).
const ACC_BITS: usize = 24;

fn sample_ports(prefix: &str, count: usize) -> Vec<PortSpec> {
    (0..count)
        .map(|i| PortSpec { name: format!("{prefix}{i}"), width: SAMPLE_BITS, signed: true })
        .collect()
}

fn acc_add(aig: &mut Aig, a: &Bus, b: &Bus) -> Bus {
    add_ripple(aig, a, b, synth::Lit::FALSE).0
}

fn widen(x: &Bus) -> Bus {
    resize_signed(x, ACC_BITS)
}

/// The combinational 8-point DCT-II circuit (12-bit samples in and out).
///
/// Gate-level evaluation is bit-exact with [`crate::fixed::dct1d`].
#[must_use]
pub fn dct8() -> Design {
    let mut aig = Aig::new();
    let x: Vec<Bus> = (0..8).map(|i| input_bus(&mut aig, &format!("x{i}"), SAMPLE_BITS)).collect();

    // Butterfly stage: s_i = x_i + x_{7-i}, d_i = x_i − x_{7-i} (13 bits).
    let mut s = Vec::new();
    let mut d = Vec::new();
    for i in 0..4 {
        let a = resize_signed(&x[i], SAMPLE_BITS + 1);
        let b = resize_signed(&x[7 - i], SAMPLE_BITS + 1);
        s.push(add_ripple(&mut aig, &a, &b, synth::Lit::FALSE).0);
        d.push(sub(&mut aig, &a, &b).0);
    }
    let t0 = {
        let a = resize_signed(&s[0], SAMPLE_BITS + 2);
        let b = resize_signed(&s[3], SAMPLE_BITS + 2);
        add_ripple(&mut aig, &a, &b, synth::Lit::FALSE).0
    };
    let t1 = {
        let a = resize_signed(&s[1], SAMPLE_BITS + 2);
        let b = resize_signed(&s[2], SAMPLE_BITS + 2);
        add_ripple(&mut aig, &a, &b, synth::Lit::FALSE).0
    };
    let t2 = {
        let a = resize_signed(&s[0], SAMPLE_BITS + 2);
        let b = resize_signed(&s[3], SAMPLE_BITS + 2);
        sub(&mut aig, &a, &b).0
    };
    let t3 = {
        let a = resize_signed(&s[1], SAMPLE_BITS + 2);
        let b = resize_signed(&s[2], SAMPLE_BITS + 2);
        sub(&mut aig, &a, &b).0
    };

    let mut y: Vec<Option<Bus>> = vec![None; 8];
    // y0/y4 from (t0 ± t1).
    let sum01 = {
        let a = widen(&t0);
        let b = widen(&t1);
        add_ripple(&mut aig, &a, &b, synth::Lit::FALSE).0
    };
    let diff01 = {
        let a = widen(&t0);
        let b = widen(&t1);
        sub(&mut aig, &a, &b).0
    };
    let m0 = const_mul(&mut aig, &sum01, coeff(0, 0), ACC_BITS);
    let m4 = const_mul(&mut aig, &diff01, coeff(4, 0), ACC_BITS);
    y[0] = Some(round_asr(&mut aig, &m0, COEFF_BITS as usize));
    y[4] = Some(round_asr(&mut aig, &m4, COEFF_BITS as usize));
    // y2/y6 from (t2, t3).
    for k in [2usize, 6] {
        let p0 = const_mul(&mut aig, &widen(&t2), coeff(k, 0), ACC_BITS);
        let p1 = const_mul(&mut aig, &widen(&t3), coeff(k, 1), ACC_BITS);
        let acc = acc_add(&mut aig, &p0, &p1);
        y[k] = Some(round_asr(&mut aig, &acc, COEFF_BITS as usize));
    }
    // Odd outputs from the 4×4 matrix over d.
    for k in [1usize, 3, 5, 7] {
        let mut acc = const_mul(&mut aig, &widen(&d[0]), coeff(k, 0), ACC_BITS);
        for (n, dn) in d.iter().enumerate().skip(1) {
            let p = const_mul(&mut aig, &widen(dn), coeff(k, n), ACC_BITS);
            acc = acc_add(&mut aig, &acc, &p);
        }
        y[k] = Some(round_asr(&mut aig, &acc, COEFF_BITS as usize));
    }
    for (k, bus) in y.iter().enumerate() {
        #[allow(clippy::expect_used)] // the loops above build all eight outputs
        let out = resize_signed(bus.as_ref().expect("all outputs built"), SAMPLE_BITS);
        output_bus(&mut aig, &format!("y{k}"), &out);
    }

    Design { name: "DCT".into(), aig, inputs: sample_ports("x", 8), outputs: sample_ports("y", 8) }
}

/// The combinational 8-point inverse DCT circuit, bit-exact with
/// [`crate::fixed::idct1d`].
#[must_use]
pub fn idct8() -> Design {
    let mut aig = Aig::new();
    let y: Vec<Bus> = (0..8).map(|k| input_bus(&mut aig, &format!("y{k}"), SAMPLE_BITS)).collect();
    let mut x: Vec<Option<Bus>> = vec![None; 8];
    for n in 0..4 {
        let mut even = const_mul(&mut aig, &widen(&y[0]), coeff(0, n), ACC_BITS);
        for k in [2usize, 4, 6] {
            let p = const_mul(&mut aig, &widen(&y[k]), coeff(k, n), ACC_BITS);
            even = acc_add(&mut aig, &even, &p);
        }
        let mut odd = const_mul(&mut aig, &widen(&y[1]), coeff(1, n), ACC_BITS);
        for k in [3usize, 5, 7] {
            let p = const_mul(&mut aig, &widen(&y[k]), coeff(k, n), ACC_BITS);
            odd = acc_add(&mut aig, &odd, &p);
        }
        let lo = acc_add(&mut aig, &even, &odd);
        let hi = sub(&mut aig, &even, &odd).0;
        x[n] = Some(round_asr(&mut aig, &lo, COEFF_BITS as usize));
        x[7 - n] = Some(round_asr(&mut aig, &hi, COEFF_BITS as usize));
    }
    for (n, bus) in x.iter().enumerate() {
        #[allow(clippy::expect_used)] // the loops above build all eight outputs
        let out = resize_signed(bus.as_ref().expect("all outputs built"), SAMPLE_BITS);
        output_bus(&mut aig, &format!("x{n}"), &out);
    }
    Design { name: "IDCT".into(), aig, inputs: sample_ports("y", 8), outputs: sample_ports("x", 8) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed;

    fn run_dct(design: &Design, x: &[i64; 8], inverse: bool) -> [i64; 8] {
        let prefix_in = if inverse { "y" } else { "x" };
        let prefix_out = if inverse { "x" } else { "y" };
        let names: Vec<String> = (0..8).map(|i| format!("{prefix_in}{i}")).collect();
        let pairs: Vec<(&str, i64)> =
            names.iter().enumerate().map(|(i, n)| (n.as_str(), x[i])).collect();
        let bits = design.encode(&pairs).unwrap();
        let outs = design.aig.eval(&bits, &[]);
        std::array::from_fn(|i| design.decode(&outs, &format!("{prefix_out}{i}")).unwrap())
    }

    #[test]
    fn dct_circuit_matches_reference() {
        let design = dct8();
        let cases: [[i64; 8]; 4] = [
            [0; 8],
            [100, 100, 100, 100, 100, 100, 100, 100],
            [-128, 127, -128, 127, -128, 127, -128, 127],
            [-3, 17, 99, -120, 64, 5, -77, 31],
        ];
        for x in &cases {
            assert_eq!(run_dct(&design, x, false), fixed::dct1d(x), "input {x:?}");
        }
    }

    #[test]
    fn idct_circuit_matches_reference() {
        let design = idct8();
        let cases: [[i64; 8]; 3] = [
            [724, 0, 0, 0, 0, 0, 0, 0],
            [100, -50, 30, -20, 10, -5, 3, -1],
            [-3, 17, 99, -120, 64, 5, -77, 31],
        ];
        for y in &cases {
            assert_eq!(run_dct(&design, y, true), fixed::idct1d(y), "input {y:?}");
        }
    }

    #[test]
    fn chain_round_trips_pixels() {
        let dct = dct8();
        let idct = idct8();
        let x = [-120i64, -60, -10, 0, 15, 60, 100, 127];
        let y = run_dct(&dct, &x, false);
        let back = run_dct(&idct, &y, true);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() <= 2, "round trip {x:?} -> {back:?}");
        }
    }

    #[test]
    fn design_metadata() {
        let d = dct8();
        assert_eq!(d.input_width(), 96);
        assert!(!d.is_sequential());
        assert_eq!(d.outputs.len(), 8);
        assert!(d.aig.and_count() > 1000, "DCT is a real datapath");
    }
}
