//! Word-level circuit construction over [`synth::Aig`].
//!
//! A [`Bus`] is a little-endian vector of literals. All arithmetic is
//! two's-complement; widths are explicit and operations state their result
//! width. These builders are the "RTL" layer of the benchmark generators.

use synth::{Aig, Lit};

/// A little-endian word of literals (`bus[0]` is the LSB).
pub type Bus = Vec<Lit>;

/// Declares a `width`-bit input bus; bit `i` becomes input `name_i`.
pub fn input_bus(aig: &mut Aig, name: &str, width: usize) -> Bus {
    (0..width).map(|i| aig.input(&format!("{name}_{i}"))).collect()
}

/// Declares output `name_i` per bit of `bus`.
pub fn output_bus(aig: &mut Aig, name: &str, bus: &Bus) {
    for (i, lit) in bus.iter().enumerate() {
        aig.output(&format!("{name}_{i}"), *lit);
    }
}

/// A `width`-bit register bank (DFF state bits named `name_i`); returns the
/// current-state bus. Set the next state with [`connect_register`].
pub fn register_bus(aig: &mut Aig, name: &str, width: usize) -> Bus {
    (0..width).map(|i| aig.latch(&format!("{name}_{i}"))).collect()
}

/// Connects the next-state of `state` (made by [`register_bus`]) to `next`.
///
/// # Panics
///
/// Panics on width mismatch.
pub fn connect_register(aig: &mut Aig, state: &Bus, next: &Bus) {
    assert_eq!(state.len(), next.len(), "register width mismatch");
    for (s, n) in state.iter().zip(next) {
        aig.set_latch_next(*s, *n);
    }
}

/// The two's-complement constant `value` at `width` bits.
#[must_use]
pub fn const_bus(value: i64, width: usize) -> Bus {
    (0..width).map(|i| if value >> i & 1 == 1 { Lit::TRUE } else { Lit::FALSE }).collect()
}

/// Sign-extends (or truncates) `bus` to `width` bits.
#[must_use]
pub fn resize_signed(bus: &Bus, width: usize) -> Bus {
    let sign = bus.last().copied().unwrap_or(Lit::FALSE);
    (0..width).map(|i| if i < bus.len() { bus[i] } else { sign }).collect()
}

/// Zero-extends (or truncates) `bus` to `width` bits.
#[must_use]
pub fn resize_unsigned(bus: &Bus, width: usize) -> Bus {
    (0..width).map(|i| bus.get(i).copied().unwrap_or(Lit::FALSE)).collect()
}

/// Bitwise NOT.
#[must_use]
pub fn not_bus(bus: &Bus) -> Bus {
    bus.iter().map(|l| l.complement()).collect()
}

/// Bitwise AND of equal-width buses.
///
/// # Panics
///
/// Panics on width mismatch (all the bitwise helpers do).
pub fn and_bus(aig: &mut Aig, a: &Bus, b: &Bus) -> Bus {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| aig.and(*x, *y)).collect()
}

/// Bitwise OR.
pub fn or_bus(aig: &mut Aig, a: &Bus, b: &Bus) -> Bus {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| aig.or(*x, *y)).collect()
}

/// Bitwise XOR.
pub fn xor_bus(aig: &mut Aig, a: &Bus, b: &Bus) -> Bus {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| aig.xor(*x, *y)).collect()
}

/// Per-bit 2:1 mux: `if sel { a } else { b }`.
pub fn mux_bus(aig: &mut Aig, sel: Lit, a: &Bus, b: &Bus) -> Bus {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| aig.mux(sel, *x, *y)).collect()
}

/// Ripple-carry addition `a + b + cin`; returns `(sum, carry_out)` with
/// `sum.len() == a.len()`.
pub fn add_ripple(aig: &mut Aig, a: &Bus, b: &Bus, cin: Lit) -> (Bus, Lit) {
    assert_eq!(a.len(), b.len());
    let mut carry = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (x, y) in a.iter().zip(b) {
        let p = aig.xor(*x, *y);
        sum.push(aig.xor(p, carry));
        // carry' = x·y + carry·(x ⊕ y)
        let g = aig.and(*x, *y);
        let t = aig.and(carry, p);
        carry = aig.or(g, t);
    }
    (sum, carry)
}

/// Carry-lookahead addition in 4-bit groups — same function as
/// [`add_ripple`] but a different (flatter) path structure, used to
/// diversify the benchmarks' timing topology.
pub fn add_cla(aig: &mut Aig, a: &Bus, b: &Bus, cin: Lit) -> (Bus, Lit) {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let p: Vec<Lit> = a.iter().zip(b).map(|(x, y)| aig.xor(*x, *y)).collect();
    let g: Vec<Lit> = a.iter().zip(b).map(|(x, y)| aig.and(*x, *y)).collect();
    let mut carries = Vec::with_capacity(n + 1);
    carries.push(cin);
    for group in (0..n).step_by(4) {
        let gc = carries[group];
        let end = (group + 4).min(n);
        // Index loops mirror the g/p subscripts of the equation below.
        #[allow(clippy::needless_range_loop)]
        for i in group..end {
            // c_{i+1} = g_i + Σ_{j≤i} (g_j · Π p_{j+1..=i}) + gc·Π p_{group..=i}
            let mut terms = vec![g[i]];
            for j in group..i {
                let mut t = g[j];
                for k in (j + 1)..=i {
                    t = aig.and(t, p[k]);
                }
                terms.push(t);
            }
            let mut t = gc;
            for k in group..=i {
                t = aig.and(t, p[k]);
            }
            terms.push(t);
            let c = aig.or_multi(&terms);
            carries.push(c);
        }
    }
    let sum: Vec<Lit> = (0..n).map(|i| aig.xor(p[i], carries[i])).collect();
    (sum, carries[n])
}

/// Two's-complement subtraction `a - b`; returns `(difference, borrow-free)`
/// where the second literal is the adder's carry-out.
pub fn sub(aig: &mut Aig, a: &Bus, b: &Bus) -> (Bus, Lit) {
    let nb = not_bus(b);
    add_ripple(aig, a, &nb, Lit::TRUE)
}

/// Two's-complement negation at the same width.
pub fn negate(aig: &mut Aig, a: &Bus) -> Bus {
    let zero = const_bus(0, a.len());
    sub(aig, &zero, a).0
}

/// Unsigned array multiplication; result has `a.len() + b.len()` bits.
pub fn mul_array(aig: &mut Aig, a: &Bus, b: &Bus) -> Bus {
    let width = a.len() + b.len();
    let mut acc = const_bus(0, width);
    for (i, bi) in b.iter().enumerate() {
        let mut partial = const_bus(0, width);
        for (j, aj) in a.iter().enumerate() {
            if i + j < width {
                partial[i + j] = aig.and(*aj, *bi);
            }
        }
        let (s, _) = add_ripple(aig, &acc, &partial, Lit::FALSE);
        acc = s;
    }
    acc
}

/// Signed (two's-complement) multiplication via sign/magnitude correction;
/// result has `a.len() + b.len()` bits.
pub fn mul_signed(aig: &mut Aig, a: &Bus, b: &Bus) -> Bus {
    let width = a.len() + b.len();
    let ax = resize_signed(a, width);
    let bx = resize_signed(b, width);
    // Shift-add over the (sign-extended) multiplier bits: for bit i of b,
    // add a << i; the top bit of b carries negative weight.
    let mut acc = const_bus(0, width);
    for i in 0..b.len() {
        let shifted: Bus =
            (0..width).map(|k| if k >= i { ax[k - i] } else { Lit::FALSE }).collect();
        if i == b.len() - 1 {
            // Negative weight: subtract when the sign bit is set.
            let neg = negate(aig, &shifted);
            let sel = mux_bus(aig, bx[i.min(width - 1)], &neg, &const_bus(0, width));
            let (s, _) = add_ripple(aig, &acc, &sel, Lit::FALSE);
            acc = s;
        } else {
            let sel = mux_bus(aig, bx[i], &shifted, &const_bus(0, width));
            let (s, _) = add_ripple(aig, &acc, &sel, Lit::FALSE);
            acc = s;
        }
    }
    acc
}

/// Multiplies a signed bus by a constant using shift-adds (canonical
/// signed-digit recoding); the result has `width` bits.
pub fn const_mul(aig: &mut Aig, a: &Bus, constant: i64, width: usize) -> Bus {
    let ax = resize_signed(a, width);
    let mut acc = const_bus(0, width);
    // CSD recoding of |constant|.
    let negative = constant < 0;
    let mut c = constant.unsigned_abs();
    let mut shift = 0usize;
    let mut digits: Vec<(usize, bool)> = Vec::new(); // (shift, subtract)
    while c != 0 {
        if c & 1 == 1 {
            if c & 3 == 3 {
                // …11 → +1 carry, digit −1.
                digits.push((shift, true));
                c += 1;
            } else {
                digits.push((shift, false));
                c -= 1;
            }
        }
        c >>= 1;
        shift += 1;
    }
    for (s, subtract) in digits {
        let shifted: Bus =
            (0..width).map(|k| if k >= s { ax[k - s] } else { Lit::FALSE }).collect();
        acc = if subtract {
            sub(aig, &acc, &shifted).0
        } else {
            add_ripple(aig, &acc, &shifted, Lit::FALSE).0
        };
    }
    if negative {
        negate(aig, &acc)
    } else {
        acc
    }
}

/// Arithmetic right shift by a constant, keeping the width.
#[must_use]
pub fn asr_const(a: &Bus, shift: usize) -> Bus {
    let sign = a.last().copied().unwrap_or(Lit::FALSE);
    (0..a.len()).map(|i| a.get(i + shift).copied().unwrap_or(sign)).collect()
}

/// Rounding arithmetic right shift: `(a + 2^(shift-1)) >> shift`, keeping
/// the input width. The rounding addition runs with one bit of headroom so
/// it cannot overflow even at the extreme positive input.
pub fn round_asr(aig: &mut Aig, a: &Bus, shift: usize) -> Bus {
    if shift == 0 {
        return a.clone();
    }
    let wide = resize_signed(a, a.len() + 1);
    let rounding = const_bus(1i64 << (shift - 1), a.len() + 1);
    let (sum, _) = add_ripple(aig, &wide, &rounding, Lit::FALSE);
    let shifted = asr_const(&sum, shift);
    resize_signed(&shifted, a.len())
}

/// Logical barrel shifter: shifts `a` left (`left = true`) or right by the
/// unsigned amount on `amount` (log₂-staged muxes).
pub fn barrel_shift(aig: &mut Aig, a: &Bus, amount: &Bus, left: bool) -> Bus {
    let mut cur = a.clone();
    for (stage, sel) in amount.iter().enumerate() {
        let dist = 1usize << stage;
        if dist >= cur.len() {
            break;
        }
        let shifted: Bus = (0..cur.len())
            .map(|i| {
                if left {
                    if i >= dist {
                        cur[i - dist]
                    } else {
                        Lit::FALSE
                    }
                } else {
                    cur.get(i + dist).copied().unwrap_or(Lit::FALSE)
                }
            })
            .collect();
        cur = mux_bus(aig, *sel, &shifted, &cur);
    }
    cur
}

/// Equality comparison.
pub fn eq_bus(aig: &mut Aig, a: &Bus, b: &Bus) -> Lit {
    assert_eq!(a.len(), b.len());
    let diffs: Vec<Lit> = a.iter().zip(b).map(|(x, y)| aig.xor(*x, *y)).collect();
    aig.or_multi(&diffs).complement()
}

/// Unsigned less-than comparison `a < b`.
pub fn lt_unsigned(aig: &mut Aig, a: &Bus, b: &Bus) -> Lit {
    // a < b  ⇔  borrow out of a − b.
    let (_, carry) = sub(aig, a, b);
    carry.complement()
}

/// Signed less-than comparison `a < b`.
#[allow(clippy::expect_used)] // `a` is asserted non-empty; `sub` keeps `b` and `diff` as wide
pub fn lt_signed(aig: &mut Aig, a: &Bus, b: &Bus) -> Lit {
    assert!(!a.is_empty());
    let (diff, _) = sub(aig, a, b);
    // Overflow-aware sign test: lt = diff_sign ⊕ overflow.
    let sa = *a.last().expect("nonempty");
    let sb = *b.last().expect("nonempty");
    let sd = *diff.last().expect("nonempty");
    // overflow = (sa ⊕ sb) & (sa ⊕ sd)
    let x1 = aig.xor(sa, sb);
    let x2 = aig.xor(sa, sd);
    let ovf = aig.and(x1, x2);
    aig.xor(sd, ovf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_signed(aig: &Aig, out_range: std::ops::Range<usize>, inputs: &[bool]) -> i64 {
        let outs = aig.eval(inputs, &[]);
        let bits = &outs[out_range];
        let mut v: i64 = 0;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v |= 1 << i;
            }
        }
        let w = bits.len();
        if bits[w - 1] {
            v -= 1 << w;
        }
        v
    }

    fn encode(value: i64, width: usize) -> Vec<bool> {
        (0..width).map(|i| value >> i & 1 == 1).collect()
    }

    #[test]
    fn adders_match_integer_addition() {
        for builder in [add_ripple, add_cla] {
            let mut g = Aig::new();
            let a = input_bus(&mut g, "a", 8);
            let b = input_bus(&mut g, "b", 8);
            let (sum, cout) = builder(&mut g, &a, &b, Lit::FALSE);
            output_bus(&mut g, "s", &sum);
            g.output("cout", cout);
            for (x, y) in [(0i64, 0i64), (1, 1), (100, 27), (255, 255), (128, 128), (37, 219)] {
                let mut inputs = encode(x, 8);
                inputs.extend(encode(y, 8));
                let outs = g.eval(&inputs, &[]);
                let mut got = 0i64;
                for (i, &o) in outs.iter().take(8).enumerate() {
                    if o {
                        got |= 1 << i;
                    }
                }
                if outs[8] {
                    got |= 1 << 8;
                }
                assert_eq!(got, x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn subtraction_and_negation() {
        let mut g = Aig::new();
        let a = input_bus(&mut g, "a", 8);
        let b = input_bus(&mut g, "b", 8);
        let (d, _) = sub(&mut g, &a, &b);
        let n = negate(&mut g, &a);
        output_bus(&mut g, "d", &d);
        output_bus(&mut g, "n", &n);
        for (x, y) in [(5i64, 3i64), (3, 5), (-100, 27), (-128, -1), (127, -127)] {
            let mut inputs = encode(x, 8);
            inputs.extend(encode(y, 8));
            assert_eq!(eval_signed(&g, 0..8, &inputs), i64::from((x - y) as i8), "{x}-{y}");
            assert_eq!(eval_signed(&g, 8..16, &inputs), i64::from((-x) as i8), "-{x}");
        }
    }

    #[test]
    fn unsigned_multiplier() {
        let mut g = Aig::new();
        let a = input_bus(&mut g, "a", 6);
        let b = input_bus(&mut g, "b", 6);
        let p = mul_array(&mut g, &a, &b);
        output_bus(&mut g, "p", &p);
        for (x, y) in [(0u64, 0u64), (1, 63), (63, 63), (17, 23), (40, 25)] {
            let mut inputs = encode(x as i64, 6);
            inputs.extend(encode(y as i64, 6));
            let outs = g.eval(&inputs, &[]);
            let mut got = 0u64;
            for (i, &o) in outs.iter().take(12).enumerate() {
                if o {
                    got |= 1 << i;
                }
            }
            assert_eq!(got, x * y, "{x}*{y}");
        }
    }

    #[test]
    fn signed_multiplier() {
        let mut g = Aig::new();
        let a = input_bus(&mut g, "a", 6);
        let b = input_bus(&mut g, "b", 6);
        let p = mul_signed(&mut g, &a, &b);
        output_bus(&mut g, "p", &p);
        for (x, y) in [(0i64, 0i64), (-1, 1), (-32, 31), (-32, -32), (17, -23), (-5, -5)] {
            let mut inputs = encode(x, 6);
            inputs.extend(encode(y, 6));
            assert_eq!(eval_signed(&g, 0..12, &inputs), x * y, "{x}*{y}");
        }
    }

    #[test]
    fn constant_multiplier_csd() {
        for constant in [0i64, 1, 2, 3, 7, 23, 181, 256, -1, -7, -100, 255] {
            let mut g = Aig::new();
            let a = input_bus(&mut g, "a", 8);
            let p = const_mul(&mut g, &a, constant, 20);
            output_bus(&mut g, "p", &p);
            for x in [-128i64, -77, -1, 0, 1, 77, 127] {
                let inputs = encode(x, 8);
                assert_eq!(eval_signed(&g, 0..20, &inputs), constant * x, "{constant}*{x}");
            }
        }
    }

    #[test]
    fn shifts() {
        let mut g = Aig::new();
        let a = input_bus(&mut g, "a", 8);
        let amt = input_bus(&mut g, "amt", 3);
        let l = barrel_shift(&mut g, &a, &amt, true);
        let r = barrel_shift(&mut g, &a, &amt, false);
        output_bus(&mut g, "l", &l);
        output_bus(&mut g, "r", &r);
        for (x, s) in [(0b1011_0010i64, 0i64), (0b1011_0010, 3), (0b1011_0010, 7), (1, 7)] {
            let mut inputs = encode(x, 8);
            inputs.extend(encode(s, 3));
            let outs = g.eval(&inputs, &[]);
            let mut left = 0i64;
            let mut right = 0i64;
            for i in 0..8 {
                if outs[i] {
                    left |= 1 << i;
                }
                if outs[8 + i] {
                    right |= 1 << i;
                }
            }
            assert_eq!(left, (x << s) & 0xff, "{x} << {s}");
            assert_eq!(right, (x & 0xff) >> s, "{x} >> {s}");
        }
    }

    #[test]
    fn rounding_shift() {
        let mut g = Aig::new();
        let a = input_bus(&mut g, "a", 12);
        let r = round_asr(&mut g, &a, 4);
        output_bus(&mut g, "r", &r);
        for x in [-2048i64, -100, -8, -7, 0, 7, 8, 100, 2040] {
            let inputs = encode(x, 12);
            let want = (x + 8) >> 4;
            assert_eq!(eval_signed(&g, 0..12, &inputs), want, "round({x})");
        }
    }

    #[test]
    fn comparisons() {
        let mut g = Aig::new();
        let a = input_bus(&mut g, "a", 6);
        let b = input_bus(&mut g, "b", 6);
        let e = eq_bus(&mut g, &a, &b);
        let ltu = lt_unsigned(&mut g, &a, &b);
        let lts = lt_signed(&mut g, &a, &b);
        g.output("e", e);
        g.output("ltu", ltu);
        g.output("lts", lts);
        for (x, y) in [(0i64, 0i64), (5, 5), (3, 9), (9, 3), (-1, 0), (0, -1), (-30, -2), (31, -32)]
        {
            let mut inputs = encode(x, 6);
            inputs.extend(encode(y, 6));
            let outs = g.eval(&inputs, &[]);
            let (ux, uy) = ((x as u64) & 63, (y as u64) & 63);
            assert_eq!(outs[0], x == y, "{x}=={y}");
            assert_eq!(outs[1], ux < uy, "{ux}<u{uy}");
            assert_eq!(outs[2], x < y, "{x}<s{y}");
        }
    }

    #[test]
    fn registers_round_trip() {
        let mut g = Aig::new();
        let d = input_bus(&mut g, "d", 4);
        let state = register_bus(&mut g, "r", 4);
        connect_register(&mut g, &state, &d);
        output_bus(&mut g, "q", &state);
        let s0 = vec![false; 4];
        let s1 = g.eval_next_state(&encode(0b1010, 4), &s0);
        assert_eq!(s1, encode(0b1010, 4));
        let out = g.eval(&encode(0, 4), &s1);
        assert_eq!(out, encode(0b1010, 4));
    }
}
