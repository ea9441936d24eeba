//! Fuzzing the JSON codec: the parser never panics on JSON-like noise, and
//! every value the codec can represent survives `render` → `parse` bit for
//! bit.
//!
//! The property-test harness has no recursive or regex strategies, so
//! nested values are built by a small stack machine driven by a vector of
//! steps, and noise is such a value's text with tokens spliced in at
//! generated positions and a generated tail cut off.

use bti::json::Json;
use proptest::prelude::*;

/// Tokens that make up JSON, broken JSON and the parser's edge cases:
/// escapes, surrogate halves, number forms, literals and their prefixes.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\n", "\\x", "d83d", "dc00", "0", "7", "-",
    "+", ".", "e", "E", "1e400", "01", "true", "false", "null", "nul", "tru", " ", "\n", "\t", "a",
    "é", "😀", "\u{1}", "\u{7f}", "/",
];

/// Characters a generated string or key is drawn from: everything the
/// escaper treats specially plus multi-byte UTF-8.
const CHARS: &[char] = &[
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '/', 'a', ' ', 'é', '😀', '\u{2028}',
];

/// Up to seven characters of [`CHARS`], chosen by the bits of `seed`.
fn text_from(seed: u64) -> String {
    let len = (seed % 8) as usize;
    (0..len).map(|k| CHARS[((seed >> (3 + 6 * k)) % CHARS.len() as u64) as usize]).collect()
}

/// Runs the steps on a stack of values and returns the stack as one array.
/// A step pushes a leaf (null, bool, number, string) or folds up to the
/// top three entries into an array or an object, so `n` steps nest at most
/// `n + 1` deep.
fn build(steps: &[(u8, u64)]) -> Json {
    let mut stack: Vec<Json> = Vec::new();
    for &(kind, seed) in steps {
        match kind % 7 {
            0 => stack.push(Json::Null),
            1 => stack.push(Json::Bool(seed & 1 == 1)),
            2 => {
                // Any finite bit pattern: subnormals, −0, the extremes.
                let v = f64::from_bits(seed);
                stack.push(Json::Num(if v.is_finite() { v } else { 0.5 }));
            }
            3 => stack.push(Json::Num((seed as i64 >> 8) as f64)),
            4 => stack.push(Json::Str(text_from(seed))),
            5 => {
                let items =
                    stack.split_off(stack.len() - (seed % 4).min(stack.len() as u64) as usize);
                stack.push(Json::Arr(items));
            }
            _ => {
                let items =
                    stack.split_off(stack.len() - (seed % 4).min(stack.len() as u64) as usize);
                let fields = items
                    .into_iter()
                    .enumerate()
                    .map(|(k, v)| (text_from(seed.rotate_right(8 * k as u32 + 2)), v))
                    .collect();
                stack.push(Json::Obj(fields));
            }
        }
    }
    Json::Arr(stack)
}

/// JSON-like noise: a generated document with tokens spliced in and its
/// tail cut off, so the parser meets every construct half-finished.
fn noise(steps: &[(u8, u64)], splices: &[(usize, usize)], cut: usize) -> String {
    let boundary = |text: &str, mut at: usize| {
        at %= text.len() + 1;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    let mut text = build(steps).render();
    for &(at, token) in splices {
        text.insert_str(boundary(&text, at), TOKENS[token]);
    }
    text.truncate(boundary(&text, cut));
    text
}

/// Structural equality with numbers compared by bit pattern, so `-0` and
/// `0` differ.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs.iter().zip(ys).all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Noise is answered with a value or an error, never a panic, and a
    /// value it accepts renders back to text it accepts again.
    #[test]
    fn parse_never_panics_on_json_like_noise(
        steps in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..24),
        splices in proptest::collection::vec((any::<usize>(), 0..TOKENS.len()), 0..4),
        cut in any::<usize>(),
    ) {
        let text = noise(&steps, &splices, cut);
        if let Ok(value) = Json::parse(&text) {
            prop_assert!(Json::parse(&value.render()).is_ok(), "{text:?} → {}", value.render());
        }
    }

    /// Generated values come back bit-identical from both layouts.
    #[test]
    fn generated_values_round_trip_exactly(
        steps in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..40),
    ) {
        let value = build(&steps);
        for text in [value.render(), value.render_pretty()] {
            let back = Json::parse(&text);
            prop_assert!(back.as_ref().is_ok_and(|back| same(back, &value)), "{text} → {back:?}");
        }
    }
}
