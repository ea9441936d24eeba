//! Criterion benchmark of the `Mechanism` hot path: the static
//! lifetime analyzer evaluates every mechanism at two interval endpoints
//! per instance, so suite evaluation dominates its runtime.

use bti::{AgingInput, AgingSuite};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A deterministic spread of operating points (LCG over duty/temp/vdd).
fn inputs(n: usize) -> Vec<AgingInput> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut unit = move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            AgingInput::new(
                unit(),
                1.0 + 9.0 * unit(),
                368.15 + 60.0 * unit(),
                1.1 + 0.2 * unit(),
                1.0e9,
            )
        })
        .collect()
}

fn bench_mechanisms(c: &mut Criterion) {
    let suite = AgingSuite::standard();
    let points = inputs(256);
    let mut group = c.benchmark_group("aging_mechanisms");

    // Per-mechanism cost of one full evaluation (degradation + failure
    // distribution). BTI is the expensive one: its failure time bisects.
    for (_, mech) in suite.mechanisms() {
        group.bench_function(mech.name(), |b| {
            b.iter(|| {
                for input in &points {
                    let d = mech.degradation(black_box(input));
                    let w = mech.failure_distribution(black_box(input));
                    black_box((d, w));
                }
            });
        });
    }

    // The analyzer's actual inner loop: all five mechanisms per point.
    group.bench_function("suite_256_points", |b| {
        b.iter(|| {
            let mut hazard = 0.0;
            for input in &points {
                for (_, mech) in suite.mechanisms() {
                    if let Some(w) = mech.failure_distribution(black_box(input)) {
                        hazard += w.cumulative_hazard(10.0);
                    }
                }
            }
            black_box(hazard)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mechanisms);
criterion_main!(benches);
