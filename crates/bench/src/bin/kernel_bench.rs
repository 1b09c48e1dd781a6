//! GEMM micro-kernel benchmark: every SIMD level the host can execute,
//! plus the threaded column-partition path, on the conv-shaped products
//! the inference engine actually runs. Asserts bit-identity against the
//! naive reference kernel for every configuration before timing it, so a
//! kernel that got fast by getting wrong can never produce a report.
//!
//! Emits `BENCH_kernel.json` (flat hand-rolled schema like the other
//! bench reports); CI uploads it as an artifact so per-ISA kernel
//! regressions are attributable separately from dispatch decisions.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin kernel_bench -- \
//!     [--iters N]   (timed repetitions per shape, default 20)
//!     [--out PATH]  (default BENCH_kernel.json)
//! ```

use oppsla_eval::cli::Args;
use oppsla_tensor::gemm::{available_levels, matmul_packed_into_with, pack_a, simd_isa, SimdLevel};
use oppsla_tensor::ops::matmul_into;
use std::hint::black_box;
use std::time::Instant;

/// Conv-shaped GEMM sizes from the zoo: `[out_c, k] × [k, columns]`.
/// Labels name the layer the shape is taken from.
const SHAPES: [(&str, usize, usize, usize); 4] = [
    ("vgg_conv_32x32", 64, 576, 1024),
    ("densenet_stem_64x64", 64, 432, 4096),
    ("resnet_block_16x16", 128, 1152, 256),
    ("delta_group_4x4", 256, 2304, 48),
];

fn lcg_data(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

struct Config {
    level: SimdLevel,
    threads: usize,
}

fn main() {
    let args = Args::parse();
    let iters = args.get_usize("iters", 20).max(1);
    let out_path = args.get_str("out", "BENCH_kernel.json");

    let levels = available_levels();
    let mut configs: Vec<Config> = levels
        .iter()
        .map(|&level| Config { level, threads: 1 })
        .collect();
    // Thread sweep at the widest level only — the partition logic is
    // level-independent.
    let widest = *levels.last().expect("scalar always available");
    for threads in [2, 4] {
        configs.push(Config {
            level: widest,
            threads,
        });
    }

    eprintln!(
        "{iters} iters/shape, detected isa {}, {} configuration(s)",
        simd_isa(),
        configs.len()
    );

    // rows: (shape label, level, threads, best ns, gflops, speedup vs scalar)
    let mut rows: Vec<(String, String, usize, u64, f64, f64)> = Vec::new();
    for &(label, m, k, n) in &SHAPES {
        let a = lcg_data(m * k, 0xa11ce);
        let b = lcg_data(k * n, 0xb0b);
        let packed = pack_a(&a, m, k);
        let mut reference = vec![f32::NAN; m * n];
        matmul_into(&a, &b, m, k, n, &mut reference);
        let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        let flops = 2.0 * (m * k * n) as f64;

        let mut scalar_ns = 0u64;
        for config in &configs {
            let mut pack_buf = Vec::new();
            let mut out = vec![f32::NAN; m * n];
            // Correctness first: this configuration must reproduce the
            // naive kernel bit for bit or the benchmark is meaningless.
            matmul_packed_into_with(
                config.level,
                config.threads,
                &packed,
                &b,
                n,
                &mut pack_buf,
                &mut out,
            );
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ref_bits,
                "{label}: level {} threads {} diverged from the naive kernel",
                config.level.as_str(),
                config.threads
            );

            let mut best = u64::MAX;
            for _ in 0..iters {
                let t = Instant::now();
                matmul_packed_into_with(
                    config.level,
                    config.threads,
                    &packed,
                    black_box(&b),
                    n,
                    &mut pack_buf,
                    &mut out,
                );
                black_box(&out);
                best = best.min(t.elapsed().as_nanos() as u64);
            }
            if config.level == SimdLevel::Scalar && config.threads == 1 {
                scalar_ns = best;
            }
            let gflops = flops / best as f64;
            let vs_scalar = scalar_ns as f64 / best as f64;
            eprintln!(
                "[{label}] {m}x{k}x{n} {}/{}t: {best} ns, {gflops:.2} GFLOP/s, {vs_scalar:.2}x scalar",
                config.level.as_str(),
                config.threads
            );
            rows.push((
                label.to_owned(),
                config.level.as_str().to_owned(),
                config.threads,
                best,
                gflops,
                vs_scalar,
            ));
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"gemm_kernel\",\n");
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"simd_isa\": \"{}\",\n", simd_isa()));
    json.push_str("  \"results\": [\n");
    for (i, (label, level, threads, ns, gflops, vs_scalar)) in rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"shape\": \"{}\", \"level\": \"{}\", \"threads\": {}, ",
                "\"best_ns\": {}, \"gflops\": {:.3}, \"speedup_vs_scalar\": {:.3}}}{}\n"
            ),
            label,
            level,
            threads,
            ns,
            gflops,
            vs_scalar,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("report written to {out_path}"),
        Err(e) => {
            eprintln!("warning: could not write {out_path}: {e}");
            println!("{json}");
        }
    }
}
