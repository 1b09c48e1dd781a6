//! Forward-pass microbenchmark: tape-based `ConvNet::scores` vs. the
//! compiled allocation-free [`InferencePlan`] hot path, plus parallel
//! query throughput and the incremental pixel-delta engine, for every zoo
//! architecture.
//!
//! Emits machine-readable JSON reports (default `BENCH_forward.json` and
//! `BENCH_incremental.json` at the current directory) so CI and future
//! sessions can track the query hot path's cost without parsing criterion
//! output.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin forward_bench -- \
//!     [--iters N]     (timed queries per measurement, default 200)
//!     [--batch N]     (images per throughput measurement, default 64)
//!     [--batch-k N]   (candidates per batched sweep, default 8)
//!     [--threads N]   (worker threads; 0 = auto, default 0)
//!     [--gemm-threads N] (GEMM worker fan-out; 0 = leave process default)
//!     [--tune MODE]   (conv route tuning: measure | off, default measure)
//!     [--out PATH]    (default BENCH_forward.json)
//!     [--inc-out PATH] (default BENCH_incremental.json)
//!     [--batched-out PATH] (default BENCH_batched.json)
//! ```
//!
//! `engine_speedup` is the seed repo's per-query cost (the allocating
//! autograd tape, still exercised by `ConvNet::scores`) divided by the
//! compiled plan's per-query cost on the same weights and input.
//! `incremental_speedup` is the compiled plan's full-forward cost divided
//! by the dirty-region pixel-delta cost on the same base image, measured
//! over a sweep of candidate pixels that mirrors the attack's query
//! pattern (one cached base, many single-pixel candidates).

use oppsla_bench::{threads_from, tune_from};
use oppsla_core::parallel::parallel_map_with;
use oppsla_eval::cli::Args;
use oppsla_nn::delta::BaseActivations;
use oppsla_nn::infer::InferenceEngine;
use oppsla_nn::models::{Arch, ConvNet, InputSpec};
use oppsla_tensor::{gemm, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// One architecture's measurements, all in nanoseconds per query or
/// queries per second, plus the tuner's route decisions so regressions
/// are attributable to dispatch vs kernel.
struct Row {
    arch: &'static str,
    input: String,
    tape_ns: f64,
    engine_ns: f64,
    incremental_ns: f64,
    batched_delta_ns: f64,
    batched_forward_ns: f64,
    sequential_qps: f64,
    parallel_qps: f64,
    /// Full-forward conv routes, e.g. `direct:2,gemm:6` (`none` = no convs).
    fwd_routes: String,
    /// Batched-delta group thresholds, e.g. `g8:5,g32:3`.
    delta_routes: String,
}

/// Compacts per-conv route labels into `label:count` pairs in first-seen
/// order (`none` for conv-free plans like the MLP).
fn route_summary(labels: impl Iterator<Item = String>) -> String {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for l in labels {
        match counts.iter_mut().find(|(k, _)| *k == l) {
            Some((_, c)) => *c += 1,
            None => counts.push((l, 1)),
        }
    }
    if counts.is_empty() {
        return "none".to_owned();
    }
    counts
        .iter()
        .map(|(k, c)| format!("{k}:{c}"))
        .collect::<Vec<_>>()
        .join(",")
}

impl Row {
    fn speedup(&self) -> f64 {
        self.tape_ns / self.engine_ns
    }

    fn incremental_speedup(&self) -> f64 {
        self.engine_ns / self.incremental_ns
    }

    /// Batched candidate throughput over the sequential delta path.
    fn batched_speedup(&self) -> f64 {
        self.incremental_ns / self.batched_delta_ns
    }

    /// Batched full-forward throughput over the sequential full forward.
    fn batched_forward_speedup(&self) -> f64 {
        self.engine_ns / self.batched_forward_ns
    }
}

fn main() {
    let args = Args::parse();
    let iters = args.get_usize("iters", 200).max(1);
    let batch = args.get_usize("batch", 64).max(1);
    let batch_k = args.get_usize("batch-k", 8).max(1);
    let threads = threads_from(&args);
    let tune = tune_from(&args);
    // GEMM fan-out inside a single product: 0 (default) leaves the
    // process-wide setting (OPPSLA_GEMM_THREADS or 1) untouched.
    let gemm_threads_arg = args.get_usize("gemm-threads", 0);
    if gemm_threads_arg > 0 {
        gemm::set_gemm_threads(gemm_threads_arg);
    }
    let gemm_threads = gemm::gemm_threads();
    let simd_isa = gemm::simd_isa();
    let out_path = args.get_str("out", "BENCH_forward.json");
    let inc_out_path = args.get_str("inc-out", "BENCH_incremental.json");
    let batched_out_path = args.get_str("batched-out", "BENCH_batched.json");

    eprintln!(
        "{iters} iters, {batch}-image batches, {batch_k}-candidate sweeps, {threads} worker \
         thread(s), simd {simd_isa}, {gemm_threads} GEMM thread(s), --tune {tune}"
    );

    let cases: [(Arch, InputSpec, usize); 7] = [
        (Arch::VggSmall, InputSpec::RGB32, 10),
        (Arch::ResNetSmall, InputSpec::RGB32, 10),
        (Arch::GoogLeNetSmall, InputSpec::RGB32, 10),
        (Arch::DenseNetSmall, InputSpec::RGB32, 10),
        (Arch::Mlp, InputSpec::RGB32, 10),
        (Arch::ResNetSmall, InputSpec::RGB64, 20),
        (Arch::DenseNetSmall, InputSpec::RGB64, 20),
    ];

    let mut rows = Vec::new();
    for (arch, input, classes) in cases {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = ConvNet::build(arch, input, classes, &mut rng);
        let engine = InferenceEngine::new(&net);
        let plan = engine.plan();
        let image = Tensor::from_fn([input.channels, input.height, input.width], |i| {
            (i % 97) as f32 / 97.0
        });

        // Warm-up both paths (first tape call grows its arena; first plan
        // call touches the workspace pages).
        let tape_scores = net.scores(&image);
        let engine_scores = engine.scores(&image);
        assert_eq!(
            tape_scores, engine_scores,
            "[{arch}] engine disagrees with the tape"
        );

        // Seed path: autograd tape, allocating per query.
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(net.scores(black_box(&image)));
        }
        let tape_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

        // Compiled path: reused workspace + score buffer, zero
        // steady-state allocations.
        let mut ws = plan.workspace();
        let mut buf = Vec::with_capacity(plan.num_classes());
        let t1 = Instant::now();
        for _ in 0..iters {
            plan.scores_into(&mut ws, black_box(&image), &mut buf);
            black_box(&buf);
        }
        let engine_ns = t1.elapsed().as_nanos() as f64 / iters as f64;

        // Incremental path: one cached base, many single-pixel candidates
        // — the attack's actual query pattern. The candidate sweep walks
        // the image with RGB-corner values like the sketch's pair queue.
        let delta = engine.delta_plan();
        let acts = BaseActivations::capture(plan, &mut ws, &image);
        let mut dws = delta.workspace(&acts);
        let corners = [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
        ];
        let (h, w) = (input.height, input.width);
        // Sanity: the incremental path must be bit-identical to a full
        // forward on the poked image.
        {
            let (row, col) = (h / 3, w / 2);
            let rgb = corners[1];
            delta.scores_pixel_delta_into(plan, &acts, &mut dws, row, col, rgb, &mut buf);
            let mut poked = image.clone();
            let area = h * w;
            for (c, v) in rgb.iter().enumerate() {
                poked.data_mut()[c * area + row * w + col] = *v;
            }
            let mut full = Vec::new();
            plan.scores_into(&mut ws, &poked, &mut full);
            assert_eq!(
                buf, full,
                "[{arch}] incremental disagrees with full forward"
            );
        }
        let t2 = Instant::now();
        for i in 0..iters {
            let (row, col) = ((i * 13) % h, (i * 29) % w);
            delta.scores_pixel_delta_into(
                plan,
                &acts,
                &mut dws,
                black_box(row),
                black_box(col),
                corners[i % corners.len()],
                &mut buf,
            );
            black_box(&buf);
        }
        let incremental_ns = t2.elapsed().as_nanos() as f64 / iters as f64;

        // Batched candidate path: the same pixel-candidate sweep, `batch_k`
        // candidates per layer-major sweep over shared base activations.
        let mut batch_dws: Vec<_> = (0..batch_k).map(|_| delta.workspace(&acts)).collect();
        let mut scratch = oppsla_nn::delta::DeltaBatchScratch::new();
        let mut cands: Vec<(usize, usize, [f32; 3])> = Vec::with_capacity(batch_k);
        let mut batch_buf: Vec<f32> = Vec::with_capacity(batch_k * plan.num_classes());
        let sweeps = (iters / batch_k).max(1);
        let fill_cands = |cands: &mut Vec<(usize, usize, [f32; 3])>, sweep: usize| {
            cands.clear();
            for j in 0..batch_k {
                let q = sweep * batch_k + j;
                cands.push(((q * 13) % h, (q * 29) % w, corners[q % corners.len()]));
            }
        };
        fill_cands(&mut cands, 0); // warm-up sweep
        delta.scores_pixel_delta_batch_into(
            plan,
            &acts,
            &mut batch_dws,
            &cands,
            &mut scratch,
            &mut batch_buf,
        );
        let t3 = Instant::now();
        for sweep in 0..sweeps {
            fill_cands(&mut cands, sweep);
            delta.scores_pixel_delta_batch_into(
                plan,
                &acts,
                &mut batch_dws,
                black_box(&cands),
                &mut scratch,
                &mut batch_buf,
            );
            black_box(&batch_buf);
        }
        let batched_delta_ns = t3.elapsed().as_nanos() as f64 / (sweeps * batch_k) as f64;

        // Batched full forward: `batch_k` whole images per layer-major
        // sweep against the sequential compiled forward.
        let batch_images: Vec<Tensor> = (0..batch_k)
            .map(|b| {
                Tensor::from_fn([input.channels, input.height, input.width], |i| {
                    ((i + b * 53) % 97) as f32 / 97.0
                })
            })
            .collect();
        let batched_plan = plan.batched();
        let mut bws = batched_plan.workspace(batch_k);
        batched_plan.scores_batch_into(&mut bws, &batch_images, &mut batch_buf); // warm-up
        let t4 = Instant::now();
        for _ in 0..sweeps {
            batched_plan.scores_batch_into(&mut bws, black_box(&batch_images), &mut batch_buf);
            black_box(&batch_buf);
        }
        let batched_forward_ns = t4.elapsed().as_nanos() as f64 / (sweeps * batch_k) as f64;

        // Throughput over a batch of distinct images, sequential vs. the
        // scoped-thread parallel map used by synthesis and evaluation.
        let images: Vec<Tensor> = (0..batch)
            .map(|b| {
                Tensor::from_fn([input.channels, input.height, input.width], |i| {
                    ((i + b * 31) % 97) as f32 / 97.0
                })
            })
            .collect();
        let run_batch = |threads: usize| -> f64 {
            let t = Instant::now();
            let top: Vec<usize> = parallel_map_with(
                threads,
                &images,
                || (plan.workspace(), Vec::with_capacity(plan.num_classes())),
                |(ws, buf), _, image| {
                    plan.scores_into(ws, image, buf);
                    buf.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap_or(0)
                },
            );
            black_box(top);
            images.len() as f64 / t.elapsed().as_secs_f64()
        };
        run_batch(threads); // warm-up (thread spawn, page faults)
        let sequential_qps = run_batch(1);
        let parallel_qps = run_batch(threads);

        let row = Row {
            arch: arch.id(),
            input: format!("{}x{}x{}", input.channels, input.height, input.width),
            tape_ns,
            engine_ns,
            incremental_ns,
            batched_delta_ns,
            batched_forward_ns,
            sequential_qps,
            parallel_qps,
            fwd_routes: route_summary(plan.tuner_report().iter().map(|d| d.route().to_owned())),
            delta_routes: route_summary(delta.tuner_report().iter().map(|d| d.route())),
        };
        eprintln!(
            "[{arch} {}] tape {:.0} ns/q, engine {:.0} ns/q ({:.2}x), incr {:.0} ns/q ({:.2}x), batched-delta {:.0} ns/q ({:.2}x), batched-fwd {:.0} ns/q ({:.2}x), {:.0} q/s seq, {:.0} q/s x{threads}",
            row.input,
            row.tape_ns,
            row.engine_ns,
            row.speedup(),
            row.incremental_ns,
            row.incremental_speedup(),
            row.batched_delta_ns,
            row.batched_speedup(),
            row.batched_forward_ns,
            row.batched_forward_speedup(),
            row.sequential_qps,
            row.parallel_qps,
        );
        rows.push(row);
    }

    // Hand-rolled JSON: flat schema, stable key order, no serde needed.
    //
    // Cost of one disarmed op-timer hook: this binary never arms the
    // telemetry recorder, so each hook is one relaxed atomic load and no
    // clock read. Every forward op pays it, so `bench_gate.sh` holds it
    // under 5 ns — measured in-process because wall-clock A/B diffs
    // between separately compiled binaries drown in code-layout noise.
    let hook_ns = {
        let hook_iters = 200_000u32;
        let th = Instant::now();
        for _ in 0..hook_iters {
            let t = oppsla_core::telemetry::op_timer(oppsla_core::telemetry::OpKind::Conv);
            black_box(&t);
        }
        th.elapsed().as_nanos() as f64 / f64::from(hook_iters)
    };
    // Cost of one disarmed trace hook (route tag + query record): the
    // trace recorder's hot-path sites each start with one relaxed atomic
    // load, so with the feature compiled in but no `--trace` given the
    // per-query cost must stay in single-digit nanoseconds — and with the
    // feature off the hooks are `const false` branches, reported as an
    // exact 0.0 so the CI gate can assert zero-cost-when-off.
    let trace_enabled = oppsla_core::telemetry::trace::enabled();
    let trace_hook_ns = if !trace_enabled {
        0.0
    } else {
        use oppsla_core::telemetry::trace;
        let hook_iters = 200_000u32;
        let th = Instant::now();
        for i in 0..hook_iters {
            trace::tag_route(trace::RouteTag::Delta);
            trace::record_query(trace::QueryInfo {
                phase: "bench",
                seq: u64::from(i),
                pixel: None,
                margin: 0.0,
                pred: 0,
                flip: false,
            });
        }
        th.elapsed().as_nanos() as f64 / f64::from(hook_iters)
    };
    eprintln!(
        "disarmed op-timer hook ~{hook_ns:.1} ns; \
         trace enabled: {trace_enabled}, disarmed query hook ~{trace_hook_ns:.1} ns"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"forward_pass\",\n");
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"batch\": {batch},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"simd_isa\": \"{simd_isa}\",\n"));
    json.push_str(&format!("  \"gemm_threads\": {gemm_threads},\n"));
    json.push_str(&format!("  \"tune\": \"{tune}\",\n"));
    json.push_str(&format!("  \"telemetry_hook_ns_per_op\": {hook_ns:.1},\n"));
    json.push_str(&format!("  \"trace_enabled\": {trace_enabled},\n"));
    json.push_str(&format!(
        "  \"trace_hook_ns_per_op\": {trace_hook_ns:.1},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"arch\": \"{}\", \"input\": \"{}\", ",
                "\"tape_ns_per_query\": {:.1}, \"engine_ns_per_query\": {:.1}, ",
                "\"engine_speedup\": {:.3}, \"sequential_queries_per_sec\": {:.1}, ",
                "\"parallel_queries_per_sec\": {:.1}, \"tuned_route\": \"{}\"}}{}\n"
            ),
            row.arch,
            row.input,
            row.tape_ns,
            row.engine_ns,
            row.speedup(),
            row.sequential_qps,
            row.parallel_qps,
            row.fwd_routes,
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

    // Companion report: the incremental pixel-delta engine against the
    // full compiled forward, same flat hand-rolled schema.
    let mut inc = String::from("{\n");
    inc.push_str("  \"benchmark\": \"incremental_pixel_delta\",\n");
    inc.push_str(&format!("  \"iters\": {iters},\n"));
    inc.push_str(&format!("  \"simd_isa\": \"{simd_isa}\",\n"));
    inc.push_str(&format!("  \"gemm_threads\": {gemm_threads},\n"));
    inc.push_str(&format!("  \"tune\": \"{tune}\",\n"));
    inc.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        inc.push_str(&format!(
            concat!(
                "    {{\"arch\": \"{}\", \"input\": \"{}\", ",
                "\"full_ns_per_query\": {:.1}, \"incremental_ns_per_query\": {:.1}, ",
                "\"incremental_speedup\": {:.3}, \"tuned_route\": \"{}\"}}{}\n"
            ),
            row.arch,
            row.input,
            row.engine_ns,
            row.incremental_ns,
            row.incremental_speedup(),
            row.fwd_routes,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    inc.push_str("  ]\n}\n");

    match std::fs::write(&inc_out_path, &inc) {
        Ok(()) => println!("report written to {inc_out_path}"),
        Err(e) => {
            eprintln!("warning: could not write {inc_out_path}: {e}");
            println!("{inc}");
        }
    }

    // Companion report: batched candidate inference (layer-major sweeps
    // over shared base activations, plus batched whole-image forwards)
    // against the sequential paths, same flat hand-rolled schema.
    let mut bat = String::from("{\n");
    bat.push_str("  \"benchmark\": \"batched_inference\",\n");
    bat.push_str(&format!("  \"iters\": {iters},\n"));
    bat.push_str(&format!("  \"batch_k\": {batch_k},\n"));
    bat.push_str(&format!("  \"simd_isa\": \"{simd_isa}\",\n"));
    bat.push_str(&format!("  \"gemm_threads\": {gemm_threads},\n"));
    bat.push_str(&format!("  \"tune\": \"{tune}\",\n"));
    bat.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        bat.push_str(&format!(
            concat!(
                "    {{\"arch\": \"{}\", \"input\": \"{}\", ",
                "\"sequential_delta_ns_per_candidate\": {:.1}, ",
                "\"batched_delta_ns_per_candidate\": {:.1}, ",
                "\"batched_candidates_per_sec\": {:.1}, ",
                "\"batched_speedup\": {:.3}, ",
                "\"sequential_forward_ns_per_image\": {:.1}, ",
                "\"batched_forward_ns_per_image\": {:.1}, ",
                "\"batched_forward_speedup\": {:.3}, \"tuned_route\": \"{}\"}}{}\n"
            ),
            row.arch,
            row.input,
            row.incremental_ns,
            row.batched_delta_ns,
            1e9 / row.batched_delta_ns,
            row.batched_speedup(),
            row.engine_ns,
            row.batched_forward_ns,
            row.batched_forward_speedup(),
            row.delta_routes,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    bat.push_str("  ]\n}\n");

    match std::fs::write(&batched_out_path, &bat) {
        Ok(()) => println!("report written to {batched_out_path}"),
        Err(e) => {
            eprintln!("warning: could not write {batched_out_path}: {e}");
            println!("{bat}");
        }
    }
}
