//! The per-layer probes: every layer's public calls timed from outside on
//! fixed reference inputs, after the traced calls of every workload, so each
//! traced run reports every per-layer metric and the values are comparable
//! across workloads.

use crate::trace::Tracer;
use crate::workloads::{
    keyswitch_context, log_uniform_ladder, serve_configs, split_key_switch, DENSE_POINTS,
};
use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::functional::output_centric_key_switch;
use ciflow::hks_shape::HksShape;
use ciflow::lint::lint_with;
use ciflow::schedule::ScheduleConfig;
use ciflow::serve::{try_fault_serve_in, try_serve_in, ArrivalProcess};
use ciflow::sweep::try_workload_sweep_in;
use ciflow::workload::{build_workload, PipelineMode, Workload};
use ckks::keys::KeyGenerator;
use hemath::poly::Representation;
use hemath::sampler::sample_uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpu::{EvkPolicy, RpuConfig, RpuEngine};
use std::hint::black_box;

/// Inputs of the probes do not depend on the run's seed.
const PROBE_SEED: u64 = 0x9e37_79b9;

/// One per-layer metric: name, unit and value.
pub type Metric = (&'static str, &'static str, f64);

/// The per-layer metrics in the order `BENCHMARK.json` lists them.
pub const METRICS: [(&str, &str); 27] = [
    ("hemath.ntt_us", "us"),
    ("hemath.basis_convert_ms", "ms"),
    ("ckks.modup_ms", "ms"),
    ("ckks.key_mul_ms", "ms"),
    ("ckks.moddown_ms", "ms"),
    ("ckks.keygen_s", "s"),
    ("functional.oc_key_switch_ms", "ms"),
    ("schedule.build_ms", "ms"),
    ("schedule.tasks", "count"),
    ("workload.build_ms", "ms"),
    ("lint.verify_ms", "ms"),
    ("bound.analyze_ms", "ms"),
    ("engine.stats_us", "us"),
    ("engine.traced_us", "us"),
    ("engine.tasks_per_s", "1/s"),
    ("engine.tasks", "count"),
    ("session.hit_overhead_us", "us"),
    ("session.cold_plan_ms", "ms"),
    ("sweep.point_overhead_us", "us"),
    ("analytic.timeline_ms", "ms"),
    ("analytic.eval_us", "us"),
    ("analytic.segments", "count"),
    ("serve.setup_ms", "ms"),
    ("serve.loop_ns_per_request", "ns"),
    ("serve.requests", "count"),
    ("fault.loop_ns_per_request", "ns"),
    ("fault.retries", "count"),
];

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs every probe inside one root span named `probes` and derives the
/// per-layer metrics from their spans. Also checks the analytic timeline
/// against the engine bit for bit on the probe ladder.
pub fn run(t: &mut Tracer, threads: usize) -> Result<Vec<Metric>, String> {
    let mark = t.mark();
    let counts = t.span("probes", probe_all)?;
    let med = |name: &str| median(&t.durations_ns(mark, name));
    let ms = |name: &str| med(name) / 1e6;
    let us = |name: &str| med(name) / 1e3;

    let stats_ns = med("engine.stats");
    let pipeline_stats_ns: f64 = t
        .durations_ns(mark, "engine.stats_pipeline")
        .iter()
        .sum::<f64>()
        / counts.sweep_repeats as f64;
    let sweep_overhead_us =
        (med("sweep.call") - med("workload.build") - pipeline_stats_ns / threads as f64)
            / DENSE_POINTS as f64
            / 1e3;
    let serve_loop_ns = (med("serve.open_loop") - med("serve.setup")) / counts.serve_requests;
    let fault_loop_ns = (med("fault.open_loop") - med("fault.setup")) / counts.fault_offered;

    let values = [
        us("hemath.ntt"),
        ms("hemath.basis_convert"),
        ms("ckks.modup"),
        ms("ckks.key_mul"),
        ms("ckks.moddown"),
        med("ckks.keygen") / 1e9,
        ms("functional.oc_key_switch"),
        ms("schedule.build"),
        counts.schedule_tasks,
        ms("workload.build"),
        ms("lint.verify"),
        ms("bound.analyze"),
        stats_ns / 1e3,
        us("engine.traced"),
        counts.schedule_tasks / (stats_ns / 1e9),
        counts.schedule_tasks,
        (med("session.run_job_warm") - stats_ns) / 1e3,
        (med("session.run_job_cold") - stats_ns) / 1e6,
        sweep_overhead_us,
        ms("analytic.timeline"),
        us("analytic.eval"),
        counts.segments,
        ms("serve.setup"),
        serve_loop_ns,
        counts.serve_requests,
        fault_loop_ns,
        counts.fault_retries,
    ];
    Ok(METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect())
}

struct Counts {
    schedule_tasks: f64,
    segments: f64,
    sweep_repeats: usize,
    serve_requests: f64,
    fault_offered: f64,
    fault_retries: f64,
}

fn probe_all(t: &mut Tracer) -> Result<Counts, String> {
    // hemath and ckks on the keyswitch workload's parameter set.
    let ctx = keyswitch_context()?;
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let mut evk = None;
    for _ in 0..3 {
        evk = Some(t.span("ckks.keygen", |_| keygen.relinearization_key(&mut rng, &sk)));
    }
    let evk = evk.expect("keygen ran");
    let d = sample_uniform(&mut rng, ctx.basis_q().clone(), Representation::Evaluation);
    let level = ctx.params().max_level();
    let table = ctx.basis_q().ntt_table(0);
    for _ in 0..200 {
        let mut tower = d.tower(0).to_vec();
        t.span("hemath.ntt", |_| {
            table.forward(&mut tower);
            table.inverse(&mut tower);
        });
        black_box(&tower);
    }
    let converter = ctx.modup_converter(0, level);
    let digit: Vec<Vec<u64>> = ctx
        .params()
        .digit_towers(0, level)
        .map(|i| {
            let mut tower = d.tower(i).to_vec();
            ctx.basis_q().ntt_table(i).inverse(&mut tower);
            tower
        })
        .collect();
    for _ in 0..20 {
        black_box(t.span("hemath.basis_convert", |_| converter.convert_towers(&digit)));
    }
    for _ in 0..3 {
        let split = split_key_switch(t, &ctx, &d, level, &evk);
        let oc = t.span("functional.oc_key_switch", |_| {
            output_centric_key_switch(&ctx, &d, level, &evk)
        });
        if split != oc {
            return Err("probe: output-centric key switch differs from the split".to_string());
        }
    }

    // Schedule, lint, bound and engine on the perf-report reference point:
    // ARK under OC with streamed evks at 12.8 GB/s.
    let rpu = RpuConfig::ciflow_streaming().with_bandwidth(12.8);
    let config = ScheduleConfig {
        data_memory_bytes: rpu.vector_memory_bytes,
        evk_policy: rpu.evk_policy,
    };
    let oc = Dataflow::OutputCentric;
    let shape = HksShape::new(HksBenchmark::ARK);
    let mut schedule = None;
    for _ in 0..10 {
        schedule = Some(
            t.span("schedule.build", |_| oc.strategy().build(&shape, &config))
                .map_err(err)?,
        );
    }
    let schedule = schedule.expect("build ran");
    let map = schedule.channel_map(rpu.memory_channel_count());
    for _ in 0..5 {
        black_box(t.span("lint.verify", |_| {
            lint_with(&schedule, &[HksBenchmark::ARK], &rpu, &map)
        }));
    }
    let engine = RpuEngine::new(rpu.clone()).with_channel_map(map.clone());
    for _ in 0..10 {
        black_box(t.span("bound.analyze", |_| engine.bounds(&schedule.graph)));
    }
    for _ in 0..10 {
        t.span("engine.traced", |_| engine.execute(&schedule.graph))
            .map_err(err)?;
    }
    let job = Job::new(HksBenchmark::ARK, oc).with_rpu(rpu.clone());
    let warm = Session::new();
    warm.run_job(&job).map_err(err)?;
    // Interleave the warm-session hit and the bare engine run so both see
    // the same host conditions.
    for _ in 0..30 {
        t.span("engine.stats", |_| engine.execute_stats(&schedule.graph))
            .map_err(err)?;
        t.span("session.run_job_warm", |_| warm.run_job(&job))
            .map_err(err)?;
    }
    for _ in 0..5 {
        let cold = Session::new();
        t.span("session.run_job_cold", |_| cold.run_job(&job))
            .map_err(err)?;
    }

    // Workload stitching, the engine-path sweep and the analytic timeline on
    // dense-ladder's first pipeline (rotation batch of 8, OC, fused).
    let rot8 = Workload::rotation_batch(HksBenchmark::ARK, 8);
    let streamed = RpuConfig::ciflow_streaming();
    let pipeline_config = ScheduleConfig {
        data_memory_bytes: streamed.vector_memory_bytes,
        evk_policy: streamed.evk_policy,
    };
    let mut pipeline = None;
    for _ in 0..5 {
        pipeline = Some(
            t.span("workload.build", |_| {
                build_workload(&rot8, oc.strategy(), &pipeline_config, PipelineMode::Fused)
            })
            .map_err(err)?,
        );
    }
    let pipeline = pipeline.expect("build ran");
    let ladder = log_uniform_ladder(PROBE_SEED, DENSE_POINTS);
    let pipeline_map = pipeline
        .schedule
        .channel_map(streamed.memory_channel_count());
    let sweep_session = Session::new();
    let sweep_repeats = 3;
    let mut engine_ms = Vec::new();
    for _ in 0..sweep_repeats {
        engine_ms.clear();
        for &bw in &ladder {
            let engine = RpuEngine::new(streamed.clone().with_bandwidth(bw))
                .with_channel_map(pipeline_map.clone());
            let stats = t
                .span("engine.stats_pipeline", |_| {
                    engine.execute_stats(&pipeline.schedule.graph)
                })
                .map_err(err)?;
            engine_ms.push(stats.runtime_ms());
        }
        let series = t
            .span("sweep.call", |_| {
                try_workload_sweep_in(
                    &sweep_session,
                    &rot8,
                    oc,
                    &ladder,
                    EvkPolicy::Streamed,
                    1.0,
                    PipelineMode::Fused,
                )
            })
            .map_err(err)?;
        if series
            .points
            .iter()
            .map(|p| p.runtime_ms)
            .ne(engine_ms.iter().copied())
        {
            return Err("probe: sweep differs from the direct engine runs".to_string());
        }
    }
    let pipeline_job = Job::workload(rot8, oc, PipelineMode::Fused).with_rpu(streamed);
    let mut analytic = None;
    for _ in 0..3 {
        let session = Session::new();
        session.run_job(&pipeline_job).map_err(err)?;
        analytic = Some(
            t.span("analytic.timeline", |_| {
                session.run_analytic(&pipeline_job, 1.0, 1024.0)
            })
            .map_err(err)?,
        );
    }
    let analytic = analytic.expect("analytic ran");
    for (&bw, &engine) in ladder.iter().zip(&engine_ms) {
        let stats = t.span("analytic.eval", |_| analytic.timeline.evaluate(bw));
        if stats.runtime_ms().to_bits() != engine.to_bits() {
            return Err(format!(
                "probe: analytic runtime differs from the engine at {bw} GB/s"
            ));
        }
    }

    // Serve and fault loops: the same public call with one request and with
    // the open-loop trace; the difference is the loop.
    let serve_session = Session::new();
    let (_, open, plan) = serve_configs(&serve_session, PROBE_SEED)?;
    let mut single = open.clone();
    single.arrival = ArrivalProcess::ClosedLoop {
        concurrency: 1,
        requests: 1,
    };
    for _ in 0..5 {
        t.span("serve.setup", |_| try_serve_in(&serve_session, &single, oc))
            .map_err(err)?;
        t.span("fault.setup", |_| {
            try_fault_serve_in(&serve_session, &single, &plan, oc)
        })
        .map_err(err)?;
    }
    let mut fault = None;
    for _ in 0..3 {
        t.span("serve.open_loop", |_| {
            try_serve_in(&serve_session, &open, oc)
        })
        .map_err(err)?;
        fault = Some(
            t.span("fault.open_loop", |_| {
                try_fault_serve_in(&serve_session, &open, &plan, oc)
            })
            .map_err(err)?,
        );
    }
    let fault = fault.expect("fault run ran");

    Ok(Counts {
        schedule_tasks: schedule.graph.len() as f64,
        segments: analytic.timeline.segments().len() as f64,
        sweep_repeats,
        serve_requests: open.arrival.requests() as f64,
        fault_offered: fault.offered as f64,
        fault_retries: fault.retries as f64,
    })
}
