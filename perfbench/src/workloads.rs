//! The four workloads. Each repeats one kind of call; a call returns a
//! digest of every simulated output it produced and fails on any oracle
//! violation. `traced_call` performs the same call split into the public
//! layer calls underneath it, each inside a span, and must return the same
//! digest.

use crate::trace::Tracer;
use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::error::CiflowError;
use ciflow::functional::output_centric_key_switch;
use ciflow::hks_shape::HksShape;
use ciflow::lint::{lint_with, LintReport};
use ciflow::schedule::ScheduleConfig;
use ciflow::serve::{
    try_fault_serve_in, try_serve_in, ArrivalProcess, FaultPlan, RequestClass, ResilienceReport,
    ServeConfig, ServeReport,
};
use ciflow::sweep::{try_serve_sweep_in, try_workload_sweep_in, ServeSweep, BANDWIDTH_LADDER};
use ciflow::workload::{build_workload, PipelineMode, Workload};
use ckks::context::CkksContext;
use ckks::keys::{EvaluationKey, KeyGenerator};
use ckks::keyswitch::{hybrid_key_switch, moddown, modup_digit};
use ckks::params::CkksParametersBuilder;
use hemath::poly::{Representation, RnsPolynomial};
use hemath::sampler::sample_uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpu::bound::BoundAnalysis;
use rpu::{EvkPolicy, ExecutionStats, ExecutionTrace, RpuConfig, RpuEngine, TraceMode};
use std::sync::Arc;

pub const NAMES: [&str; 4] = ["design-space", "dense-ladder", "serve-fleet", "keyswitch"];

/// A 64-bit FNV-style digest over words: a regression fingerprint of
/// simulated outputs, not a cryptographic hash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    fn stats(&mut self, s: &ExecutionStats) {
        self.f64(s.runtime_seconds);
        self.f64(s.compute_busy_seconds);
        self.f64(s.memory_busy_seconds);
        for &c in &s.memory_channel_busy_seconds {
            self.f64(c);
        }
        self.u64(s.total_ops);
        self.u64(s.bytes_loaded);
        self.u64(s.bytes_stored);
        self.u64(s.compute_tasks as u64);
        self.u64(s.memory_tasks as u64);
    }

    fn poly(&mut self, p: &RnsPolynomial) {
        for (_, tower) in p.iter() {
            for &x in tower {
                self.u64(x);
            }
        }
    }

    fn serve(&mut self, r: &ServeReport) {
        self.u64(r.completed as u64);
        self.f64(r.makespan_seconds);
        self.f64(r.throughput_rps);
        let l = &r.latency;
        for v in [l.mean_ms, l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms] {
            self.f64(v);
        }
        self.u64(r.queue.max_depth as u64);
        self.f64(r.queue.mean_depth);
        for d in &r.devices {
            self.u64(d.served as u64);
            self.f64(d.busy_seconds);
        }
        for c in &r.classes {
            self.u64(c.served as u64);
            self.f64(c.service_ms);
        }
        for rec in &r.records {
            self.u64(rec.id as u64);
            self.u64(rec.class as u64);
            self.u64(rec.device as u64);
            self.f64(rec.arrival_seconds);
            self.f64(rec.wait_seconds);
            self.f64(rec.service_seconds);
        }
    }
}

pub type CallResult = Result<Digest, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub trait Bench {
    /// What one work unit is, for the metadata line.
    fn unit(&self) -> &'static str;
    /// Work units one call completes.
    fn units_per_call(&self) -> u64;
    fn call(&self) -> CallResult;
    fn traced_call(&self, t: &mut Tracer) -> CallResult;
}

/// Builds a workload's inputs from `seed`. Set-up ends with one untimed
/// warm-up call, whose digest the caller checks like any other.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "design-space" => Box::new(DesignSpace::new(seed)),
        "dense-ladder" => Box::new(DenseLadder::new(seed)?),
        "serve-fleet" => Box::new(ServeFleet::new(seed)?),
        "keyswitch" => Box::new(Keyswitch::new(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runtime must not rise as bandwidth rises along an ascending ladder.
fn check_monotone(what: &str, ladder: &[f64], runtimes: &[f64]) -> Result<(), String> {
    for i in 1..runtimes.len() {
        if runtimes[i] > runtimes[i - 1] {
            return Err(format!(
                "{what}: runtime rises from {} ms at {} GB/s to {} ms at {} GB/s",
                runtimes[i - 1],
                ladder[i - 1],
                runtimes[i],
                ladder[i]
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- design-space

/// The paper grid, cold: 5 Table III benchmarks x MP/DC/OC x {on-chip,
/// streamed evks}, each point linted, bounded, traced once and run over the
/// Fig-4 ladder, through a fresh `Session` per call. The seed sets the grid
/// order.
pub struct DesignSpace {
    grid: Vec<(HksBenchmark, Dataflow, EvkPolicy)>,
}

impl DesignSpace {
    fn new(seed: u64) -> Self {
        let mut grid: Vec<_> = HksBenchmark::all()
            .into_iter()
            .flat_map(|b| {
                Dataflow::all().into_iter().flat_map(move |d| {
                    [EvkPolicy::OnChip, EvkPolicy::Streamed].map(move |p| (b, d, p))
                })
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..grid.len()).rev() {
            grid.swap(i, rng.gen_range(0..=i));
        }
        Self { grid }
    }

    /// Oracles and digest of one design point, shared by both call paths.
    fn point(
        dg: &mut Digest,
        (b, d, p): (HksBenchmark, Dataflow, EvkPolicy),
        lint: &LintReport,
        bound: &BoundAnalysis,
        traced: &ExecutionStats,
        trace: &ExecutionTrace,
        ladder: &[ExecutionStats],
    ) -> Result<(), String> {
        let what = format!("{} {} {p:?}", b.name, d.short_name());
        if lint.has_errors() {
            return Err(format!("{what}: lint errors {:?}", lint.codes()));
        }
        if bound.makespan_bound_seconds > traced.runtime_seconds {
            return Err(format!(
                "{what}: bound {} s exceeds runtime {} s",
                bound.makespan_bound_seconds, traced.runtime_seconds
            ));
        }
        let runtimes: Vec<f64> = ladder.iter().map(ExecutionStats::runtime_ms).collect();
        check_monotone(&what, &BANDWIDTH_LADDER, &runtimes)?;
        for diag in &lint.diagnostics {
            dg.str(diag.code);
            dg.str(&diag.message);
        }
        dg.f64(bound.makespan_bound_seconds);
        dg.stats(traced);
        for r in trace.records() {
            dg.f64(r.start_seconds);
            dg.f64(r.end_seconds);
        }
        for s in ladder {
            dg.stats(s);
        }
        Ok(())
    }
}

impl Bench for DesignSpace {
    fn unit(&self) -> &'static str {
        "design points"
    }

    fn units_per_call(&self) -> u64 {
        self.grid.len() as u64
    }

    fn call(&self) -> CallResult {
        let session = Session::new();
        let traced = session.clone().with_trace(TraceMode::Full);
        let mut dg = Digest::new();
        for &point in &self.grid {
            let (b, d, p) = point;
            let rpu = RpuConfig::ciflow_with_policy(p);
            let job = Job::new(b, d).with_rpu(rpu.clone());
            let lint = session.verify_job(&job).map_err(err)?;
            let bound = session.bounds_job(&job).map_err(err)?;
            let run = traced.run_job(&job).map_err(err)?;
            let trace = run.trace.as_ref().ok_or("a Full run returned no trace")?;
            let ladder = BANDWIDTH_LADDER
                .iter()
                .map(|&bw| {
                    session
                        .run_job(&Job::new(b, d).with_rpu(rpu.clone().with_bandwidth(bw)))
                        .map(|out| out.stats)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            Self::point(&mut dg, point, &lint, &bound, &run.stats, trace, &ladder)?;
        }
        Ok(dg)
    }

    /// The calls `Session` makes on a cache miss, made directly: build,
    /// channel map, lint, bound, traced run and the stats-only ladder.
    fn traced_call(&self, t: &mut Tracer) -> CallResult {
        let mut dg = Digest::new();
        for &point in &self.grid {
            let (b, d, p) = point;
            let rpu = RpuConfig::ciflow_with_policy(p);
            let config = ScheduleConfig {
                data_memory_bytes: rpu.vector_memory_bytes,
                evk_policy: rpu.evk_policy,
            };
            let schedule = t
                .span("schedule.build", |_| {
                    d.strategy().build(&HksShape::new(b), &config)
                })
                .map_err(err)?;
            let map = t.span("schedule.channel_map", |_| {
                schedule.channel_map(rpu.memory_channel_count())
            });
            let lint = t.span("lint.verify", |_| lint_with(&schedule, &[b], &rpu, &map));
            let engine = RpuEngine::new(rpu.clone()).with_channel_map(map.clone());
            let bound = t.span("bound.analyze", |_| engine.bounds(&schedule.graph));
            let run = t
                .span("engine.traced", |_| engine.execute(&schedule.graph))
                .map_err(err)?;
            let ladder = BANDWIDTH_LADDER
                .iter()
                .map(|&bw| {
                    let engine = RpuEngine::new(rpu.clone().with_bandwidth(bw))
                        .with_channel_map(map.clone());
                    t.span("engine.stats", |_| engine.execute_stats(&schedule.graph))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            Self::point(
                &mut dg, point, &lint, &bound, &run.stats, &run.trace, &ladder,
            )?;
        }
        Ok(dg)
    }
}

// ---------------------------------------------------------------- dense-ladder

pub const DENSE_POINTS: usize = 32;

/// A seeded log-uniform ladder of `points` bandwidths in [1, 1024] GB/s,
/// ascending.
pub fn log_uniform_ladder(seed: u64, points: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1add_e400);
    let mut ladder: Vec<f64> = (0..points)
        .map(|_| 2f64.powf(rng.gen_range(0.0..10.0)))
        .collect();
    ladder.sort_by(f64::total_cmp);
    ladder
}

/// Dense engine-path bandwidth sweeps of two pipelines under OC and MP,
/// fused and back-to-back, on a warm `Session`.
pub struct DenseLadder {
    session: Session,
    ladder: Vec<f64>,
    sweeps: Vec<(Workload, Dataflow, PipelineMode)>,
}

impl DenseLadder {
    fn new(seed: u64) -> Result<Self, String> {
        let session = Session::new();
        let pipelines = [
            Workload::rotation_batch(HksBenchmark::ARK, 8),
            Workload::rescaling_chain(HksBenchmark::ARK, 4),
        ];
        let mut sweeps = Vec::new();
        for w in &pipelines {
            for d in [Dataflow::OutputCentric, Dataflow::MaxParallel] {
                for m in [PipelineMode::Fused, PipelineMode::BackToBack] {
                    session
                        .run_job(
                            &Job::workload(w.clone(), d, m).with_rpu(RpuConfig::ciflow_streaming()),
                        )
                        .map_err(err)?;
                    sweeps.push((w.clone(), d, m));
                }
            }
        }
        Ok(Self {
            session,
            ladder: log_uniform_ladder(seed, DENSE_POINTS),
            sweeps,
        })
    }
}

impl Bench for DenseLadder {
    fn unit(&self) -> &'static str {
        "sweep points"
    }

    fn units_per_call(&self) -> u64 {
        (self.sweeps.len() * self.ladder.len()) as u64
    }

    fn call(&self) -> CallResult {
        let mut dg = Digest::new();
        for (w, d, m) in &self.sweeps {
            let series = try_workload_sweep_in(
                &self.session,
                w,
                *d,
                &self.ladder,
                EvkPolicy::Streamed,
                1.0,
                *m,
            )
            .map_err(err)?;
            let runtimes: Vec<f64> = series.points.iter().map(|p| p.runtime_ms).collect();
            check_monotone(
                &format!("{} {} {m}", w.name, d.short_name()),
                &self.ladder,
                &runtimes,
            )?;
            runtimes.iter().for_each(|&r| dg.f64(r));
        }
        Ok(dg)
    }

    /// What the sweep does per (pipeline, mode): stitch the pipeline once,
    /// then one stats-only engine run per ladder point (sequentially here).
    fn traced_call(&self, t: &mut Tracer) -> CallResult {
        let mut dg = Digest::new();
        let base = RpuConfig::ciflow_streaming();
        let config = ScheduleConfig {
            data_memory_bytes: base.vector_memory_bytes,
            evk_policy: base.evk_policy,
        };
        for (w, d, m) in &self.sweeps {
            let pipeline = t
                .span("workload.build", |_| {
                    build_workload(w, d.strategy(), &config, *m)
                })
                .map_err(err)?;
            let graph = &pipeline.schedule.graph;
            let map = t.span("schedule.channel_map", |_| {
                pipeline.schedule.channel_map(base.memory_channel_count())
            });
            let mut runtimes = Vec::with_capacity(self.ladder.len());
            for &bw in &self.ladder {
                let engine = RpuEngine::new(base.clone().with_bandwidth(bw).with_modops(1.0))
                    .with_channel_map(map.clone());
                let stats = t
                    .span("engine.stats", |_| engine.execute_stats(graph))
                    .map_err(err)?;
                runtimes.push(stats.runtime_ms());
            }
            check_monotone(
                &format!("{} {} {m}", w.name, d.short_name()),
                &self.ladder,
                &runtimes,
            )?;
            runtimes.iter().for_each(|&r| dg.f64(r));
        }
        Ok(dg)
    }
}

// ---------------------------------------------------------------- serve-fleet

pub const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];
pub const SWEEP_REQUESTS: usize = 256;
pub const OPEN_DEVICES: usize = 16;
pub const OPEN_REQUESTS: usize = 20_000;

/// The capacity study's three configurations: the closed-loop sweep base,
/// the open-loop trace at 0.9x the measured 16-RPU capacity, and the
/// standard fault plan scaled to the mix's mean service time.
pub fn serve_configs(
    session: &Session,
    seed: u64,
) -> Result<(ServeConfig, ServeConfig, FaultPlan), String> {
    let mix = RequestClass::standard_mix(HksBenchmark::ARK);
    let rpu = RpuConfig::ciflow_baseline().with_bandwidth(64.0);
    let sweep_base = ServeConfig::new(
        1,
        mix.clone(),
        ArrivalProcess::ClosedLoop {
            concurrency: 8,
            requests: SWEEP_REQUESTS,
        },
    )
    .with_rpu(rpu.clone())
    .with_seed(seed);
    let capacity = try_serve_in(
        session,
        &ServeConfig::new(
            OPEN_DEVICES,
            mix.clone(),
            ArrivalProcess::ClosedLoop {
                concurrency: 2 * OPEN_DEVICES,
                requests: 2048,
            },
        )
        .with_rpu(rpu.clone())
        .with_seed(seed),
        Dataflow::OutputCentric,
    )
    .map_err(err)?;
    let served: usize = capacity.classes.iter().map(|c| c.served).sum();
    let tick = capacity
        .classes
        .iter()
        .map(|c| c.served as f64 * c.service_ms)
        .sum::<f64>()
        / served.max(1) as f64
        / 1e3;
    let open = ServeConfig::new(
        OPEN_DEVICES,
        mix,
        ArrivalProcess::OpenLoop {
            rate_rps: 0.9 * capacity.throughput_rps,
            requests: OPEN_REQUESTS,
        },
    )
    .with_rpu(rpu)
    .with_seed(seed);
    Ok((
        sweep_base,
        open,
        ciflow_bench::serving::standard_fault_plan(tick),
    ))
}

/// One capacity study per call on a warm `Session` running the standard ARK
/// mix under OC.
pub struct ServeFleet {
    session: Session,
    sweep_base: ServeConfig,
    open: ServeConfig,
    plan: FaultPlan,
}

impl ServeFleet {
    fn new(seed: u64) -> Result<Self, String> {
        let session = Session::new();
        let (sweep_base, open, plan) = serve_configs(&session, seed)?;
        Ok(Self {
            session,
            sweep_base,
            open,
            plan,
        })
    }

    fn check(
        &self,
        sweep: &ServeSweep,
        open: &ServeReport,
        fault: &ResilienceReport,
    ) -> CallResult {
        if sweep.points.len() != FLEET_SIZES.len() * BANDWIDTH_LADDER.len() {
            return Err(format!(
                "serve sweep returned {} points",
                sweep.points.len()
            ));
        }
        if open.completed != OPEN_REQUESTS {
            return Err(format!(
                "open loop completed {} of {OPEN_REQUESTS} requests",
                open.completed
            ));
        }
        if !fault.conserves_arrivals() || fault.offered != OPEN_REQUESTS {
            return Err(format!(
                "fault run does not conserve arrivals: offered {} != {} completed + {} timed out \
                 + {} shed",
                fault.offered, fault.serve.completed, fault.timed_out, fault.shed
            ));
        }
        let mut dg = Digest::new();
        for p in &sweep.points {
            dg.u64(p.num_devices as u64);
            for v in [
                p.bandwidth_gbps,
                p.throughput_rps,
                p.mean_utilization,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
            ] {
                dg.f64(v);
            }
            dg.u64(p.max_queue_depth as u64);
        }
        dg.serve(open);
        for v in [
            fault.offered,
            fault.timed_out,
            fault.shed,
            fault.degraded,
            fault.late,
            fault.retries,
            fault.transient_failures,
            fault.crash_losses,
        ] {
            dg.u64(v as u64);
        }
        dg.f64(fault.wasted_seconds);
        dg.f64(fault.goodput_rps);
        for a in &fault.availability {
            dg.u64(a.crashes as u64);
            dg.f64(a.down_seconds);
        }
        dg.serve(&fault.serve);
        Ok(dg)
    }

    fn sweep(&self) -> Result<ServeSweep, CiflowError> {
        try_serve_sweep_in(
            &self.session,
            &self.sweep_base,
            Dataflow::OutputCentric,
            &FLEET_SIZES,
            &BANDWIDTH_LADDER,
        )
    }

    fn open_loop(&self) -> Result<ServeReport, CiflowError> {
        try_serve_in(&self.session, &self.open, Dataflow::OutputCentric)
    }

    fn fault_loop(&self) -> Result<ResilienceReport, CiflowError> {
        try_fault_serve_in(
            &self.session,
            &self.open,
            &self.plan,
            Dataflow::OutputCentric,
        )
    }
}

impl Bench for ServeFleet {
    fn unit(&self) -> &'static str {
        "simulated requests"
    }

    fn units_per_call(&self) -> u64 {
        (FLEET_SIZES.len() * BANDWIDTH_LADDER.len() * SWEEP_REQUESTS + 2 * OPEN_REQUESTS) as u64
    }

    fn call(&self) -> CallResult {
        let sweep = self.sweep().map_err(err)?;
        let open = self.open_loop().map_err(err)?;
        let fault = self.fault_loop().map_err(err)?;
        self.check(&sweep, &open, &fault)
    }

    /// The three public serve calls are the finest split the serve API
    /// offers; their set-up and loop costs are separated by the probes.
    fn traced_call(&self, t: &mut Tracer) -> CallResult {
        let sweep = t.span("serve.sweep", |_| self.sweep()).map_err(err)?;
        let open = t
            .span("serve.open_loop", |_| self.open_loop())
            .map_err(err)?;
        let fault = t
            .span("fault.open_loop", |_| self.fault_loop())
            .map_err(err)?;
        self.check(&sweep, &open, &fault)
    }
}

// ---------------------------------------------------------------- keyswitch

/// Ring degree 2^12, 8 Q towers, 2 P towers, dnum 4.
pub fn keyswitch_context() -> Result<Arc<CkksContext>, String> {
    let params = CkksParametersBuilder::new()
        .ring_degree(1 << 12)
        .q_tower_bits(vec![50, 40, 40, 40, 40, 40, 40, 40])
        .p_tower_bits(vec![50, 50])
        .dnum(4)
        .scale_bits(40)
        .build()
        .map_err(|e| format!("{e:?}"))?;
    CkksContext::new(params).map_err(|e| format!("{e:?}"))
}

/// Hybrid key switching made from its public stages, each in a span:
/// per digit ModUp then key multiply-accumulate, then ModDown of both
/// accumulators. Computes exactly `hybrid_key_switch`.
pub fn split_key_switch(
    t: &mut Tracer,
    ctx: &CkksContext,
    d: &RnsPolynomial,
    level: usize,
    evk: &EvaluationKey,
) -> (RnsPolynomial, RnsPolynomial) {
    let basis = ctx.basis_qp_at_level(level);
    let mut acc0 = RnsPolynomial::zero(basis.clone(), Representation::Evaluation);
    let mut acc1 = RnsPolynomial::zero(basis, Representation::Evaluation);
    for j in 0..ctx.params().live_digits(level) {
        let extended = t.span("ckks.modup", |_| modup_digit(ctx, d, level, j));
        t.span("ckks.key_mul", |_| {
            let (b, a) = evk.digit_at_level(ctx, j, level);
            acc0.mul_acc(&extended, &b).expect("same basis");
            acc1.mul_acc(&extended, &a).expect("same basis");
        });
    }
    let k0 = t.span("ckks.moddown", |_| moddown(ctx, &acc0, level));
    let k1 = t.span("ckks.moddown", |_| moddown(ctx, &acc1, level));
    (k0, k1)
}

/// The reference key switch and the Output-Centric one on the same seeded
/// input; they must agree bit for bit.
pub struct Keyswitch {
    ctx: Arc<CkksContext>,
    evk: EvaluationKey,
    d: RnsPolynomial,
    level: usize,
}

impl Keyswitch {
    fn new(seed: u64) -> Result<Self, String> {
        let ctx = keyswitch_context()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let evk = keygen.relinearization_key(&mut rng, &sk);
        let d = sample_uniform(&mut rng, ctx.basis_q().clone(), Representation::Evaluation);
        let level = ctx.params().max_level();
        Ok(Self { ctx, evk, d, level })
    }

    fn finish(
        reference: &(RnsPolynomial, RnsPolynomial),
        oc: &(RnsPolynomial, RnsPolynomial),
    ) -> CallResult {
        if reference != oc {
            return Err("output-centric key switch differs from the reference".to_string());
        }
        let mut dg = Digest::new();
        dg.poly(&reference.0);
        dg.poly(&reference.1);
        Ok(dg)
    }
}

impl Bench for Keyswitch {
    fn unit(&self) -> &'static str {
        "key switches"
    }

    fn units_per_call(&self) -> u64 {
        2
    }

    fn call(&self) -> CallResult {
        let reference = hybrid_key_switch(&self.ctx, &self.d, self.level, &self.evk);
        let oc = output_centric_key_switch(&self.ctx, &self.d, self.level, &self.evk);
        Self::finish(&reference, &oc)
    }

    fn traced_call(&self, t: &mut Tracer) -> CallResult {
        let reference = split_key_switch(t, &self.ctx, &self.d, self.level, &self.evk);
        let oc = t.span("functional.oc_key_switch", |_| {
            output_centric_key_switch(&self.ctx, &self.d, self.level, &self.evk)
        });
        Self::finish(&reference, &oc)
    }
}
