//! One run of one workload: the whole path, timed part by part.
//!
//! ```text
//! set-up 1  generate -> hold out late users -> split -> LayerGcn::new
//! train     train_with_early_stopping, then refresh + one test evaluation
//! set-up 2  save -> Engine::open -> serve
//! checks    served top-20 of 64 users == offline path, exactly
//! warm-up   every trained user asked once (fills the response cache)
//! A  open loop    reads alone, both connections            } five slices each;
//! C  open loop    writes on one connection, reads on the  } the timed repeats
//!                 other                                   } run between slices
//! checks    shutdown; EventLog::replay == the acknowledged events
//! ```
//!
//! The timed repeats are set-up 1, a few epochs on the model it made,
//! evaluations of the served model, and set-up 2 into a second server that
//! is stopped at once: five times a run, spread over its traffic.
//!
//! With `--trace 1` the same path runs shortened, every other request
//! carries the client-side timing split, the closed-loop probes (B, D and
//! the off-path routes) run after the last slice, and [`crate::layers`]
//! measures each layer directly.

use crate::load::{item_list, run_phase, Feed, Kind, Lane, Op, OpGen, Open, Phase, Sample, Target};
use crate::spec::{self, Spec, Users};
use crate::stats::{self, UserPicker};
use crate::trace::{self, SpanId, Tracer};
use crate::{http, layers, Report};
use lrgcn::data::{Dataset, Interaction, InteractionLog, SplitRatios};
use lrgcn::eval::topk::top_k_with_scores;
use lrgcn::eval::{evaluate_ranking_parallel, Split};
use lrgcn::models::traits::{EpochStats, ModelDiagnostics, OptimState};
use lrgcn::models::{FoldInBasis, LayerGcn, Recommender};
use lrgcn::obs::json;
use lrgcn::obs::registry::{self, Counter};
use lrgcn::tensor::{par, Matrix};
use lrgcn::train::{train_with_early_stopping, TrainConfig};
use lrgcn_serve::{serve, Engine, EngineOptions, ServerConfig, ServerHandle};
use lrgcn_stream::{EventLog, StreamEvent};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Users whose served top-K is compared with the offline path.
const PARITY_USERS: usize = 64;
/// The feed is topped up with seeded synthetic events to this many, so a
/// much faster server cannot run the closed write loop dry.
const FEED_EVENTS: usize = 30_000;
/// Share of `--seconds` the end-to-end path gets in a traced run; the
/// rest goes to the layer measurements.
const TRACED_PATH_SHARE: f64 = 0.4;
/// Threads of the program's parallel layer (training, evaluation,
/// propagation). One, not auto: with two, `evaluate_ranking_parallel` and
/// the per-operation thread spawns of training run at anything between 1x
/// and 2x from one process to the next on a two-core box, and no bound
/// holds. The auto figure is in the layer table (`tensor.par.*`).
pub const COMPUTE_THREADS: usize = 1;
/// Phase A refuses to report when its generator ran later than this.
const LATE_P99_LIMIT_MS: f64 = 20.0;
/// Poisson rate of the `/healthz` probe: accept + parse + a trivial handler.
const HEALTHZ_RPS: f64 = 50.0;

// Phase names: what the report prints and what the metrics look phases up by.
const PHASE_A: &str = "A open reads";
const PHASE_B: &str = "B closed reads";
const PHASE_C: &str = "C open writes+reads";
const PHASE_D: &str = "D closed 1w:4r";
const PROBE_HEALTHZ: &str = "healthz open";
const PROBE_WIDE: &str = "recs k=800 closed";
const PROBE_SCORE: &str = "score closed";
const PROBE_SIMILAR: &str = "similar closed";

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for this run's checkpoint and event log, inside the
    /// checkout; removed at exit.
    pub scratch: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

/// The generated inputs of a run.
pub struct World {
    /// Training universe: everyone but the late sign-ups.
    pub ds: Arc<Dataset>,
    /// The late sign-ups' interactions in arrival order, then synthetic
    /// top-up events.
    pub events: Vec<StreamEvent>,
}

/// The dataset is part of a workload's definition, not of a run: it is
/// generated from this constant, so that every seed times the same graph
/// (on the Yelp-like preset the sampler's cost alone swings by a fifth
/// from one generated graph to the next). `--seed` drives everything
/// random at run time: initialisation, sampling, who asks, and when.
const DATA_SEED: u64 = 2023;

pub fn build_world(spec: &Spec) -> World {
    let full = spec.data.generate(DATA_SEED);
    let n_items = full.n_items();
    let cut = ((full.n_users() as f64) * (1.0 - spec::LATE_USER_SHARE)).ceil() as usize;
    let (base, mut late): (Vec<Interaction>, Vec<Interaction>) = full
        .interactions()
        .iter()
        .partition(|it| (it.user as usize) < cut);
    let base_log = InteractionLog::new(cut, n_items, base);
    let ds = Arc::new(Dataset::chronological_split(
        spec.name,
        &base_log,
        SplitRatios::default(),
    ));
    late.sort_by_key(|it| it.timestamp);
    let mut rng = StdRng::seed_from_u64(DATA_SEED ^ 0x5eed_e7e7);
    let last_ts = late.last().map_or(0, |it| it.timestamp);
    while late.len() < FEED_EVENTS {
        late.push(Interaction {
            user: rng.random_range(cut as u32..full.n_users() as u32),
            item: rng.random_range(0..n_items as u32),
            timestamp: last_ts + late.len() as i64,
        });
    }
    let events = late
        .iter()
        .enumerate()
        .map(|(i, it)| StreamEvent {
            user: it.user,
            item: it.item,
            timestamp: it.timestamp,
            client: "bench".into(),
            seq: i as u64 + 1,
            request_id: String::new(),
        })
        .collect();
    World { ds, events }
}

/// The run's model as the trainer sees it: every call goes straight to
/// the [`LayerGcn`], and each `train_epoch` call is timed from outside.
struct TimedEpochs<'a> {
    model: &'a mut LayerGcn,
    epoch_seconds: Vec<f64>,
}

impl Recommender for TimedEpochs<'_> {
    fn name(&self) -> String {
        self.model.name()
    }
    fn train_epoch(&mut self, ds: &Dataset, epoch: usize, rng: &mut StdRng) -> EpochStats {
        let t0 = Instant::now();
        let stats = self.model.train_epoch(ds, epoch, rng);
        self.epoch_seconds.push(secs_since(t0));
        stats
    }
    fn refresh(&mut self, ds: &Dataset) {
        self.model.refresh(ds)
    }
    fn score_users(&self, ds: &Dataset, users: &[u32]) -> Matrix {
        self.model.score_users(ds, users)
    }
    fn n_parameters(&self) -> usize {
        self.model.n_parameters()
    }
    fn snapshot(&self) -> Option<Vec<Matrix>> {
        self.model.snapshot()
    }
    fn restore(&mut self, params: Vec<Matrix>) {
        self.model.restore(params)
    }
    fn checkpoint_entries(&self) -> Option<Vec<(String, Matrix)>> {
        self.model.checkpoint_entries()
    }
    fn load_checkpoint_entries(&mut self, entries: &[(String, Matrix)]) -> Result<(), String> {
        self.model.load_checkpoint_entries(entries)
    }
    fn optim_state(&self) -> Option<OptimState> {
        self.model.optim_state()
    }
    fn load_optim_state(&mut self, state: &OptimState) -> Result<(), String> {
        self.model.load_optim_state(state)
    }
    fn set_learning_rate(&mut self, lr: f32) -> bool {
        self.model.set_learning_rate(lr)
    }
    fn fold_in_basis(&self, ds: &Dataset) -> Option<FoldInBasis> {
        self.model.fold_in_basis(ds)
    }
    fn diagnostics(&self, ds: &Dataset) -> Option<ModelDiagnostics> {
        self.model.diagnostics(ds)
    }
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.wait();
}

pub fn engine_options(spec: &Spec, seed: u64, events_dir: Option<&Path>) -> EngineOptions {
    EngineOptions {
        n_layers: spec.model.n_layers,
        dropout: spec.model.pruner.ratio(),
        seed,
        events_dir: events_dir.map(Path::to_path_buf),
        ..EngineOptions::default()
    }
}

fn open_and_serve(
    spec: &Spec,
    seed: u64,
    ckpt: &Path,
    events_dir: &Path,
    ds: &Arc<Dataset>,
) -> ServerHandle {
    let opts = engine_options(spec, seed, Some(events_dir));
    let engine = Arc::new(Engine::open(ckpt, ds.clone(), opts).expect("Engine::open"));
    let cfg = ServerConfig {
        workers: spec::WORKERS,
        cache_capacity: spec.cache_capacity,
        events_log: Some(events_dir.to_path_buf()),
        ..ServerConfig::default()
    };
    serve(engine, cfg).expect("serve")
}

/// The offline top-K the served one must equal: score, mask the training
/// items, select with the evaluator's tie-break.
fn offline_top_k(model: &LayerGcn, ds: &Dataset, user: u32, k: usize) -> Vec<(u32, f32)> {
    let mut scores = model.score_users(ds, &[user]);
    let row = scores.row_mut(0);
    for &item in ds.train_items(user) {
        row[item as usize] = f32::NEG_INFINITY;
    }
    top_k_with_scores(row, k)
}

/// The compute-bound timings of a run, each taken once on the way to the
/// first request and once more in every interlude between traffic slices.
#[derive(Default)]
struct Repeats {
    setup1: Vec<f64>,
    setup2: Vec<f64>,
    epochs: Vec<f64>,
    evals: Vec<f64>,
    recalls: Vec<f64>,
}

impl Repeats {
    /// Set-up 1: the inputs and an untrained model.
    fn inputs_and_model(&mut self, spec: &Spec, seed: u64) -> (World, LayerGcn) {
        let t0 = Instant::now();
        let world = build_world(spec);
        let model = LayerGcn::new(
            &world.ds,
            spec.model.clone(),
            &mut StdRng::seed_from_u64(seed),
        );
        self.setup1.push(secs_since(t0));
        (world, model)
    }

    /// `refresh` + a full test evaluation of the served model.
    fn evaluate(&mut self, model: &mut LayerGcn, ds: &Dataset) {
        let t0 = Instant::now();
        model.refresh(ds);
        let scorer = |users: &[u32]| model.score_users(ds, users);
        let rep = evaluate_ranking_parallel(ds, Split::Test, &[10, 20, 50], 256, &scorer);
        self.evals.push(secs_since(t0));
        self.recalls.push(rep.recall(20));
    }

    /// Set-up 2: checkpoint, engine, server.
    fn checkpoint_and_serve(
        &mut self,
        spec: &Spec,
        seed: u64,
        model: &LayerGcn,
        ds: &Arc<Dataset>,
        ckpt: &Path,
        events_dir: &Path,
    ) -> ServerHandle {
        let t0 = Instant::now();
        model.save(ckpt).expect("LayerGcn::save");
        let server = open_and_serve(spec, seed, ckpt, events_dir, ds);
        self.setup2.push(secs_since(t0));
        server
    }
}

/// The traffic phases run so far (a sliced phase once per slice, under one
/// name), with the registry snapshots taken before and after each.
#[derive(Default)]
struct Traffic {
    phases: Vec<Phase>,
    marks: Vec<[registry::Snapshot; 2]>,
}

impl Traffic {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        target: &Target,
        tracer: &mut Tracer,
        report: &mut Report,
        name: &'static str,
        seconds: f64,
        seed: u64,
        trace: bool,
        lanes: [Lane; 2],
    ) {
        let before = registry::snapshot();
        let span = tracer.open(name, trace::ROOT);
        let phase = run_phase(target, name, seconds, seed, trace, lanes);
        tracer.close(span);
        self.marks.push([before, registry::snapshot()]);
        report.phase(&phase);
        request_spans(tracer, span, &phase);
        self.phases.push(phase);
    }

    fn slices(&self, name: &'static str) -> impl Iterator<Item = &Phase> {
        self.phases.iter().filter(move |p| p.name == name)
    }

    fn samples(&self, name: &'static str, kind: Kind) -> impl Iterator<Item = &Sample> {
        self.slices(name).flat_map(move |p| p.of(kind))
    }

    /// Latencies of one kind's valid answers, slice by slice.
    fn latencies_ms(&self, name: &'static str, kind: Kind) -> Vec<Vec<f64>> {
        self.slices(name).map(|p| p.latencies_ms(kind)).collect()
    }

    /// A counter's growth over the slices of one phase, or over every
    /// phase.
    fn counted(&self, name: Option<&'static str>, c: Counter) -> f64 {
        self.phases
            .iter()
            .zip(&self.marks)
            .filter(|(p, _)| name.is_none_or(|n| p.name == n))
            .map(|(_, [before, after])| (after.counter(c) - before.counter(c)) as f64)
            .sum()
    }
}

pub fn run(spec: &Spec, args: &Args, report: &mut Report) {
    let process_start = Instant::now();
    par::set_threads(COMPUTE_THREADS);
    let mut tracer = Tracer::new();
    // In a traced run the path is shortened, not skipped: the layer
    // numbers then describe the same engine, cache and delta states.
    let path_seconds = if args.trace {
        args.seconds * TRACED_PATH_SHARE
    } else {
        args.seconds
    };
    let plan = &spec.plan;
    let mut repeats = Repeats::default();

    // ---- set-up 1: inputs and an untrained model ------------------------
    let (world, mut model) = repeats.inputs_and_model(spec, args.seed);
    let ds = world.ds.clone();
    report.note(format!(
        "data: {} users trained + {} late, {} items, {} train edges, {} feed events",
        ds.n_users(),
        spec.data.n_users - ds.n_users(),
        ds.n_items(),
        ds.train().n_edges(),
        world.events.len()
    ));

    // ---- train and evaluate ----------------------------------------------
    let timed_epochs = (path_seconds * plan.epochs_per_second).round() as usize;
    let epochs = timed_epochs
        .saturating_sub(spec::ROUNDS * plan.round_epochs)
        .max(2);
    let train_cfg = TrainConfig {
        max_epochs: epochs,
        patience: usize::MAX,
        eval_every: 5,
        seed: args.seed,
        ..TrainConfig::default()
    };
    let before_train = registry::snapshot();
    let t0 = Instant::now();
    let mut timed = TimedEpochs {
        model: &mut model,
        epoch_seconds: Vec::new(),
    };
    let outcome = train_with_early_stopping(&mut timed, &ds, &train_cfg);
    let train_s = secs_since(t0);
    repeats.epochs = timed.epoch_seconds;
    let after_train = registry::snapshot();
    report.check("every epoch ran", outcome.epochs_run == epochs);
    for (e, loss) in outcome.history.losses().iter().enumerate() {
        report.check_with(loss.is_finite(), || format!("epoch {e} loss is {loss}"));
    }
    repeats.evaluate(&mut model, &ds);
    let recall_at_20 = repeats.recalls[0];
    report.note(format!(
        "train: {epochs} epochs in {train_s:.3} s with validation, last loss {:.5}; recall@20 {recall_at_20:.6}",
        outcome.history.losses().last().copied().unwrap_or(f64::NAN),
    ));

    // ---- set-up 2: checkpoint, engine, server ----------------------------
    std::fs::create_dir_all(&args.scratch).expect("creating the run's scratch directory");
    let ckpt = args.scratch.join("model.ckpt");
    let events_dir = args.scratch.join("events");
    let server = repeats.checkpoint_and_serve(spec, args.seed, &model, &ds, &ckpt, &events_dir);
    report.note(format!(
        "first request {:.3} s after process start",
        secs_since(process_start)
    ));

    let target = Target {
        addr: server.addr(),
        n_items: ds.n_items(),
        feed: Feed::new(world.events),
        failures: Mutex::new(Vec::new()),
    };

    // ---- output check: served == offline, exactly ------------------------
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x000f_f11e);
    let order = stats::permutation(&mut rng, ds.n_users() as u32);
    let corrupt = std::env::var_os("LRGCN_BENCH_CORRUPT_EXPECTED").is_some();
    let mut client = http::Client::new(target.addr);
    for &user in order.iter().take(PARITY_USERS) {
        let mut expected = offline_top_k(&model, &ds, user, spec::K);
        if corrupt {
            // Self-test of this check (README): a wrong expectation must fail.
            expected.swap(0, 1);
        }
        let served = client
            .request("GET", &format!("/recs/{user}?k={}", spec::K), b"", false)
            .map_err(|e| format!("request failed: {e}"))
            .and_then(|(resp, _)| {
                let text = String::from_utf8_lossy(&resp.body).into_owned();
                let v = json::parse(&text).map_err(|e| format!("bad JSON: {e}"))?;
                item_list(&v, ds.n_items())
            });
        let same = served.as_ref().is_ok_and(|s| {
            s.len() == expected.len()
                && s.iter()
                    .zip(&expected)
                    .all(|(got, want)| got.0 == want.0 && got.1 == want.1 as f64)
        });
        report.check_with(same, || {
            format!(
                "served top-{} of user {user} differs from offline: {served:?}",
                spec::K
            )
        });
    }
    // An open connection would pin one of the two workers once the server
    // keeps connections alive.
    drop(client);

    // ---- traffic -----------------------------------------------------------
    let k = spec::K;
    let picker = match spec.users {
        Users::Zipf => UserPicker::zipf(order.clone(), 1.0),
        Users::Uniform => UserPicker::uniform(order.clone()),
    };
    let mut traffic = Traffic::default();
    let mut salt = 0u64;
    let mut phase = |tracer: &mut Tracer,
                     report: &mut Report,
                     name: &'static str,
                     seconds: f64,
                     lanes: [Lane; 2]| {
        salt += 1;
        let seed = args.seed.wrapping_add(salt);
        traffic.run(
            &target, tracer, report, name, seconds, seed, args.trace, lanes,
        );
    };

    // Warm-up, untimed: ask for every trained user once, so a response
    // cache that can hold them all answers phase A from memory.
    if spec.cache_capacity > 0 {
        let warm = Open::new(
            vec![0; order.len()],
            order.iter().map(|&user| Op::Recs { user, k }).collect(),
        );
        phase(
            &mut tracer,
            report,
            "warm-up",
            0.0,
            [Lane::Open(&warm), Lane::Open(&warm)],
        );
    }

    let mixed_read = |rng: &mut StdRng, seq: u32| {
        let fallback = picker.pick(rng);
        if seq.is_multiple_of(2) {
            Op::RecsStreamed {
                pick: rng.random(),
                fallback,
                k,
            }
        } else {
            Op::Recs { user: fallback, k }
        }
    };

    // Phase A, then phase C (writes on a fixed schedule; half the reads
    // beside them are read-your-writes for users already streamed), each in
    // `ROUNDS` slices; A before C, because the first write stales every
    // cached answer. The compute-bound timings are repeated between the
    // slices, `ROUNDS` times in all.
    let seconds_a = if spec.reads_beside_writes {
        0.0
    } else {
        path_seconds * plan.read_open
    };
    let seconds_c = path_seconds * (plan.read_open + plan.mixed_open) - seconds_a;
    let mut slices = Vec::new();
    if seconds_a > 0.0 {
        slices.extend([(PHASE_A, seconds_a / spec::ROUNDS as f64); spec::ROUNDS]);
    }
    slices.extend([(PHASE_C, seconds_c / spec::ROUNDS as f64); spec::ROUNDS]);
    let slices_per_interlude = slices.len() / spec::ROUNDS;
    let spare_ckpt = args.scratch.join("spare.ckpt");
    let spare_events = args.scratch.join("spare-events");
    let mut epoch_rng = StdRng::seed_from_u64(args.seed ^ 0xe90c);
    for (i, &(name, seconds)) in slices.iter().enumerate() {
        if name == PHASE_A {
            let due = stats::poisson_schedule(&mut rng, spec.read_rps, seconds);
            let ops = due
                .iter()
                .map(|_| Op::Recs {
                    user: picker.pick(&mut rng),
                    k,
                })
                .collect();
            let open = Open::new(due, ops);
            phase(
                &mut tracer,
                report,
                name,
                seconds,
                [Lane::Open(&open), Lane::Open(&open)],
            );
        } else {
            let write_due = stats::fixed_schedule(spec::WRITE_BATCHES_PER_SECOND, seconds);
            let writes = Open::new(write_due.clone(), vec![Op::Events; write_due.len()]);
            let read_due = stats::poisson_schedule(&mut rng, spec::MIXED_READ_RPS, seconds);
            let read_ops = (0..read_due.len() as u32)
                .map(|i| mixed_read(&mut rng, i))
                .collect();
            let beside = Open::new(read_due, read_ops);
            phase(
                &mut tracer,
                report,
                name,
                seconds,
                [Lane::Open(&writes), Lane::Open(&beside)],
            );
        }
        if (i + 1) % slices_per_interlude != 0 {
            continue;
        }
        // Interlude. The server keeps serving the checkpoint it opened;
        // the model in memory is evaluated, then trained further, and
        // set-up 2 starts a second server on an event log of its own.
        let round = (i + 1) / slices_per_interlude;
        drop(repeats.inputs_and_model(spec, args.seed));
        let evals_by = |round: usize| (plan.evals * round).div_ceil(spec::ROUNDS);
        for _ in evals_by(round - 1)..evals_by(round) {
            repeats.evaluate(&mut model, &ds);
        }
        if round == 1 {
            // Nothing has trained the model since the first evaluation.
            report.check_with(
                repeats
                    .recalls
                    .iter()
                    .all(|r| r.to_bits() == recall_at_20.to_bits()),
                || format!("recall@20 does not repeat bitwise: {:?}", repeats.recalls),
            );
        }
        for _ in 0..plan.round_epochs {
            let epoch = repeats.epochs.len();
            let t0 = Instant::now();
            let stats = model.train_epoch(&ds, epoch, &mut epoch_rng);
            repeats.epochs.push(secs_since(t0));
            report.check_with(stats.loss.is_finite(), || {
                format!("epoch {epoch} loss is {}", stats.loss)
            });
        }
        stop(repeats.checkpoint_and_serve(
            spec,
            args.seed,
            &model,
            &ds,
            &spare_ckpt,
            &spare_events,
        ));
    }

    // Closed-loop probes, traced runs only: their rates swing with the
    // server's accept poll (README, "demoted metrics"), so they are layer
    // figures, not end-to-end ones.
    if args.trace {
        let s = args.seconds;
        let health_due = stats::poisson_schedule(&mut rng, HEALTHZ_RPS, s * 0.1);
        let health = Open::new(health_due.clone(), vec![Op::Healthz; health_due.len()]);
        phase(
            &mut tracer,
            report,
            PROBE_HEALTHZ,
            s * 0.1,
            [Lane::Open(&health), Lane::Open(&health)],
        );
        let reads: OpGen = &|rng, _| Op::Recs {
            user: picker.pick(rng),
            k,
        };
        phase(
            &mut tracer,
            report,
            PHASE_B,
            s * 0.05,
            [Lane::Closed(reads), Lane::Closed(reads)],
        );
        // A hit whose answer is 40x longer: serialise + write cost per item.
        let wide_k = 800.min(ds.n_items() / 2);
        let wide: OpGen = &|rng, _| Op::Recs {
            user: picker.pick(rng),
            k: wide_k,
        };
        phase(
            &mut tracer,
            report,
            PROBE_WIDE,
            s * 0.025,
            [Lane::Closed(wide), Lane::Closed(wide)],
        );
        let (n_users, n_items) = (ds.n_users() as u32, ds.n_items() as u32);
        let score: OpGen = &|rng, _| {
            Op::Score(
                (0..8)
                    .map(|_| (rng.random_range(0..n_users), rng.random_range(0..n_items)))
                    .collect(),
            )
        };
        phase(
            &mut tracer,
            report,
            PROBE_SCORE,
            s * 0.025,
            [Lane::Closed(score), Lane::Closed(score)],
        );
        let similar: OpGen = &|rng, _| Op::Similar {
            item: rng.random_range(0..n_items),
            k,
        };
        phase(
            &mut tracer,
            report,
            PROBE_SIMILAR,
            s * 0.025,
            [Lane::Closed(similar), Lane::Closed(similar)],
        );
        let script: OpGen = &|rng, seq| {
            if seq % 5 == 0 {
                Op::Events
            } else {
                mixed_read(rng, seq)
            }
        };
        phase(
            &mut tracer,
            report,
            PHASE_D,
            s * 0.05,
            [Lane::Closed(script), Lane::Closed(script)],
        );
    }
    let named = |name: &'static str| traffic.slices(name).next().expect("the phase ran");
    // The read latencies come from A, or from C where A does not run.
    let recs_phase = if spec.reads_beside_writes {
        PHASE_C
    } else {
        PHASE_A
    };

    // The open-loop numbers are only as good as the generator's punctuality.
    let late_ms: Vec<f64> = traffic
        .samples(recs_phase, Kind::Recs)
        .map(|s| s.late_ns() as f64 / 1e6)
        .collect();
    let late = stats::quantiles(&late_ms);
    report.check_with(late.tail <= LATE_P99_LIMIT_MS, || {
        format!("generator ran late: p{} {:.2} ms > {LATE_P99_LIMIT_MS} ms; the open-loop latencies are not valid", late.tail_p, late.tail)
    });

    // ---- shutdown, then the durability check -----------------------------
    stop(server);
    let shipped = target.feed.batches_taken() * spec::EVENT_BATCH;
    let replayed = EventLog::replay(&events_dir).expect("EventLog::replay");
    let same_log = replayed.len() == shipped
        && replayed.iter().all(|e| {
            (1..=shipped as u64).contains(&e.seq) && {
                let sent = &target.feed.events[e.seq as usize - 1];
                (e.user, e.item, e.timestamp) == (sent.user, sent.item, sent.timestamp)
            }
        });
    report.check_with(same_log, || {
        format!(
            "event log holds {} events, {shipped} were acknowledged",
            replayed.len()
        )
    });
    report.note(format!(
        "event log replays {} events, all acknowledged ones and no other",
        replayed.len()
    ));
    for f in target
        .failures
        .lock()
        .expect("failure list poisoned")
        .iter()
    {
        report.note(format!("failure: {f}"));
    }

    let recs = stats::steady_quantiles(&traffic.latencies_ms(recs_phase, Kind::Recs));
    let acks = stats::steady_quantiles(&traffic.latencies_ms(PHASE_C, Kind::Events));
    report.note(format!(
        "recs latency from phase {recs_phase:?}: {} samples, tail is the median of its slices' p{}; event acks: {} samples, slices' p{}; generator late p{} {:.3} ms",
        recs.n,
        recs.tail_p,
        acks.n,
        acks.tail_p,
        late.tail_p,
        late.tail
    ));
    report.note(format!(
        "timed repeats: {} epochs, {} evaluations, {} + {} set-ups; fastest to slowest epoch {:.4} to {:.4} s, evaluation {:.4} to {:.4} s",
        repeats.epochs.len(),
        repeats.evals.len(),
        repeats.setup1.len(),
        repeats.setup2.len(),
        repeats.epochs.iter().copied().fold(f64::INFINITY, f64::min),
        repeats.epochs.iter().copied().fold(0.0, f64::max),
        repeats.evals.iter().copied().fold(f64::INFINITY, f64::min),
        repeats.evals.iter().copied().fold(0.0, f64::max),
    ));

    if !args.trace {
        report.metric(
            "setup_s",
            stats::fastest_decile(&repeats.setup1) + stats::fastest_decile(&repeats.setup2),
            "s",
        );
        report.metric("epoch_s", stats::fastest_decile(&repeats.epochs), "s");
        report.metric("eval_s", stats::fastest_decile(&repeats.evals), "s");
        report.metric("recall_at_20", recall_at_20, "ratio");
        report.metric("recs_p50_ms", recs.p50, "ms");
        report.metric("recs_p99_ms", recs.tail, "ms");
        report.metric("events_ack_p50_ms", acks.p50, "ms");
        report.metric("events_ack_p99_ms", acks.tail, "ms");
        report.metric("peak_rss_mb", crate::env::peak_rss_mb(), "MB");
        return;
    }

    // ---- the layer table ----------------------------------------------------
    let p50_us = |name: &'static str, kind: Kind| {
        stats::quantiles(&named(name).latencies_ms(kind)).p50 * 1e3
    };
    let split_us = |part: fn(&Sample) -> u64| {
        let v: Vec<f64> = traffic
            .samples(recs_phase, Kind::Recs)
            .filter(|s| s.traced && s.ok)
            .map(|s| part(s) as f64 / 1e3)
            .collect();
        stats::median(&v)
    };
    report.metric(
        "serve.http.connect_us",
        split_us(|s| s.timing.connect_ns),
        "us",
    );
    report.metric("serve.http.ttfb_us", split_us(|s| s.timing.ttfb_ns), "us");
    report.metric(
        "serve.http.body_read_us",
        split_us(|s| s.timing.body_read_ns),
        "us",
    );
    let bytes: Vec<f64> = traffic
        .samples(recs_phase, Kind::Recs)
        .filter(|s| s.ok)
        .map(|s| s.wire_bytes as f64)
        .collect();
    report.metric(
        "serve.http.response_bytes",
        bytes.iter().sum::<f64>() / bytes.len() as f64,
        "B",
    );
    let health = stats::quantiles(&named(PROBE_HEALTHZ).latencies_ms(Kind::Healthz));
    report.metric("serve.server.healthz_p50_us", health.p50 * 1e3, "us");
    report.metric("serve.server.healthz_p99_us", health.tail * 1e3, "us");
    report.metric(
        "serve.server.recs_k800_p50_us",
        p50_us(PROBE_WIDE, Kind::Recs),
        "us",
    );
    report.metric(
        "serve.batch.score_p50_us",
        p50_us(PROBE_SCORE, Kind::Score),
        "us",
    );
    report.metric(
        "serve.engine.similar_p50_us",
        p50_us(PROBE_SIMILAR, Kind::Similar),
        "us",
    );
    report.metric(
        "recs_rps",
        named(PHASE_B).rate_per_s(Some(Kind::Recs)),
        "1/s",
    );
    report.metric("mixed_ops_per_s", named(PHASE_D).rate_per_s(None), "1/s");
    let served = |c: Counter| traffic.counted(None, c);
    let sent: usize = traffic.phases.iter().map(Phase::attempted).sum();
    report.check_with(served(Counter::ServeRequests) == sent as f64, || {
        format!(
            "server counted {} requests, the generator sent {sent}",
            served(Counter::ServeRequests)
        )
    });
    report.metric(
        "serve.server.requests",
        served(Counter::ServeRequests),
        "count",
    );
    report.metric("serve.server.errors", served(Counter::ServeErrors), "count");
    // Over the phase the read latencies come from (A, or C beside writes).
    let (hits, misses) = (
        traffic.counted(Some(recs_phase), Counter::ServeCacheHits),
        traffic.counted(Some(recs_phase), Counter::ServeCacheMisses),
    );
    report.metric(
        "serve.cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("bench.generator.late_p99_ms", late.tail, "ms");
    // Every other request carried the timing split; the rest ran with the
    // clock unread. Their medians differ by what tracing costs.
    let p50_of = |traced: bool| {
        let v: Vec<f64> = traffic
            .samples(recs_phase, Kind::Recs)
            .filter(|s| s.ok && s.traced == traced)
            .map(|s| s.latency_ns() as f64)
            .collect();
        stats::median(&v)
    };
    report.metric(
        "bench.trace.overhead_share",
        (p50_of(true) - p50_of(false)) / p50_of(false),
        "ratio",
    );

    let layers_span = tracer.open("layers", trace::ROOT);
    let mut ctx = layers::Ctx {
        spec,
        seed: args.seed,
        ds: &ds,
        events: &target.feed.events,
        ckpt: &ckpt,
        scratch: &args.scratch,
        tracer: &mut tracer,
        report,
        parent: layers_span,
    };
    layers::serving_layers(&mut ctx, &model);
    layers::training_layers(&mut ctx, &mut model, (&before_train, &after_train));
    tracer.close(layers_span);
    let path = args.trace_file.as_path();
    match tracer.write(path) {
        Ok(()) => report.note(format!(
            "trace: {} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => report.check_with(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Client-side spans of a phase's traced requests: one per request under
/// the phase's span, split into connect / wait for first byte / read body.
fn request_spans(tracer: &mut Tracer, phase_span: SpanId, phase: &Phase) {
    let base = tracer.span_start(phase_span);
    for (seq, s) in phase.samples.iter().enumerate().filter(|(_, s)| s.traced) {
        let start = base + s.due_ns.unwrap_or(s.start_ns);
        let end = base + s.end_ns;
        let req = tracer.push(
            format!("request {:?} #{seq}", s.kind),
            phase_span,
            start,
            end,
        );
        let body_at = end - s.timing.body_read_ns;
        let sent_at = body_at - s.timing.ttfb_ns;
        let connect_at = base + s.start_ns;
        tracer.push(
            "serve.http.connect",
            req,
            connect_at,
            connect_at + s.timing.connect_ns,
        );
        tracer.push("serve.http.ttfb", req, sent_at, body_at);
        tracer.push("serve.http.body_read", req, body_at, end);
    }
}
