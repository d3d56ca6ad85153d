//! The layer table of a traced run: one direct, single call into each
//! layer's public function on the workload's own operands, each recorded
//! as a span, plus counts from `registry::snapshot()` deltas.
//!
//! Nothing here is gated; it says where an end-to-end number came from.
//! `README.md` lists which end-to-end metric each entry should move.

use crate::pipeline::engine_options;
use crate::spec::{Spec, EVENT_BATCH, K};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::Report;
use lrgcn::data::{BprEpoch, Dataset};
use lrgcn::eval::topk::overlap_fraction;
use lrgcn::eval::{evaluate_ranking, Split};
use lrgcn::graph::kernels::active_kernel;
use lrgcn::graph::EdgePruner;
use lrgcn::models::common::{bpr_loss, full_adjacency, sum_readout};
use lrgcn::models::layergcn::refined_chain;
use lrgcn::models::{LayerGcn, LayerGcnConfig, LightGcn, LightGcnConfig, Recommender};
use lrgcn::obs::registry::{self, Counter, Gauge, Hist, Snapshot};
use lrgcn::obs::window::{self, ReadPath, Route};
use lrgcn::tensor::kernels::matmul_nt_block;
use lrgcn::tensor::{SharedCsr, Tape};
use lrgcn_serve::{Engine, EngineOptions, IvfConfig, IvfIndex, Scratch};
use lrgcn_stream::{EventLog, StreamEvent};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Users per in-process top-K measurement.
const TOPK_USERS: usize = 256;
/// Events folded before `fold_in_us_at_1k` / `_5k` are taken.
const FOLD_MARKS: [usize; 2] = [1000, 5000];
/// Batches timed at each mark, and appended for the log figures' tail.
const FOLD_SAMPLES: usize = 20;

pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub ds: &'a Arc<Dataset>,
    pub events: &'a [StreamEvent],
    pub ckpt: &'a Path,
    pub scratch: &'a Path,
    pub tracer: &'a mut Tracer,
    pub report: &'a mut Report,
    /// Parent span of everything measured here.
    pub parent: SpanId,
}

impl Ctx<'_> {
    /// Repeats one call up to `max_reps` times or until `budget_s` is
    /// spent (at least once); returns the median duration in ms.
    fn median_ms<T>(
        &mut self,
        name: &str,
        max_reps: usize,
        budget_s: f64,
        mut f: impl FnMut() -> T,
    ) -> f64 {
        let t0 = Instant::now();
        let mut ms = Vec::new();
        while ms.is_empty() || (ms.len() < max_reps && t0.elapsed().as_secs_f64() < budget_s) {
            let (out, took) = self.tracer.call(name, self.parent, &mut f);
            black_box(out);
            ms.push(took);
        }
        stats::median(&ms)
    }

    /// Times one loop over `n` items as a span; returns what it produced
    /// and the mean microseconds per item.
    fn mean_us<T>(&mut self, name: &str, n: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, ms) = self.tracer.call(name, self.parent, f);
        (out, ms * 1e3 / n as f64)
    }
}

/// The training-side layers: `data`, `graph`, `tensor`, `models`, `eval`,
/// `train`. `train` brackets the run's timed training section.
pub fn training_layers(ctx: &mut Ctx, model: &mut LayerGcn, train: (&Snapshot, &Snapshot)) {
    let ds = ctx.ds.clone();
    let ds = &*ds;
    let cfg = ctx.spec.model.clone();
    let seed = ctx.seed;
    let graph = ds.train();

    // data.sampler: one epoch's batches.
    let ms = ctx.median_ms("data.sampler.BprEpoch", 5, 0.5, || {
        BprEpoch::new(ds, cfg.batch_size, &mut StdRng::seed_from_u64(seed)).count()
    });
    ctx.report.metric("data.sampler.epoch_ms", ms, "ms");

    // graph.dropout + graph.bipartite: what an epoch with DegreeDrop pays
    // before its first batch (measured on every workload, pruned or not).
    let pruner = EdgePruner::DegreeDrop { ratio: 0.1 };
    let mut kept = Vec::new();
    let ms = ctx.median_ms("graph.dropout.sample_edges", 5, 0.5, || {
        kept = pruner
            .sample_edges(graph, 0, &mut StdRng::seed_from_u64(seed))
            .expect("ratio 0.1 prunes");
    });
    ctx.report.metric("graph.dropout.sample_ms", ms, "ms");
    ctx.report.metric(
        "graph.dropout.edges_kept_per_epoch",
        kept.len() as f64,
        "count",
    );
    let ms = ctx.median_ms("graph.bipartite.norm_adjacency_of_edges", 5, 0.5, || {
        graph.norm_adjacency_of_edges(&kept)
    });
    ctx.report.metric("graph.bipartite.norm_adj_ms", ms, "ms");

    // graph.csr: one propagation step, single-threaded.
    let adj = graph.norm_adjacency();
    let dim = cfg.embedding_dim;
    let ego = model.ego_embeddings().clone();
    let mut out = vec![0.0f32; adj.n_rows() * dim];
    let ms = ctx.median_ms("graph.csr.spmm_into", 20, 0.5, || {
        adj.spmm_into(ego.data(), dim, &mut out)
    });
    ctx.report.metric("graph.csr.spmm_ms", ms, "ms");
    ctx.report.metric(
        "graph.csr.spmm_gmacs",
        (adj.nnz() * dim) as f64 / (ms * 1e6),
        "GMAC/s",
    );

    // tensor.kernels: the scoring kernel of evaluation and of the scan.
    let items = &ego.data()[ds.n_users() * dim..];
    let rows = 256.min(ds.n_users());
    let mut scores = vec![0.0f32; rows * ds.n_items()];
    let kernel = active_kernel();
    let ms = ctx.median_ms("tensor.kernels.matmul_nt_block", 10, 0.5, || {
        matmul_nt_block(
            kernel,
            &ego.data()[..rows * dim],
            dim,
            items,
            ds.n_items(),
            &mut scores,
        )
    });
    let flops = 2.0 * (rows * ds.n_items() * dim) as f64;
    ctx.report.metric(
        "tensor.kernels.matmul_nt_gflops",
        flops / (ms * 1e6),
        "GFLOP/s",
    );
    drop(scores);

    // models.layergcn + tensor.tape: one batch staged by hand, in the RNG
    // call order of `train_epoch`, on a one-batch configuration - where
    // `EpochStats.loss` is that batch's loss and must match bitwise.
    let one_batch = LayerGcnConfig {
        batch_size: graph.n_edges().max(1),
        ..cfg.clone()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reference = LayerGcn::new(ds, one_batch.clone(), &mut rng);
    let mut staged_rng = StdRng::from_state(rng.state());
    let x0_value = reference.ego_embeddings().clone();
    let adj_epoch = match one_batch.pruner.sample_edges(graph, 0, &mut staged_rng) {
        Some(edges) => SharedCsr::new(graph.norm_adjacency_of_edges(&edges)),
        None => full_adjacency(ds),
    };
    let batch = BprEpoch::new(ds, one_batch.batch_size, &mut staged_rng)
        .next()
        .expect("one batch");
    let mut tape = Tape::new();
    let ((x0, loss), forward_ms) = ctx.tracer.call("models.layergcn.forward", ctx.parent, || {
        let x0 = tape.leaf(x0_value);
        let (layers, _) = refined_chain(
            &mut tape,
            &adj_epoch,
            x0,
            one_batch.n_layers,
            one_batch.epsilon,
            one_batch.cosine_eps,
        );
        let final_x = sum_readout(&mut tape, &layers);
        (
            x0,
            bpr_loss(
                &mut tape,
                final_x,
                x0,
                ds.n_users(),
                &batch,
                one_batch.lambda,
            ),
        )
    });
    let staged_loss = tape.scalar(loss) as f64;
    let ((), backward_ms) = ctx
        .tracer
        .call("tensor.tape.backward", ctx.parent, || tape.backward(loss));
    ctx.report.check(
        "the staged backward pass reaches the ego table",
        tape.take_grad(x0).is_some(),
    );
    drop(tape);
    let stats = reference.train_epoch(ds, 0, &mut rng);
    ctx.report.check_with(
        stats.n_batches == 1 && stats.loss.to_bits() == staged_loss.to_bits(),
        || {
            format!(
                "staged forward loss {staged_loss} != train_epoch loss {} ({} batches)",
                stats.loss, stats.n_batches
            )
        },
    );
    drop(reference);
    ctx.report
        .metric("models.layergcn.forward_ms", forward_ms, "ms");
    ctx.report
        .metric("tensor.tape.backward_ms", backward_ms, "ms");

    // models + eval: inference refresh, then ranking alone (evaluation
    // minus the time inside the scorer).
    let ms = ctx.median_ms("models.layergcn.refresh", 5, 0.5, || model.refresh(ds));
    ctx.report.metric("models.layergcn.refresh_ms", ms, "ms");
    let mut scoring_ms = 0.0;
    let (_, total_ms) = ctx
        .tracer
        .call("eval.topk.evaluate_ranking", ctx.parent, || {
            evaluate_ranking(ds, Split::Test, &[10, 20, 50], 256, &mut |users| {
                let t0 = Instant::now();
                let scores = model.score_users(ds, users);
                scoring_ms += t0.elapsed().as_secs_f64() * 1e3;
                scores
            })
        });
    ctx.report
        .metric("eval.topk.rank_ms", total_ms - scoring_ms, "ms");

    // train: validation's share of the training section's time.
    let (before, after) = train;
    let epochs =
        (after.counter(Counter::TrainEpochs) - before.counter(Counter::TrainEpochs)) as f64;
    let val = after.hist_seconds_since(before, Hist::EpochVal)
        + after.hist_seconds_since(before, Hist::EpochRefresh);
    let fit = after.hist_seconds_since(before, Hist::EpochTrain);
    ctx.report
        .metric("train.trainer.val_share", val / (fit + val), "ratio");

    // The paper's section IV-C ratio: LightGCN on the same data and dims.
    let layer_epochs = ((ctx.spec.plan.epochs_per_second * 4.0).round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let light_cfg = LightGcnConfig {
        embedding_dim: cfg.embedding_dim,
        n_layers: cfg.n_layers,
        learning_rate: cfg.learning_rate,
        lambda: cfg.lambda,
        batch_size: cfg.batch_size,
    };
    let mut light = LightGcn::new(ds, light_cfg, &mut rng);
    let ((), ms) = ctx
        .tracer
        .call("models.lightgcn.train_epochs", ctx.parent, || {
            for epoch in 0..layer_epochs {
                light.train_epoch(ds, epoch, &mut rng);
            }
        });
    drop(light);
    let light_epoch_s = ms / 1e3 / layer_epochs as f64;
    ctx.report
        .metric("models.lightgcn.epoch_s", light_epoch_s, "s");

    // tensor.par: the same epochs with the thread count on auto, in a
    // child process (this one is pinned to `COMPUTE_THREADS`).
    let auto = child_epoch_s(ctx.spec, seed, layer_epochs, false);
    ctx.report.check_with(auto.is_ok(), || {
        format!("auto-threads child failed: {auto:?}")
    });
    ctx.report.metric(
        "tensor.par.epoch_s_threads_auto",
        auto.unwrap_or(f64::NAN),
        "s",
    );
    // tensor.matrix: the same epochs on one thread with the allocator left
    // to its defaults (`run.sh` pins it): what the model's allocations cost
    // a young process in page faults.
    let unpinned = child_epoch_s(ctx.spec, seed, layer_epochs, true);
    ctx.report.check_with(unpinned.is_ok(), || {
        format!("default-allocator child failed: {unpinned:?}")
    });
    ctx.report.metric(
        "tensor.matrix.epoch_s_default_malloc",
        unpinned.unwrap_or(f64::NAN),
        "s",
    );

    // tensor + data: what the timed training section cost per epoch, as
    // counts (validation rounds included; they repeat exactly for a seed).
    let per_epoch = |c: Counter| (after.counter(c) - before.counter(c)) as f64 / epochs;
    ctx.report.metric(
        "models.layergcn_over_lightgcn",
        fit / epochs / light_epoch_s,
        "ratio",
    );
    ctx.report.metric(
        "data.sampler.triples_per_epoch",
        per_epoch(Counter::SamplerTriples),
        "count",
    );
    ctx.report.metric(
        "tensor.spmm.macs_per_epoch",
        per_epoch(Counter::SpmmMacs),
        "count",
    );
    ctx.report.metric(
        "tensor.matmul.cells_per_epoch",
        per_epoch(Counter::MatmulCells),
        "count",
    );
    ctx.report.metric(
        "tensor.matrix.allocs_per_epoch",
        per_epoch(Counter::MatrixAllocs),
        "count",
    );
    ctx.report.metric(
        "tensor.matrix.bytes_peak_mb",
        registry::gauge_peak(Gauge::MatrixBytes) as f64 / (1 << 20) as f64,
        "MB",
    );
}

/// Runs `epochs` training epochs of this workload in a child process and
/// returns its seconds per epoch. The child differs from this process in
/// one setting: its thread count is on auto, or (`default_malloc`) it has
/// this process's one compute thread and the allocator's defaults.
fn child_epoch_s(
    spec: &Spec,
    seed: u64,
    epochs: usize,
    default_malloc: bool,
) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = std::process::Command::new(exe);
    if default_malloc {
        child.env(
            "LRGCN_THREADS",
            crate::pipeline::COMPUTE_THREADS.to_string(),
        );
        for pin in crate::env::MALLOC_PINS {
            child.env_remove(pin);
        }
    }
    let out = child
        .args([
            "--child-epochs",
            &epochs.to_string(),
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
        ])
        .args(spec.quick.then_some("--quick"))
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .map_err(|_| format!("child printed {text:?}, status {}", out.status))
}

/// The child side of [`child_epoch_s`]: prints seconds per epoch.
pub fn child_epochs(spec: &Spec, seed: u64, epochs: usize) {
    let world = crate::pipeline::build_world(spec);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = LayerGcn::new(&world.ds, spec.model.clone(), &mut rng);
    let t0 = Instant::now();
    for epoch in 0..epochs {
        model.train_epoch(&world.ds, epoch, &mut rng);
    }
    println!("{}", t0.elapsed().as_secs_f64() / epochs as f64);
}

/// The serving-side layers that need no live server: `tensor::io`,
/// `engine`, `ann`, `delta`, `stream`, `obs`.
pub fn serving_layers(ctx: &mut Ctx, model: &LayerGcn) {
    let ds = ctx.ds.clone();
    let (n_users, n_items) = (ds.n_users(), ds.n_items());
    let seed = ctx.seed;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001a_7e25);
    let users: Vec<u32> = (0..TOPK_USERS)
        .map(|_| rng.random_range(0..n_users as u32))
        .collect();

    // tensor.io
    let path = ctx.scratch.join("layers.ckpt");
    let ms = ctx.median_ms("tensor.io.save", 5, 0.5, || {
        model.save(&path).expect("LayerGcn::save")
    });
    ctx.report.metric("tensor.io.save_ms", ms, "ms");
    let mut loaded = LayerGcn::new(
        &ds,
        ctx.spec.model.clone(),
        &mut StdRng::seed_from_u64(seed),
    );
    let ms = ctx.median_ms("tensor.io.load", 5, 0.5, || {
        loaded.load(&path).expect("LayerGcn::load")
    });
    ctx.report.metric("tensor.io.load_ms", ms, "ms");
    drop(loaded);

    // serve.engine: open on an empty log, then the exact scan.
    let log_dir = ctx.scratch.join("layers-events");
    let opts = engine_options(ctx.spec, seed, Some(&log_dir));
    let (engine, ms) = ctx.tracer.call("serve.engine.open", ctx.parent, || {
        Engine::open(ctx.ckpt, ds.clone(), opts.clone()).expect("Engine::open")
    });
    ctx.report.metric("serve.engine.open_ms", ms, "ms");
    let state = engine.state();
    let mut scratch = Scratch::default();
    let mut top_k =
        |name: &str, st: &lrgcn_serve::EngineState, ctx: &mut Ctx| -> (Vec<Vec<u32>>, f64) {
            ctx.mean_us(name, users.len(), || {
                users
                    .iter()
                    .map(|&u| {
                        let top = st
                            .top_k_into(&ds, u, K, true, &mut scratch)
                            .expect("trained user");
                        top.into_iter().map(|(item, _)| item).collect()
                    })
                    .collect()
            })
        };
    let (exact, us) = top_k("serve.engine.top_k_into[exact]", &state, ctx);
    ctx.report.metric("serve.engine.topk_exact_us", us, "us");

    // The approximate read paths, against the exact top-K of the same users.
    for (name, quant, ann) in [
        ("quant", true, false),
        ("ann", false, true),
        ("ann_quant", true, true),
    ] {
        let approx = Engine::open(
            ctx.ckpt,
            ds.clone(),
            EngineOptions {
                quant,
                ann,
                events_dir: None,
                ..opts.clone()
            },
        )
        .expect("Engine::open with an approximate read path");
        let (lists, us) = top_k(
            &format!("serve.engine.top_k_into[{name}]"),
            &approx.state(),
            ctx,
        );
        let recall: f64 = lists
            .iter()
            .zip(&exact)
            .map(|(got, want)| overlap_fraction(got, want))
            .sum();
        ctx.report
            .metric(&format!("serve.engine.topk_{name}_us"), us, "us");
        ctx.report.metric(
            &format!("serve.engine.{name}_recall_at_20"),
            recall / users.len() as f64,
            "ratio",
        );
    }

    // serve.ann, on the same item table the engines index.
    let final_emb = model.final_embeddings();
    let dim = final_emb.cols();
    let item_block = &final_emb.data()[n_users * dim..];
    let ivf_cfg = IvfConfig {
        seed,
        ..IvfConfig::default()
    };
    let (index, ms) = ctx
        .tracer
        .call("serve.ann.IvfIndex::build", ctx.parent, || {
            IvfIndex::build(item_block, n_items, dim, &ivf_cfg)
        });
    ctx.report.metric("serve.ann.build_ms", ms, "ms");
    let (mut cells, mut candidates, mut n_candidates) = (Vec::new(), Vec::new(), 0usize);
    let ((), us) = ctx.mean_us("serve.ann.probe_cells", users.len(), || {
        for &u in &users {
            index.probe_cells(final_emb.row(u as usize), &mut cells);
            black_box(&cells);
        }
    });
    ctx.report.metric("serve.ann.probe_us", us, "us");
    for &u in &users {
        candidates.clear();
        index.candidates_into(final_emb.row(u as usize), &mut cells, &mut candidates);
        n_candidates += candidates.len();
    }
    ctx.report.metric(
        "serve.ann.candidates_per_query",
        n_candidates as f64 / users.len() as f64,
        "count",
    );
    drop((index, final_emb));

    // serve.engine fold-in: the cost of one more batch as the delta grows.
    let batches: Vec<&[StreamEvent]> = ctx.events.chunks_exact(EVENT_BATCH).collect();
    let mut folded = 0;
    for mark in FOLD_MARKS {
        while folded * EVENT_BATCH < mark {
            engine.fold_in(batches[folded]);
            folded += 1;
        }
        let span = ctx.tracer.open("serve.engine.fold_in", ctx.parent);
        let us: Vec<f64> = (0..FOLD_SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                engine.fold_in(batches[folded]);
                folded += 1;
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        ctx.tracer.close(span);
        ctx.report.metric(
            &format!("serve.engine.fold_in_us_at_{}k", mark / 1000),
            stats::median(&us),
            "us",
        );
    }
    let delta = state.delta();
    ctx.report.check(
        "every folded event is in the delta",
        delta.events_applied() == (folded * EVENT_BATCH) as u64,
    );
    // Half the readers are streamed users, half trained, as in phase C.
    let streamed: Vec<u32> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            if i % 2 == 0 {
                ctx.events[i % (folded * EVENT_BATCH)].user
            } else {
                u
            }
        })
        .collect();
    let ((), us) = ctx.mean_us("serve.engine.top_k_stream", streamed.len(), || {
        for &u in &streamed {
            black_box(
                state
                    .top_k_stream(&delta, u, K, true, &mut scratch)
                    .expect("known user"),
            );
        }
    });
    ctx.report.metric("serve.engine.topk_stream_us", us, "us");

    // stream.log: durable appends of the same events, then replay, then
    // the engine's reload over that log.
    let n_log = FOLD_MARKS[1] / EVENT_BATCH;
    let mut log = EventLog::open(&log_dir).expect("EventLog::open");
    let span = ctx.tracer.open("stream.log.append_batch", ctx.parent);
    let us: Vec<f64> = batches[..n_log]
        .iter()
        .map(|batch| {
            let t0 = Instant::now();
            let outcome = log.append_batch(batch).expect("append_batch");
            let took = t0.elapsed().as_secs_f64() * 1e6;
            assert_eq!(
                outcome.accepted.len(),
                EVENT_BATCH,
                "fresh events are all accepted"
            );
            took
        })
        .collect();
    ctx.tracer.close(span);
    drop(log);
    let q = stats::quantiles(&us);
    ctx.report.metric("stream.log.append_batch_us", q.p50, "us");
    ctx.report
        .metric("stream.log.append_batch_p99_us", q.tail, "us");
    let (replayed, ms) = ctx.tracer.call("stream.log.replay", ctx.parent, || {
        EventLog::replay(&log_dir).expect("EventLog::replay")
    });
    ctx.report.check(
        "replay returns what was appended",
        replayed.len() == n_log * EVENT_BATCH,
    );
    ctx.report.metric("stream.log.replay_ms", ms, "ms");
    let bytes: u64 = std::fs::read_dir(&log_dir)
        .expect("listing the event log")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    ctx.report.metric(
        "stream.log.bytes_per_event",
        bytes as f64 / replayed.len() as f64,
        "B",
    );
    let (reloaded, ms) = ctx.tracer.call("serve.engine.reload", ctx.parent, || {
        engine.reload().expect("Engine::reload")
    });
    ctx.report.check(
        "reload folds the whole log",
        reloaded.delta().events_applied() == replayed.len() as u64,
    );
    ctx.report.metric("serve.engine.reload_ms", ms, "ms");

    // obs.window: the per-request bookkeeping every handler pays.
    const CALLS: usize = 1_000_000;
    let ((), us) = ctx.mean_us("obs.window.record_request", CALLS, || {
        for i in 0..CALLS {
            window::record_request(
                Route::Recs,
                200,
                ReadPath::Exact,
                black_box(200_000 + i as u64),
                false,
            );
        }
    });
    ctx.report
        .metric("obs.window.record_request_ns", us * 1e3, "ns");
}
