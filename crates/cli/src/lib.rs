//! # lrgcn-cli — command-line workflows for the LayerGCN recommender
//!
//! Seven subcommands — five over `user item [timestamp]` text logs, an
//! offline reporter over the JSONL run logs, and a live serving dashboard:
//!
//! ```text
//! lrgcn stats     --input interactions.tsv [--kcore K]
//! lrgcn train     --input interactions.tsv --save model.ckpt
//!                 [--model layergcn|lightgcn|bpr|...] [--epochs N] [--kcore K]
//!                 [--layers L] [--dropout R] [--lambda F] [--seed S]
//!                 [--checkpoint BASE [--checkpoint-every N]] [--resume BASE]
//! lrgcn evaluate  --input interactions.tsv --load model.ckpt [--ks 10,20,50]
//! lrgcn recommend --input interactions.tsv --load model.ckpt --user ID [--k N]
//!                 [--exclude-seen true|false]       # default true
//! lrgcn serve     model.ckpt --input interactions.tsv [--port P] [--host H]
//!                 [--workers N] [--cache N]         # online HTTP serving
//!                 [--quant | --exact]               # int8 or exact read path
//!                 [--ann [--nprobe N] [--ann-cells C]]  # IVF ANN retrieval
//!                 [--ann-standby]                   # build index, serve exact
//!                 [--access-log PATH [--access-sample N]]   # JSONL access log
//!                 [--slo-p99-ms MS] [--slo-err-ppm PPM]     # SLO burn gauges
//!                 [--max-inflight N [--max-queue N]]        # admission gate
//!                 [--deadline-default-ms MS]        # per-request deadlines
//!                 [--brownout [--brownout-up-ticks N] [--brownout-down-ticks N]]
//! lrgcn report    LOG.jsonl            # or: report --diff A.jsonl B.jsonl
//! lrgcn top       http://HOST:PORT [--interval SECS] [--once]
//! ```
//!
//! Every subcommand also accepts `--threads N` to pin the worker-thread
//! count of the parallel kernels (default: `LRGCN_THREADS` env var, then
//! the machine's available parallelism) and `--kernel naive|blocked|simd`
//! to pin the micro-kernel implementation (default: `LRGCN_KERNEL` env
//! var, then the best the CPU supports; `simd` needs AVX2). Results are
//! bitwise identical for any thread count and any kernel.
//!
//! ## Observability flags
//!
//! Two sinks can be armed on any subcommand; for both, the command-line
//! flag wins over the environment variable, and either installs the sink
//! for the duration of the process:
//!
//! * `--log-json PATH` (env `LRGCN_LOG_JSON`) appends structured JSONL run
//!   logs: one record per training epoch (loss, per-phase timings, kernel
//!   counters, thread count, peak matrix bytes), one `diag` record per
//!   validated epoch (per-layer smoothness, gradient norms, embedding L2,
//!   refined-layer weights), plus `run_start` / `run_summary` records. See
//!   `lrgcn_obs::event` and `lrgcn_obs::diag` for the schema, and
//!   `lrgcn report` to render the file.
//! * `--trace PATH` (env `LRGCN_TRACE`) writes a Chrome `trace_event` JSON
//!   array of hierarchical wall-clock spans (run → epoch → phase → kernel)
//!   loadable in `chrome://tracing` / Perfetto. See `lrgcn_obs::trace`.
//!
//! `train --save` checkpoints LayerGCN, LightGCN and LR-GCCF (tagged with
//! the model family, see `lrgcn::models::checkpoint`; the remaining baselines train
//! and report but have no stable checkpoint format). `evaluate`,
//! `recommend` and `serve` rebuild the dataset with the same flags, so pass
//! the same `--input`/`--kcore`/`--layers` used at training time; the
//! embedding dimension is inferred from the checkpoint itself.
//!
//! `recommend` masks items the user already interacted with in training by
//! default; pass `--exclude-seen false` to rank the full catalogue.
//!
//! ## Fault tolerance
//!
//! `train --checkpoint BASE` writes resumable training-state checkpoints to
//! `BASE.e<NNNNNN>` (atomic tmp+fsync+rename, newest two generations kept)
//! every `--checkpoint-every N` epochs (default 1 when `--checkpoint` is
//! given). `train --resume BASE` continues from the newest *valid*
//! generation — corrupt or torn files are skipped — and reproduces the
//! uninterrupted run's loss/metric trajectory bitwise, at any `--threads`.
//! The trainer also survives divergence (non-finite loss, exploding
//! gradients) by rolling back to the last good generation and halving the
//! learning rate, and a process panic is stamped into the JSONL log as a
//! terminal `run_abort` record so `lrgcn report` can tell a crashed run
//! from a finished one. Set `LRGCN_FAULT` (e.g. `io_error:0.1`,
//! `torn_write:save`, `kill:3`) to inject I/O faults for drills; see
//! `lrgcn_tensor::faultfs`.
//!
//! ## Serving
//!
//! `serve` loads the checkpoint once into an `lrgcn_serve::Engine` and
//! answers HTTP on a fixed worker pool (`--workers`, default: the
//! `LRGCN_THREADS` convention): `GET /recs/{user}?k=N`,
//! `GET /similar/{item}?k=N`, `POST /score`, `GET /healthz`,
//! `GET /metrics`, `POST /admin/reload` (hot checkpoint swap) and
//! `POST /admin/shutdown` (graceful drain). Served rankings are
//! byte-identical to the offline evaluator's top-K for any thread count.
//!
//! `serve --quant` switches the read paths to the int8 two-stage
//! rank-then-rescore pipeline (quantized full-catalog scan → exact f32
//! rescore of the top 4·K candidates); its measured recall against the
//! exact scan is reported in `/healthz` and the `serve.quant.recall_ppm`
//! gauge. `--exact` (the default) keeps the byte-identical f32 path.
//!
//! `serve --ann` builds a zero-dependency IVF index over the item
//! embeddings (deterministic k-means coarse quantizer, rebuilt on every
//! hot reload) and serves `/recs` and `/similar` from the `--nprobe N`
//! (default 8) best cells instead of the full catalog — sub-linear
//! candidate generation with a measured recall guardrail in `/healthz`
//! (`ann_recall_ppm`) and the `serve.ann.recall_ppm` gauge. `--ann-cells C`
//! overrides the cell count (default ≈ √n_items). `--quant` composes: the
//! in-cell scan uses the int8 table, survivors get the exact f32 rescore.
//! Candidate sets are bitwise-identical at any `LRGCN_THREADS`.
//!
//! ## Overload control (DESIGN.md §14)
//!
//! `serve --max-inflight N` arms a bounded admission gate over the compute
//! routes (`/recs`, `/similar`, `/score`): at most N execute concurrently,
//! `--max-queue` more may wait, and everything beyond that is shed with a
//! prompt `503` + `Retry-After`. Clients can bound their wait with an
//! `x-lrgcn-deadline-ms` header (`--deadline-default-ms` sets a server
//! default); a request whose deadline passes while queued — or that
//! reaches the scoring kernel already doomed — is dropped early with the
//! same 503 surface. `--brownout` (requires `--slo-p99-ms`) additionally
//! steps the live read path down under sustained pressure: level 1 forces
//! the ANN index (pair with `--ann-standby`, which builds the index
//! without serving through it), level 2 halves the probe width and caps
//! `k`, level 3 serves stale cache entries and stops queueing. Recovery is
//! hysteretic; `lrgcn top` and `/admin/obs` show the level and shed rates.

use lrgcn::data::{kcore, loader, Dataset, InteractionLog, SplitRatios};
use lrgcn::eval::{evaluate_ranking_parallel, Split};
use lrgcn::graph::EdgePruner;
use lrgcn::models::{LayerGcn, LayerGcnConfig, ModelKind};
use lrgcn::train::{train_with_early_stopping, TrainConfig};
use lrgcn_bench::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod report;
pub mod retrain;
pub mod top;

/// Exit-style result: user-facing message on failure.
pub type CliResult = Result<(), String>;

/// Installs a panic hook that stamps the crash into the JSONL run log (when
/// one is armed) as a terminal `run_abort` record — run id and epoch from
/// the trainer's last progress note, plus the panic message — then flushes
/// the sink and delegates to the default hook. This is what lets
/// `lrgcn report` distinguish a crashed run from one that merely stopped.
pub fn install_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if lrgcn::obs::sink::enabled() {
            let (run, epoch) = lrgcn::obs::sink::last_progress().unwrap_or((0, 0));
            let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = info.payload().downcast_ref::<String>() {
                s.clone()
            } else {
                "panic".to_string()
            };
            lrgcn::obs::sink::emit(&lrgcn::obs::event::run_abort(run, epoch, &msg));
            // Uninstall to flush and drop the writer before the process
            // unwinds away.
            lrgcn::obs::sink::uninstall();
        }
        default_hook(info);
    }));
}

/// Dispatches a full command line (without argv[0]).
pub fn run(tokens: Vec<String>) -> CliResult {
    let Some((cmd, rest)) = tokens.split_first() else {
        return Err(usage());
    };
    let args = Args::from_tokens(rest.to_vec());
    if let Some(t) = args.get("threads") {
        let n: usize = t
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--threads wants a positive integer, got {t:?}"))?;
        lrgcn::tensor::par::set_threads(n);
    }
    if let Some(name) = args.get("kernel") {
        let k = lrgcn::tensor::kernels::Kernel::parse(name)
            .ok_or_else(|| format!("--kernel wants naive, blocked or simd, got {name:?}"))?;
        lrgcn::tensor::kernels::set_kernel(k);
    }
    // --log-json wins over the environment; either installs the global
    // JSONL sink for the duration of the process.
    let log_json = args.get("log-json").map(String::from).or_else(|| {
        std::env::var("LRGCN_LOG_JSON")
            .ok()
            .filter(|p| !p.is_empty())
    });
    if let Some(path) = log_json {
        lrgcn::obs::sink::install_file(&path)
            .map_err(|e| format!("opening --log-json {path}: {e}"))?;
    }
    // --trace wins over the environment, mirroring --log-json.
    let trace_path = args
        .get("trace")
        .map(String::from)
        .or_else(|| std::env::var("LRGCN_TRACE").ok().filter(|p| !p.is_empty()));
    if let Some(path) = trace_path {
        lrgcn::obs::trace::install_file(&path)
            .map_err(|e| format!("opening --trace {path}: {e}"))?;
    }
    let result = match cmd.as_str() {
        "stats" => cmd_stats(&args),
        "train" => cmd_train(&args),
        "evaluate" => cmd_evaluate(&args),
        "recommend" => cmd_recommend(&args),
        "serve" => cmd_serve(&args, rest),
        "retrain" => retrain::cmd_retrain(&args),
        "report" => report::cmd_report(rest),
        "top" => top::cmd_top(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    // Close the trace JSON array (no-op when tracing is not armed) so the
    // file is loadable even when the command failed.
    lrgcn::obs::trace::finish();
    result
}

fn usage() -> String {
    "usage: lrgcn <stats|train|evaluate|recommend> --input FILE [options]\n\
     \x20      lrgcn serve CKPT --input FILE [--port P] [--events-log DIR]\n\
     \x20      lrgcn retrain --input FILE --checkpoint BASE --follow DIR\n\
     \x20             [--epochs N] [--publish CKPT] [--reload http://HOST:PORT]\n\
     \x20      lrgcn report LOG.jsonl | report --diff A.jsonl B.jsonl\n\
     \x20      lrgcn top http://HOST:PORT [--interval SECS] [--once]\n\
     run `lrgcn help` or see the crate docs for the full option list"
        .to_string()
}

/// Loads the interaction log with optional k-core filtering.
pub fn load_log(args: &Args) -> Result<InteractionLog, String> {
    let path = args.get("input").ok_or("missing --input FILE")?;
    let log = loader::load_interactions(path).map_err(|e| format!("loading {path}: {e}"))?;
    let k: u32 = args.get_parsed("kcore", 0u32);
    Ok(if k > 1 { kcore::k_core(&log, k) } else { log })
}

/// Loads and chronologically splits the dataset.
pub fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let log = load_log(args)?;
    if log.is_empty() {
        return Err("no interactions left after filtering".into());
    }
    Ok(Dataset::chronological_split(
        args.get("input").unwrap_or("dataset"),
        &log,
        SplitRatios::default(),
    ))
}

fn cmd_stats(args: &Args) -> CliResult {
    let log = load_log(args)?;
    let s = lrgcn::data::DatasetStats::of(args.get("input").unwrap_or("dataset"), &log);
    println!("users         {:>12}", s.n_users);
    println!("items         {:>12}", s.n_items);
    println!("interactions  {:>12}", s.n_interactions);
    println!("sparsity      {:>11.4}%", s.sparsity_pct);
    println!("mean user deg {:>12.2}", s.mean_user_degree);
    println!("mean item deg {:>12.2}", s.mean_item_degree);
    let ds = Dataset::chronological_split("d", &log, SplitRatios::default());
    let (v, t) = ds.heldout_sizes();
    println!(
        "70/10/20 split: {} train edges, {} val, {} test interactions",
        ds.train().n_edges(),
        v,
        t
    );
    Ok(())
}

fn layergcn_config(args: &Args) -> LayerGcnConfig {
    let ratio: f32 = args.get_parsed("dropout", 0.1f32);
    LayerGcnConfig {
        n_layers: args.get_parsed("layers", 4usize),
        lambda: args.get_parsed("lambda", 1e-3f32),
        learning_rate: args.get_parsed("lr", 1e-3f32),
        pruner: if ratio > 0.0 {
            EdgePruner::DegreeDrop { ratio }
        } else {
            EdgePruner::None
        },
        ..LayerGcnConfig::default()
    }
}

fn train_config(args: &Args) -> TrainConfig {
    TrainConfig {
        max_epochs: args.get_parsed("epochs", 60usize),
        patience: args.get_parsed("patience", 10usize),
        eval_every: 2,
        criterion_k: 20,
        seed: args.get_parsed("seed", 2023u64),
        verbose: args.has_flag("verbose"),
        restore_best: true,
        // Diagnostics are also computed whenever a JSONL sink is armed;
        // this only forces them for plain console runs.
        record_diagnostics: false,
        ..Default::default()
    }
}

fn cmd_train(args: &Args) -> CliResult {
    let ds = load_dataset(args)?;
    let mut tc = train_config(args);
    tc.checkpoint_every = args.get_parsed("checkpoint-every", 0usize);
    tc.checkpoint = args.get("checkpoint").map(std::path::PathBuf::from);
    tc.resume = args.get("resume").map(std::path::PathBuf::from);
    // --checkpoint (and --resume, which reuses its base) imply per-epoch
    // checkpointing unless --checkpoint-every overrides the cadence; a
    // resumed run keeps writing generations to the base it resumed from.
    if (tc.checkpoint.is_some() || tc.resume.is_some()) && tc.checkpoint_every == 0 {
        tc.checkpoint_every = 1;
    }
    if tc.checkpoint_every > 0 && tc.checkpoint.is_none() && tc.resume.is_none() {
        return Err(
            "--checkpoint-every needs a generation base: add --checkpoint BASE \
             (or --resume BASE)"
                .into(),
        );
    }
    let model_name = args.get("model").unwrap_or("layergcn");
    println!(
        "training {model_name} on {} users / {} items / {} interactions",
        ds.n_users(),
        ds.n_items(),
        ds.train().n_edges()
    );
    if model_name.eq_ignore_ascii_case("layergcn") {
        tc.checkpoint_tag = Some("layergcn".to_string());
        let mut rng = StdRng::seed_from_u64(tc.seed);
        let mut model = LayerGcn::new(&ds, layergcn_config(args), &mut rng);
        let out = train_with_early_stopping(&mut model, &ds, &tc);
        println!(
            "done: {} epochs, best val R@20 {:.4} at epoch {}",
            out.epochs_run, out.best_val_metric, out.best_epoch
        );
        if let Some(path) = args.get("save") {
            model
                .save(path)
                .map_err(|e| format!("saving {path}: {e}"))?;
            println!("checkpoint written to {path}");
        }
    } else {
        let kind =
            ModelKind::parse(model_name).ok_or_else(|| format!("unknown model {model_name:?}"))?;
        // `ModelKind::checkpoint_tag` is the single source of truth for
        // which families have a stable format; `save_model` produces the
        // user-facing SERVABLE_TAGS error for the rest.
        tc.checkpoint_tag = kind.checkpoint_tag().map(String::from);
        let mut rng = StdRng::seed_from_u64(tc.seed);
        let mut model = kind.build(&ds, &mut rng);
        let out = train_with_early_stopping(&mut *model, &ds, &tc);
        println!(
            "done: {} epochs, best val R@20 {:.4} at epoch {}",
            out.epochs_run, out.best_val_metric, out.best_epoch
        );
        if let Some(path) = args.get("save") {
            let tag = kind.checkpoint_tag().unwrap_or("unsupported");
            lrgcn::models::checkpoint::save_model(path, tag, &*model)
                .map_err(|e| format!("--save: {e}"))?;
            println!("checkpoint written to {path}");
        }
    }
    Ok(())
}

/// Engine options mirroring `layergcn_config`: the checkpoint carries the
/// embedding dimension, everything else comes from the flags. `--quant`
/// opts into the int8 read path and `--ann` into the IVF index (they
/// compose); `--exact` (the default) names the full exact scan explicitly,
/// so pairing it with either approximation is an error.
fn engine_options(args: &Args) -> Result<lrgcn_serve::EngineOptions, String> {
    if args.has_flag("quant") && args.has_flag("exact") {
        return Err("--quant and --exact are mutually exclusive".into());
    }
    if args.has_flag("ann") && args.has_flag("exact") {
        return Err("--ann and --exact are mutually exclusive".into());
    }
    if args.has_flag("ann") && args.has_flag("ann-standby") {
        return Err("--ann already serves from the index; drop --ann-standby".into());
    }
    let nprobe = args.get_parsed("nprobe", lrgcn_serve::IvfConfig::default().nprobe);
    if nprobe == 0 {
        return Err("--nprobe must be at least 1".into());
    }
    let ann_built = args.has_flag("ann") || args.has_flag("ann-standby");
    if !ann_built && (args.get("nprobe").is_some() || args.get("ann-cells").is_some()) {
        return Err("--nprobe/--ann-cells only make sense with --ann/--ann-standby".into());
    }
    Ok(lrgcn_serve::EngineOptions {
        n_layers: args.get_parsed("layers", 4usize),
        dropout: args.get_parsed("dropout", 0.1f32),
        seed: args.get_parsed("seed", 2023u64),
        quant: args.has_flag("quant"),
        ann: args.has_flag("ann"),
        ann_standby: args.has_flag("ann-standby"),
        nprobe,
        ann_cells: args.get_parsed("ann-cells", 0usize),
        events_dir: args.get("events-log").map(std::path::PathBuf::from),
    })
}

fn cmd_evaluate(args: &Args) -> CliResult {
    let ds = std::sync::Arc::new(load_dataset(args)?);
    let path = args.get("load").ok_or("missing --load CHECKPOINT")?;
    let engine = lrgcn_serve::Engine::open(path, ds.clone(), engine_options(args)?)?;
    let st = engine.state();
    let ks: Vec<usize> = args
        .get("ks")
        .unwrap_or("10,20,50")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad K {s:?}")))
        .collect::<Result<_, _>>()?;
    let scorer = |u: &[u32]| st.score_users(u);
    let rep = evaluate_ranking_parallel(&ds, Split::Test, &ks, 256, &scorer);
    println!("model: {} (dim {})", st.model_name, st.dim);
    println!("test users: {}", rep.n_users);
    println!("{}", rep.summary());
    Ok(())
}

/// Parses `--exclude-seen true|false` (absent or bare flag means true).
fn exclude_seen_flag(args: &Args) -> Result<bool, String> {
    match args.get("exclude-seen") {
        None => Ok(true),
        Some("true") | Some("1") => Ok(true),
        Some("false") | Some("0") => Ok(false),
        Some(other) => Err(format!("--exclude-seen wants true or false, got {other:?}")),
    }
}

fn cmd_recommend(args: &Args) -> CliResult {
    let ds = std::sync::Arc::new(load_dataset(args)?);
    let path = args.get("load").ok_or("missing --load CHECKPOINT")?;
    let user: u32 = args
        .get("user")
        .ok_or("missing --user ID")?
        .parse()
        .map_err(|_| "bad --user id")?;
    let k: usize = args.get_parsed("k", 10usize);
    let exclude_seen = exclude_seen_flag(args)?;
    let engine = lrgcn_serve::Engine::open(path, ds.clone(), engine_options(args)?)?;
    let st = engine.state();
    let top = st.top_k(&ds, user, k, exclude_seen)?;
    println!(
        "top-{k} items for user {user} ({}, trained on {} items{}):",
        st.model_name,
        ds.train_items(user).len(),
        if exclude_seen { ", seen items masked" } else { "" }
    );
    for (rank, (item, score)) in top.iter().enumerate() {
        println!("{:>3}. item {:<8} score {score:.6}", rank + 1, item);
    }
    Ok(())
}

fn cmd_serve(args: &Args, rest: &[String]) -> CliResult {
    let ckpt = rest
        .first()
        .filter(|t| !t.starts_with("--"))
        .map(String::as_str)
        .or_else(|| args.get("load"))
        .ok_or("missing checkpoint: lrgcn serve CKPT --input FILE (or --load CKPT)")?;
    let ds = std::sync::Arc::new(load_dataset(args)?);
    let engine = std::sync::Arc::new(lrgcn_serve::Engine::open(
        ckpt,
        ds,
        engine_options(args)?,
    )?);
    let st = engine.state();
    let cfg = lrgcn_serve::ServerConfig {
        addr: format!(
            "{}:{}",
            args.get("host").unwrap_or("127.0.0.1"),
            args.get_parsed("port", 8642u16)
        ),
        workers: args.get_parsed("workers", 0usize),
        cache_capacity: args.get_parsed("cache", 4096usize),
        access_log: args.get("access-log").map(std::path::PathBuf::from),
        access_sample: args.get_parsed("access-sample", 1u64).max(1),
        slo_p99_ms: args.get("slo-p99-ms").map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("could not parse --slo-p99-ms {v}"))
        }),
        slo_err_ppm: args.get("slo-err-ppm").map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("could not parse --slo-err-ppm {v}"))
        }),
        events_log: args.get("events-log").map(std::path::PathBuf::from),
        events_max_pending: args.get_parsed("events-max-pending", 1024u64).max(1),
        max_inflight: args.get_parsed("max-inflight", 0usize),
        max_queue: args.get_parsed("max-queue", 32usize),
        deadline_default_ms: args.get_parsed("deadline-default-ms", 0u64),
        brownout: args.has_flag("brownout"),
        brownout_up_ticks: args.get_parsed("brownout-up-ticks", 3u32).max(1),
        brownout_down_ticks: args.get_parsed("brownout-down-ticks", 10u32).max(1),
        ..lrgcn_serve::ServerConfig::default()
    };
    let handle = lrgcn_serve::serve(engine, cfg)?;
    println!(
        "serving {} — {} users x {} items, dim {}, {} parameters",
        st.model_name, st.n_users, st.n_items, st.dim, st.n_parameters
    );
    if st.ann_available() {
        println!(
            "ann{}: {} IVF cells, nprobe {}, sampled recall@20 {:.4}",
            if st.ann_enabled() { "" } else { " (standby)" },
            st.ann_cells(),
            st.ann_nprobe(),
            st.ann_recall
        );
    }
    if args.get_parsed("max-inflight", 0usize) > 0 {
        println!(
            "admission control on: max {} in flight, queue {}, default deadline {}",
            args.get_parsed("max-inflight", 0usize),
            args.get_parsed("max-queue", 32usize),
            match args.get_parsed("deadline-default-ms", 0u64) {
                0 => "none".to_string(),
                ms => format!("{ms}ms"),
            }
        );
    }
    if args.has_flag("brownout") {
        println!("brownout control armed (watch /admin/obs overload.level)");
    }
    if let Some(dir) = args.get("events-log") {
        println!(
            "streaming ingestion on: POST /events appends to {dir} \
             ({} covered by the checkpoint)",
            st.covered_events
        );
    }
    println!("listening on http://{}", handle.addr());
    println!("POST /admin/shutdown to stop");
    handle.wait();
    println!("shutdown complete");
    Ok(())
}

/// Fixture helpers shared by this crate's test modules (`tests` below and
/// `retrain::tests`).
#[cfg(test)]
pub(crate) mod tests_support {
    use lrgcn::data::{loader, SyntheticConfig};

    pub(crate) fn write_fixture(dir: &std::path::Path) -> std::path::PathBuf {
        std::fs::create_dir_all(dir).expect("mkdir");
        let path = dir.join("interactions.tsv");
        let log = SyntheticConfig::games().scaled(0.1).generate(13);
        loader::save_interactions(&path, &log).expect("write tsv");
        path
    }

    pub(crate) fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Held by every test that trains: the `--log-json` sink is
    /// process-global, so a run beside an armed one writes its records
    /// into the other's log. (A poisoned lock just means such a test
    /// already failed.)
    pub(crate) fn train_lock() -> std::sync::MutexGuard<'static, ()> {
        static TRAINING: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TRAINING.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tests_support::{argv, train_lock, write_fixture};

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run(argv("frobnicate")).expect_err("must fail");
        assert!(err.contains("unknown command"));
        assert!(run(vec![]).is_err());
        assert!(run(argv("help")).is_ok());
    }

    #[test]
    fn stats_runs_on_fixture() {
        let dir = std::env::temp_dir().join("lrgcn_cli_stats");
        let path = write_fixture(&dir);
        run(argv(&format!("stats --input {}", path.display()))).expect("stats");
        run(argv(&format!("stats --input {} --kcore 2", path.display()))).expect("stats kcore");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_evaluate_recommend_roundtrip() {
        let _training = train_lock();
        let dir = std::env::temp_dir().join("lrgcn_cli_roundtrip");
        let path = write_fixture(&dir);
        let ckpt = dir.join("model.ckpt");
        run(argv(&format!(
            "train --input {} --save {} --epochs 3 --seed 5",
            path.display(),
            ckpt.display()
        )))
        .expect("train");
        assert!(ckpt.exists());
        run(argv(&format!(
            "evaluate --input {} --load {} --ks 10,20 --seed 5",
            path.display(),
            ckpt.display()
        )))
        .expect("evaluate");
        run(argv(&format!(
            "recommend --input {} --load {} --user 0 --k 5 --seed 5",
            path.display(),
            ckpt.display()
        )))
        .expect("recommend");
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_other_models_and_save_support() {
        let _training = train_lock();
        let dir = std::env::temp_dir().join("lrgcn_cli_other");
        let path = write_fixture(&dir);
        run(argv(&format!(
            "train --input {} --model lightgcn --epochs 2",
            path.display()
        )))
        .expect("train lightgcn");
        // Models without a stable checkpoint format still reject --save.
        let err = run(argv(&format!(
            "train --input {} --model bpr --epochs 1 --save /tmp/x.ckpt",
            path.display()
        )))
        .expect_err("save unsupported");
        assert!(err.contains("--save"), "{err}");
        let err2 = run(argv(&format!(
            "train --input {} --model doesnotexist",
            path.display()
        )))
        .expect_err("unknown model");
        assert!(err2.contains("unknown model"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lightgcn_save_evaluate_recommend_roundtrip() {
        let _training = train_lock();
        let dir = std::env::temp_dir().join("lrgcn_cli_lightgcn_ckpt");
        let path = write_fixture(&dir);
        let ckpt = dir.join("lightgcn.ckpt");
        run(argv(&format!(
            "train --input {} --model lightgcn --epochs 2 --seed 5 --save {}",
            path.display(),
            ckpt.display()
        )))
        .expect("train lightgcn with --save");
        assert!(ckpt.exists());
        // evaluate/recommend pick the model family up from the tag.
        run(argv(&format!(
            "evaluate --input {} --load {} --ks 10 --seed 5",
            path.display(),
            ckpt.display()
        )))
        .expect("evaluate lightgcn checkpoint");
        run(argv(&format!(
            "recommend --input {} --load {} --user 0 --k 5 --seed 5",
            path.display(),
            ckpt.display()
        )))
        .expect("recommend lightgcn checkpoint");
        // --exclude-seen is validated.
        run(argv(&format!(
            "recommend --input {} --load {} --user 0 --exclude-seen false",
            path.display(),
            ckpt.display()
        )))
        .expect("recommend unmasked");
        let err = run(argv(&format!(
            "recommend --input {} --load {} --user 0 --exclude-seen maybe",
            path.display(),
            ckpt.display()
        )))
        .expect_err("bad flag value");
        assert!(err.contains("exclude-seen"), "{err}");
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lrgccf_save_evaluate_roundtrip() {
        let _training = train_lock();
        let dir = std::env::temp_dir().join("lrgcn_cli_lrgccf_ckpt");
        let path = write_fixture(&dir);
        let ckpt = dir.join("lrgccf.ckpt");
        run(argv(&format!(
            "train --input {} --model lrgccf --epochs 2 --seed 5 --save {}",
            path.display(),
            ckpt.display()
        )))
        .expect("train lrgccf with --save");
        assert!(ckpt.exists());
        let entries = lrgcn::tensor::io::load_checkpoint(&ckpt).expect("load");
        assert_eq!(lrgcn::models::model_tag(&entries), Some("lrgccf"));
        run(argv(&format!(
            "evaluate --input {} --load {} --ks 10 --seed 5 --layers 3",
            path.display(),
            ckpt.display()
        )))
        .expect("evaluate lrgccf checkpoint");
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_and_resume_flags_roundtrip() {
        let _training = train_lock();
        let dir = std::env::temp_dir().join("lrgcn_cli_ckpt_resume");
        std::fs::remove_dir_all(&dir).ok();
        let path = write_fixture(&dir);
        let base = dir.join("train.ckpt");
        run(argv(&format!(
            "train --input {} --epochs 4 --seed 5 --checkpoint {} --checkpoint-every 2",
            path.display(),
            base.display()
        )))
        .expect("train with checkpointing");
        let gens = lrgcn::train::resume::list_generations(&base);
        assert!(!gens.is_empty(), "no generations written");
        assert!(gens.len() <= 2, "pruning keeps at most two generations");
        // A generation doubles as a servable model checkpoint.
        run(argv(&format!(
            "evaluate --input {} --load {} --ks 10 --seed 5",
            path.display(),
            gens[0].1.display()
        )))
        .expect("evaluate a training-state generation");
        // Resume continues past the checkpointed epoch.
        run(argv(&format!(
            "train --input {} --epochs 6 --seed 5 --resume {}",
            path.display(),
            base.display()
        )))
        .expect("resume");
        let after = lrgcn::train::resume::list_generations(&base);
        assert!(
            after[0].0 > gens[0].0,
            "resume did not advance the newest generation ({} -> {})",
            gens[0].0,
            after[0].0
        );
        // --checkpoint-every without any base path is a user error.
        let err = run(argv(&format!(
            "train --input {} --epochs 1 --checkpoint-every 2",
            path.display()
        )))
        .expect_err("missing base");
        assert!(err.contains("--checkpoint"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommend_validates_user_range() {
        let _training = train_lock();
        let dir = std::env::temp_dir().join("lrgcn_cli_range");
        let path = write_fixture(&dir);
        let ckpt = dir.join("m.ckpt");
        run(argv(&format!(
            "train --input {} --save {} --epochs 1",
            path.display(),
            ckpt.display()
        )))
        .expect("train");
        let err = run(argv(&format!(
            "recommend --input {} --load {} --user 999999",
            path.display(),
            ckpt.display()
        )))
        .expect_err("out of range");
        assert!(err.contains("out of range"));
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn log_json_produces_parseable_epoch_records() {
        let _training = train_lock();
        use lrgcn::obs::{json, sink};
        let dir = std::env::temp_dir().join("lrgcn_cli_logjson");
        let path = write_fixture(&dir);
        let log_path = dir.join("run.jsonl");
        std::fs::remove_file(&log_path).ok();
        run(argv(&format!(
            "train --input {} --epochs 3 --seed 5 --log-json {}",
            path.display(),
            log_path.display()
        )))
        .expect("train with --log-json");
        // Uninstall before reading so the file is complete and flushed
        // (and before the lock drops, so no later run writes into it).
        sink::uninstall();

        let text = std::fs::read_to_string(&log_path).expect("log file written");
        let mut epochs = 0;
        let mut diags = 0;
        let mut saw_start = false;
        let mut saw_summary = false;
        for line in text.lines() {
            let v = json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            match v.get("event").and_then(|e| e.as_str()) {
                Some("run_start") => saw_start = true,
                Some("run_summary") => saw_summary = true,
                Some("diag") => {
                    diags += 1;
                    let model = v.get("model").and_then(|m| m.as_str()).expect("model name");
                    assert!(model.starts_with("LayerGCN"), "unexpected model {model:?}");
                    for key in ["smoothness", "embedding_l2", "grad_norm", "layer_weights"] {
                        assert!(v.get(key).is_some(), "diag record missing {key}: {line}");
                    }
                }
                Some("epoch") => {
                    epochs += 1;
                    assert!(v.get("loss").and_then(|l| l.as_f64()).is_some());
                    let t = v.get("timings_s").expect("timings");
                    assert!(t.get("train").and_then(|x| x.as_f64()).unwrap() >= 0.0);
                    let c = v.get("counters").expect("counters");
                    assert!(
                        c.get("tensor.spmm.calls").and_then(|x| x.as_f64()).unwrap() > 0.0,
                        "layergcn epoch must run SpMM kernels"
                    );
                    assert!(v.get("threads").and_then(|x| x.as_f64()).unwrap() >= 1.0);
                    assert!(v.get("matrix_bytes_peak").and_then(|x| x.as_f64()).unwrap() > 0.0);
                }
                other => panic!("unknown event {other:?} in {line:?}"),
            }
        }
        assert!(saw_start && saw_summary, "missing run_start/run_summary");
        assert!(epochs >= 3, "expected >= 3 epoch records, got {epochs}");
        assert!(diags >= 1, "expected diag records for validated epochs");
        std::fs::remove_file(&log_path).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_input_is_a_clear_error() {
        let err = run(argv("stats")).expect_err("must fail");
        assert!(err.contains("--input"));
        let err2 = run(argv("evaluate --input /nonexistent/file.tsv --load x")).expect_err("fail");
        assert!(err2.contains("loading"));
    }
}
