//! `lrgcn retrain` — the incremental half of the closed streaming loop
//! (DESIGN.md §13).
//!
//! ```text
//! lrgcn retrain --input FILE --checkpoint BASE --follow DIR
//!               [--epochs N] [--min-new N] [--rounds N --interval-ms MS]
//!               [--publish CKPT] [--reload http://HOST:PORT]
//! ```
//!
//! One round folds the crash-safe event log under `--follow DIR` (written
//! by `serve --events-log DIR`) into the training matrices, warm-starts
//! LayerGCN from the newest `--checkpoint BASE` generation, trains a few
//! epochs (`--epochs`, default 3) and emits a **new** generation stamped
//! with the covered-event count (`lrgcn_stream::COVERED_ENTRY`), so a
//! serving engine that reloads it replays only the uncovered log suffix as
//! fold-in deltas. The generation number advances past the previous one —
//! `list_generations` ordering and the keep-2 pruning both keep working.
//!
//! `--publish CKPT` atomically copies the fresh generation over the file a
//! running server was opened with (tmp + fsync + rename — the server never
//! observes a torn checkpoint), and `--reload URL` then POSTs
//! `/admin/reload` so the swap happens with zero dropped requests. With
//! `--rounds 0` the command follows the log forever, sleeping
//! `--interval-ms` (default 1000) between rounds; the default is one round.
//!
//! Warm start copies the previous generation's user rows into the (index
//! shifted) extended universe and keeps the fresh initialization for
//! users/items first seen in the stream — see
//! [`lrgcn::models::LayerGcn::warm_start_from`].

use crate::CliResult;
use lrgcn::data::Dataset;
use lrgcn::models::{LayerGcn, Recommender};
use lrgcn::train::resume::{load_latest_valid, save_generation_with_extras, TrainState};
use lrgcn::train::train_with_early_stopping;
use lrgcn_bench::Args;
use lrgcn_stream::{pack_covered, unpack_covered, EventLog, COVERED_ENTRY};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub fn cmd_retrain(args: &Args) -> CliResult {
    let base_ds = crate::load_dataset(args)?;
    let ckpt_base = PathBuf::from(
        args.get("checkpoint")
            .ok_or("missing --checkpoint BASE (the generation base written by `train --checkpoint`)")?,
    );
    let log_dir = PathBuf::from(
        args.get("follow")
            .ok_or("missing --follow DIR (the directory passed to `serve --events-log`)")?,
    );
    let epochs: usize = args.get_parsed("epochs", 3usize).max(1);
    let min_new: u64 = args.get_parsed("min-new", 1u64).max(1);
    // 0 = follow forever; the default is a single one-shot round.
    let rounds: usize = args.get_parsed("rounds", 1usize);
    let interval = Duration::from_millis(args.get_parsed("interval-ms", 1000u64));
    let publish = args.get("publish").map(PathBuf::from);
    let reload_url = args.get("reload").map(String::from);

    let mut round = 0usize;
    loop {
        round += 1;
        match retrain_round(args, &base_ds, &ckpt_base, &log_dir, epochs, min_new)? {
            Some(gen_path) => {
                if let Some(dst) = &publish {
                    publish_checkpoint(&gen_path, dst)?;
                    println!("published {} -> {}", gen_path.display(), dst.display());
                }
                if let Some(url) = &reload_url {
                    println!("reload {url}: {}", trigger_reload(url)?);
                }
            }
            None => println!(
                "round {round}: event log fully covered (< {min_new} new) — nothing to retrain"
            ),
        }
        if rounds != 0 && round >= rounds {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// One fold-in + warm-start-train + emit cycle. `Ok(None)` when the log
/// holds fewer than `min_new` events past the newest generation's covered
/// prefix.
fn retrain_round(
    args: &Args,
    base_ds: &Dataset,
    base: &Path,
    log_dir: &Path,
    epochs: usize,
    min_new: u64,
) -> Result<Option<PathBuf>, String> {
    let events = EventLog::replay(log_dir)?;
    let total = events.len() as u64;
    let (prev_path, entries, prev_state) = load_latest_valid(base)?.ok_or_else(|| {
        format!(
            "{}: no checkpoint generation found — run `lrgcn train --checkpoint {}` first",
            base.display(),
            base.display()
        )
    })?;
    match lrgcn::models::model_tag(&entries) {
        Some("layergcn") | None => {}
        Some(other) => {
            return Err(format!(
                "retrain only supports layergcn generations, {} is tagged {other:?}",
                prev_path.display()
            ))
        }
    }
    // A generation from the future of a truncated/reset log covers at most
    // what the log actually holds.
    let prev_covered = unpack_covered(&entries).min(total);
    if total.saturating_sub(prev_covered) < min_new {
        return Ok(None);
    }

    // The universe the previous generation was fit on: base + its covered
    // prefix, replayed in log order (the same rule the serving engine
    // applies, so the row layout matches the checkpoint exactly).
    let pairs: Vec<(u32, u32)> = events.iter().map(|e| (e.user, e.item)).collect();
    let prev_ds = base_ds.extend_with_events(&pairs[..prev_covered as usize]);
    let prev_ego = entries
        .iter()
        .find(|(n, _)| n == "ego")
        .map(|(_, m)| m.clone())
        .ok_or("checkpoint generation has no 'ego' embedding table")?;
    if prev_ego.rows() != prev_ds.n_users() + prev_ds.n_items() {
        return Err(format!(
            "{}: ego has {} rows but its universe (base + {} covered events) \
             wants {} — was the log or --input changed since it was written?",
            prev_path.display(),
            prev_ego.rows(),
            prev_covered,
            prev_ds.n_users() + prev_ds.n_items()
        ));
    }

    let extended = base_ds.extend_with_events(&pairs);
    println!(
        "retraining on {} users x {} items ({} log events, {} new since {}), {epochs} epochs",
        extended.n_users(),
        extended.n_items(),
        total,
        total - prev_covered,
        prev_path.display()
    );
    let mut tc = crate::train_config(args);
    tc.max_epochs = epochs;
    tc.patience = epochs; // a few warm-start epochs never early-stop
    tc.checkpoint_tag = Some("layergcn".to_string());
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let mut model = LayerGcn::new(&extended, crate::layergcn_config(args), &mut rng);
    model.warm_start_from(&prev_ego, prev_ds.n_users(), extended.n_users());
    let out = train_with_early_stopping(&mut model, &extended, &tc);
    println!(
        "done: {} epochs, best val R@20 {:.4} at epoch {}",
        out.epochs_run, out.best_val_metric, out.best_epoch
    );

    // The generation number must advance past the previous one so
    // `list_generations` (and the next retrain round) picks the new file.
    let state = TrainState {
        epoch_next: prev_state.epoch_next + out.epochs_run.max(1),
        strikes: 0,
        best: Some((out.best_epoch, out.best_val_metric)),
        best_params: None,
        rng_state: rng.state(),
        optim: model
            .optim_state()
            .ok_or("layergcn lost its optimizer state")?,
        history: out.history,
        recoveries: 0,
    };
    let path = save_generation_with_extras(
        base,
        Some("layergcn"),
        &model,
        &state,
        &[(COVERED_ENTRY.to_string(), pack_covered(total))],
    )?;
    println!("generation written to {} (covers {total} events)", path.display());
    Ok(Some(path))
}

/// Atomically replaces `dst` with a byte-for-byte copy of the generation:
/// write to a sibling tmp file, fsync, rename. A serving engine re-reading
/// `dst` mid-publish sees either the old or the new checkpoint, never a
/// torn one.
fn publish_checkpoint(src: &Path, dst: &Path) -> Result<(), String> {
    let bytes = std::fs::read(src).map_err(|e| format!("reading {}: {e}", src.display()))?;
    let tmp = dst.with_extension("publish.tmp");
    {
        let mut f =
            std::fs::File::create(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
        f.write_all(&bytes)
            .and_then(|()| f.sync_all())
            .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    }
    std::fs::rename(&tmp, dst).map_err(|e| format!("renaming over {}: {e}", dst.display()))
}

/// POSTs `/admin/reload` to a running server; returns its response body.
fn trigger_reload(url: &str) -> Result<String, String> {
    let (host, port) = crate::top::parse_url(url)?;
    let mut stream = TcpStream::connect((host.as_str(), port))
        .map_err(|e| format!("connect {host}:{port}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!(
                "POST /admin/reload HTTP/1.1\r\nHost: {host}\r\n\
                 Content-Length: 0\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("malformed HTTP response")?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    if status != 200 {
        return Err(format!("/admin/reload returned {status}: {body}"));
    }
    Ok(body.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{argv, train_lock, write_fixture};
    use lrgcn_stream::StreamEvent;

    /// The full offline half of the loop: train a base generation, append
    /// events for unseen users to a log, retrain, and check the emitted
    /// generation covers them and serves the new users.
    #[test]
    fn retrain_folds_the_log_and_advances_the_generation() {
        let _training = train_lock();
        let dir = std::env::temp_dir().join("lrgcn_cli_retrain");
        std::fs::remove_dir_all(&dir).ok();
        let input = write_fixture(&dir);
        let base = dir.join("gen.ckpt");
        crate::run(argv(&format!(
            "train --input {} --epochs 2 --seed 5 --checkpoint {}",
            input.display(),
            base.display()
        )))
        .expect("seed train");
        let gens = lrgcn::train::resume::list_generations(&base);
        let first_gen = gens[0].0;

        // No log at all: a round is a covered no-op, not an error.
        let log_dir = dir.join("events");
        crate::run(argv(&format!(
            "retrain --input {} --checkpoint {} --follow {} --epochs 1 --seed 5",
            input.display(),
            base.display(),
            log_dir.display()
        )))
        .expect("covered no-op round");
        assert_eq!(
            lrgcn::train::resume::list_generations(&base)[0].0,
            first_gen,
            "a no-op round must not write a generation"
        );

        // Events for one unseen user (id past the fixture's universe).
        let ds = crate::load_dataset(&Args::from_tokens(argv(&format!(
            "--input {}",
            input.display()
        ))))
        .expect("dataset");
        let new_user = ds.n_users() as u32;
        let mut log = EventLog::open(&log_dir).expect("open log");
        let events: Vec<StreamEvent> = (0..4)
            .map(|i| StreamEvent {
                user: new_user,
                item: i,
                timestamp: 1_700_000_000 + i as i64,
                client: "t".into(),
                seq: i as u64 + 1,
                request_id: String::new(),
            })
            .collect();
        log.append_batch(&events).expect("append");
        drop(log);

        let publish = dir.join("live.ckpt");
        crate::run(argv(&format!(
            "retrain --input {} --checkpoint {} --follow {} --epochs 1 --seed 5 --publish {}",
            input.display(),
            base.display(),
            log_dir.display(),
            publish.display()
        )))
        .expect("retrain");
        let after = lrgcn::train::resume::list_generations(&base);
        assert!(
            after[0].0 > first_gen,
            "retrain must advance the generation ({} -> {})",
            first_gen,
            after[0].0
        );
        let entries = lrgcn::tensor::io::load_checkpoint(&after[0].1).expect("load gen");
        assert_eq!(unpack_covered(&entries), 4, "covered marker missing");
        // The published copy is byte-identical to the generation.
        assert_eq!(
            std::fs::read(&after[0].1).expect("gen bytes"),
            std::fs::read(&publish).expect("published bytes")
        );
        // And the retrained checkpoint genuinely serves the streamed user:
        // its covered prefix extends the dataset, so /recs needs no delta.
        let engine = lrgcn_serve::Engine::open(
            &publish,
            std::sync::Arc::new(ds),
            lrgcn_serve::EngineOptions {
                events_dir: Some(log_dir.clone()),
                ..Default::default()
            },
        )
        .expect("open retrained");
        let st = engine.state();
        assert_eq!(st.covered_events, 4);
        let mut scratch = lrgcn_serve::Scratch::default();
        let top = st
            .top_k_stream(&st.delta(), new_user, 3, true, &mut scratch)
            .expect("recs for streamed user");
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|(_, s)| s.is_finite()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
