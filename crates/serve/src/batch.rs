//! Micro-batching queue for `/score` requests.
//!
//! Concurrent scoring requests are coalesced: each request parks its
//! `(user, item)` pairs in a shared queue and blocks on a private reply
//! channel; a single scorer thread wakes on the queue's condvar, waits one
//! short tick so neighbours can pile in, then drains *everything* and runs
//! one coalesced scoring kernel over the concatenated pairs against one
//! engine-state snapshot. Results are split back out per request in
//! submission order.
//!
//! Because the whole batch scores against a single `Arc<EngineState>`
//! snapshot, a reload landing mid-tick cannot tear a batch: every pair in
//! it is answered from the same generation.

use crate::engine::Engine;
use lrgcn_obs::{registry, timer, Counter, Hist};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct Pending {
    pairs: Vec<(u32, u32)>,
    reply: mpsc::Sender<Result<Vec<f32>, String>>,
}

struct Queue {
    pending: Vec<Pending>,
    shutdown: bool,
}

/// The shared queue handle. Clone the `Arc` into every worker.
pub struct Batcher {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// How long the scorer lingers after the first arrival to coalesce
    /// concurrent requests into one kernel call.
    tick: Duration,
}

impl Batcher {
    pub fn new(tick: Duration) -> Arc<Batcher> {
        Arc::new(Batcher {
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            tick,
        })
    }

    /// Enqueues one request's pairs and blocks until the scorer answers.
    pub fn submit(&self, pairs: Vec<(u32, u32)>) -> Result<Vec<f32>, String> {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.queue.lock().expect("batch queue poisoned");
            if q.shutdown {
                return Err("server is shutting down".into());
            }
            q.pending.push(Pending { pairs, reply: tx });
        }
        self.wake.notify_one();
        rx.recv().map_err(|_| "scorer thread gone".to_string())?
    }

    /// Wakes the scorer for the last time; queued requests still drain.
    pub fn shutdown(&self) {
        self.queue.lock().expect("batch queue poisoned").shutdown = true;
        self.wake.notify_all();
    }

    /// The scorer loop. Runs until [`Batcher::shutdown`] *and* the queue is
    /// empty, so no accepted request is ever dropped.
    pub fn run_scorer(self: &Arc<Self>, engine: Arc<Engine>) {
        loop {
            let batch = {
                let mut q = self.queue.lock().expect("batch queue poisoned");
                while q.pending.is_empty() && !q.shutdown {
                    q = self
                        .wake
                        .wait(q)
                        .expect("batch queue poisoned");
                }
                if q.pending.is_empty() {
                    return; // shutdown with a drained queue
                }
                // Linger one tick so concurrent submitters join this batch.
                if !q.shutdown && !self.tick.is_zero() {
                    let (nq, _) = self
                        .wake
                        .wait_timeout(q, self.tick)
                        .expect("batch queue poisoned");
                    q = nq;
                }
                std::mem::take(&mut q.pending)
            };
            self.score_batch(&engine, batch);
        }
    }

    fn score_batch(&self, engine: &Arc<Engine>, batch: Vec<Pending>) {
        let _t = timer::scoped(Hist::ServeScoreBatch);
        let _span = lrgcn_obs::trace::span("serve_score_batch", "serve");
        let all: Vec<(u32, u32)> = batch.iter().flat_map(|p| p.pairs.iter().copied()).collect();
        registry::add(Counter::ServeScoreBatches, 1);
        registry::add(Counter::ServeScorePairs, all.len() as u64);
        // One snapshot, one kernel call for the whole tick.
        let state = engine.state();
        match state.score_pairs(&all) {
            Ok(scores) => {
                let mut off = 0;
                for p in batch {
                    let n = p.pairs.len();
                    let _ = p.reply.send(Ok(scores[off..off + n].to_vec()));
                    off += n;
                }
            }
            Err(_) => {
                // One bad id poisons only the requests that contain bad
                // ids; well-formed neighbours are re-scored individually.
                for p in batch {
                    let _ = p.reply.send(state.score_pairs(&p.pairs));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use lrgcn_data::Dataset;
    use lrgcn_models::checkpoint::save_model;
    use lrgcn_models::{LightGcn, LightGcnConfig, Recommender};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Held by every test that scores through a batcher: they all feed the
    /// process-wide `ServeScorePairs` counter, whose exact delta one test
    /// asserts.
    static SCORER: Mutex<()> = Mutex::new(());

    /// One directory per test: `save_model` stages to `m.ckpt.tmp` and
    /// renames, so two tests saving to one path race on the rename.
    fn engine(test: &str) -> Arc<Engine> {
        let ds = Arc::new(Dataset::from_parts(
            "tiny",
            3,
            4,
            vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)],
            vec![vec![]; 3],
            vec![vec![2], vec![3], vec![0]],
        ));
        let dir = std::env::temp_dir().join(format!("lrgcn_batch_test_{test}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = LightGcn::new(
            &ds,
            LightGcnConfig {
                embedding_dim: 4,
                n_layers: 1,
                ..LightGcnConfig::default()
            },
            &mut rng,
        );
        m.train_epoch(&ds, 0, &mut rng);
        save_model(&ckpt, "lightgcn", &m).expect("save");
        Arc::new(
            Engine::open(&ckpt, ds, EngineOptions {
                n_layers: 1,
                ..EngineOptions::default()
            })
            .expect("open"),
        )
    }

    #[test]
    fn concurrent_submissions_coalesce_and_all_answer() {
        let _serial = SCORER.lock().unwrap_or_else(|e| e.into_inner());
        let eng = engine("coalesce");
        let batcher = Batcher::new(Duration::from_millis(2));
        let scorer = {
            let b = batcher.clone();
            let e = eng.clone();
            std::thread::spawn(move || b.run_scorer(e))
        };
        let expect = eng.state().score_pairs(&[(0, 0), (1, 2), (2, 3)]).unwrap();

        let before = lrgcn_obs::registry::get(Counter::ServeScorePairs);
        let handles: Vec<_> = [(0u32, 0u32), (1, 2), (2, 3)]
            .into_iter()
            .map(|pair| {
                let b = batcher.clone();
                std::thread::spawn(move || b.submit(vec![pair]).expect("scored"))
            })
            .collect();
        let got: Vec<f32> = handles
            .into_iter()
            .map(|h| h.join().expect("join")[0])
            .collect();
        assert_eq!(got, expect);
        assert_eq!(
            lrgcn_obs::registry::get(Counter::ServeScorePairs) - before,
            3
        );

        batcher.shutdown();
        scorer.join().expect("scorer joins");
        assert!(batcher.submit(vec![(0, 0)]).is_err(), "post-shutdown submit");
    }

    #[test]
    fn bad_ids_fail_their_request_without_poisoning_neighbours() {
        let _serial = SCORER.lock().unwrap_or_else(|e| e.into_inner());
        let eng = engine("bad_ids");
        let batcher = Batcher::new(Duration::from_millis(5));
        let scorer = {
            let b = batcher.clone();
            let e = eng.clone();
            std::thread::spawn(move || b.run_scorer(e))
        };
        let good = {
            let b = batcher.clone();
            std::thread::spawn(move || b.submit(vec![(0, 1)]))
        };
        let bad = {
            let b = batcher.clone();
            std::thread::spawn(move || b.submit(vec![(99, 0)]))
        };
        assert!(good.join().expect("join").is_ok());
        assert!(bad.join().expect("join").is_err());
        batcher.shutdown();
        scorer.join().expect("scorer joins");
    }
}
