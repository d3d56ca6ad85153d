//! Subprocess test: `lrgcn serve --ann` under deterministic IO fault
//! injection. A hot reload that hits an injected short read — or a
//! checkpoint overwritten with garbage — must fail with a 500 while the
//! server keeps answering every in-flight request from the *old* ANN
//! index (zero non-200s, generation unchanged), and a later reload of a
//! healthy checkpoint must still succeed.
//!
//! The fault schedule is replayable: `LRGCN_FAULT=short_read:0.5` with
//! `LRGCN_FAULT_SEED=1` draws 0.654, 0.409, 0.644, 0.988 for the first
//! four checkpoint loads, so the initial load (op 1) and the final reload
//! succeed while the op-2 reload is truncated mid-read.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

fn fixture(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("mkdir");
    let path = dir.join("interactions.tsv");
    let log = lrgcn::data::SyntheticConfig::games().scaled(0.15).generate(23);
    lrgcn::data::loader::save_interactions(&path, &log).expect("write tsv");
    path
}

fn http(addr: &str, method: &str, path: &str) -> (u16, String) {
    let addr = addr.parse().expect("socket address");
    let resp = lrgcn_serve::chaos::request(addr, method, path, &[], b"", Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    (resp.status, resp.body)
}

fn generation(addr: &str) -> u64 {
    let (status, body) = http(addr, "GET", "/healthz");
    assert_eq!(status, 200, "healthz: {body}");
    let v = lrgcn::obs::json::parse(&body).expect("healthz JSON");
    v.get("generation")
        .and_then(lrgcn::obs::json::Value::as_f64)
        .expect("generation") as u64
}

#[test]
fn faulted_reload_keeps_the_old_ann_index_serving() {
    let dir = std::env::temp_dir().join("lrgcn_cli_serve_ann_fault");
    let _ = std::fs::remove_dir_all(&dir);
    let input = fixture(&dir);
    let input = input.display().to_string();
    let ckpt = dir.join("model.ckpt");

    let status = Command::new(env!("CARGO_BIN_EXE_lrgcn"))
        .current_dir(&dir)
        .args(["train", "--input", &input, "--epochs", "2", "--seed", "5"])
        .args(["--save", "model.ckpt"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("train");
    assert!(status.success(), "training run failed");
    let good_bytes = std::fs::read(&ckpt).expect("read checkpoint");

    let mut child = Command::new(env!("CARGO_BIN_EXE_lrgcn"))
        .current_dir(&dir)
        .args(["serve", "model.ckpt", "--input", &input])
        .args(["--ann", "--ann-cells", "8", "--nprobe", "4"])
        .args(["--port", "0", "--workers", "2"])
        .env("LRGCN_FAULT", "short_read:0.5")
        .env("LRGCN_FAULT_SEED", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve --ann");

    // Parse the ephemeral address from stdout; require the ANN banner so
    // the test provably exercises the IVF read path.
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut addr = String::new();
    let mut saw_ann_banner = false;
    for _ in 0..32 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read stdout") == 0 {
            break;
        }
        saw_ann_banner |= line.starts_with("ann: ");
        if let Some(rest) = line.trim().strip_prefix("listening on http://") {
            addr = rest.to_string();
            break;
        }
    }
    assert!(!addr.is_empty(), "server never printed its address");
    assert!(saw_ann_banner, "serve --ann did not report an ANN index");

    assert_eq!(generation(&addr), 0);
    let (status, _) = http(&addr, "GET", "/recs/1?k=5");
    assert_eq!(status, 200, "ANN read path dead before any fault");

    // Hammer the read paths from two clients while the reloads below fail;
    // every single response must be a 200 served from the old index.
    let hammer_addr = addr.clone();
    let clients: Vec<_> = (0..2u32)
        .map(|c| {
            let addr = hammer_addr.clone();
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                for i in 0..40u32 {
                    let path = if i % 4 == 0 {
                        format!("/similar/{}?k=5", (c + i) % 8)
                    } else {
                        format!("/recs/{}?k=5", (c * 7 + i) % 16)
                    };
                    statuses.push(http(&addr, "GET", &path).0);
                    std::thread::sleep(Duration::from_millis(2));
                }
                statuses
            })
        })
        .collect();

    // Reload 1 (load op 2): the injected short read truncates the
    // checkpoint mid-load — the swap must be rejected wholesale.
    let (status, body) = http(&addr, "POST", "/admin/reload");
    assert_eq!(status, 500, "injected short read must fail the reload: {body}");
    assert_eq!(generation(&addr), 0, "failed reload must not bump the generation");

    // Reload 2 (load op 3, no injected fault): the checkpoint is now
    // garbage on disk — same containment contract.
    std::fs::write(&ckpt, b"not a checkpoint").expect("clobber checkpoint");
    let (status, _) = http(&addr, "POST", "/admin/reload");
    assert_eq!(status, 500, "garbage checkpoint must fail the reload");
    assert_eq!(generation(&addr), 0);

    for c in clients {
        let statuses = c.join().expect("client join");
        assert!(
            statuses.iter().all(|&s| s == 200),
            "requests failed while reloads were faulting: {statuses:?}"
        );
    }

    // Restore the good bytes: reload 3 (load op 4) must go through and the
    // recovered server keeps answering.
    std::fs::write(&ckpt, &good_bytes).expect("restore checkpoint");
    let (status, body) = http(&addr, "POST", "/admin/reload");
    assert_eq!(status, 200, "healthy reload after faults failed: {body}");
    assert_eq!(generation(&addr), 1);
    let (status, _) = http(&addr, "GET", "/recs/1?k=5");
    assert_eq!(status, 200);

    let (status, _) = http(&addr, "POST", "/admin/shutdown");
    assert_eq!(status, 200);
    let exit = child.wait().expect("reap server");
    assert!(exit.success(), "server exited uncleanly: {exit:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
