//! Generated-input tests of the live table and the zero class. On
//! splitmix64-generated catalogues every read path that claims exactness
//! must return what one full scan over the whole item table returns —
//! the same ids in the same order with the same score bits — including
//! where the all-zero rows must enter the ranking. Plans that score a
//! partial candidate pool (an int8 pre-rank short of the live rows, a
//! one-cell probe) must still return a valid ranking with exact scores.

use super::tests::{ev, save_layergcn, save_lightgcn};
use super::*;
use lrgcn_eval::top_k_with_scores;
use lrgcn_models::common::score_from_final;
use rand::{Rng, SplitMix64};

fn below(g: &mut SplitMix64, n: usize) -> usize {
    (g.next_u64() % n as u64) as usize
}

/// A value on a coarse grid centred on zero, so exact ties are common.
fn level(g: &mut SplitMix64) -> f32 {
    (below(g, 9) as f32 - 4.0) * 0.25
}

/// One generated catalogue: the full final-embedding table the states
/// are built from, and a dataset whose training edges are random seen
/// masks (zero ids included).
struct Case {
    full: Matrix,
    ds: Arc<Dataset>,
    n_zero: usize,
}

impl Case {
    /// `n_live` live rows plus about `zero_share` of the catalogue as
    /// zero rows (some of them `-0.0`), at random ids.
    fn generate(g: &mut SplitMix64, zero_share: f64) -> Case {
        let (n_users, dim) = (6, 3 + below(g, 6));
        let n_live = 16 * below(g, 3) + below(g, 16);
        let n_items = if zero_share >= 1.0 {
            1 + below(g, 40)
        } else {
            ((n_live as f64 / (1.0 - zero_share)).round() as usize).max(1)
        };
        let n_live = n_live.min(n_items);
        let mut ids: Vec<usize> = (0..n_items).collect();
        for i in (1..n_items).rev() {
            ids.swap(i, below(g, i + 1));
        }
        let mut full = Matrix::zeros(n_users + n_items, dim);
        for u in 0..n_users {
            for x in full.row_mut(u) {
                *x = level(g);
            }
        }
        for (rank, &item) in ids.iter().enumerate() {
            let row = full.row_mut(n_users + item);
            if rank < n_live {
                for x in row.iter_mut() {
                    *x = level(g);
                }
                if row.iter().all(|&x| x == 0.0) {
                    row[below(g, dim)] = 0.5;
                }
            } else if below(g, 2) == 0 {
                for x in row.iter_mut() {
                    *x = if below(g, 2) == 0 { -0.0 } else { 0.0 };
                }
            }
        }
        let mut train = Vec::new();
        for u in 0..n_users as u32 {
            for _ in 0..below(g, n_items / 2 + 1) {
                train.push((u, below(g, n_items) as u32));
            }
        }
        let ds = Arc::new(Dataset::from_parts(
            "generated",
            n_users,
            n_items,
            train,
            vec![vec![]; n_users],
            vec![vec![]; n_users],
        ));
        Case {
            full,
            ds,
            n_zero: n_items - n_live,
        }
    }

    fn state(&self, opts: &EngineOptions) -> EngineState {
        EngineState::new(
            "generated".into(),
            "layergcn".into(),
            0,
            0,
            self.ds.clone(),
            0,
            None,
            self.full.clone(),
            opts,
        )
    }

    fn n_users(&self) -> usize {
        self.ds.n_users()
    }

    fn n_items(&self) -> usize {
        self.ds.n_items()
    }

    fn item_row(&self, item: u32) -> &[f32] {
        self.full.row(self.n_users() + item as usize)
    }

    /// The reference: score every id with the kernel over the whole
    /// table, mask, select, drop the masked.
    fn full_scan(&self, row: &[f32], seen: &[u32], k: usize) -> Vec<(u32, f32)> {
        let (n_items, dim) = (self.n_items(), self.full.cols());
        let mut scores = vec![0.0f32; n_items];
        let block = &self.full.data()[self.n_users() * dim..];
        kernels::matmul_nt_block(
            kernels::active_kernel(),
            row,
            dim,
            block,
            n_items,
            &mut scores,
        );
        for &it in seen {
            if (it as usize) < n_items {
                scores[it as usize] = f32::NEG_INFINITY;
            }
        }
        top_k_with_scores(&scores, k)
    }

    /// The exact cosine of two items; `0` when either row is zero.
    fn cosine(&self, a: u32, b: u32) -> f32 {
        let norm = |r: &[f32]| dot(r, r).sqrt();
        let (q, r) = (self.item_row(a), self.item_row(b));
        let n = norm(q) * norm(r);
        if n > 0.0 {
            dot(q, r) / n
        } else {
            0.0
        }
    }

    /// The reference `/similar`: exact cosine against every id.
    fn full_similar(&self, item: u32, k: usize) -> Vec<(u32, f32)> {
        let mut scores: Vec<f32> = (0..self.n_items() as u32)
            .map(|i| self.cosine(item, i))
            .collect();
        scores[item as usize] = f32::NEG_INFINITY;
        top_k_with_scores(&scores, k)
    }
}

fn bits(v: &[(u32, f32)]) -> Vec<(u32, u32)> {
    v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// What a ranking from a partial candidate pool must still be: at most `k`
/// ids, none of them `masked` (sorted) or repeated, in strict
/// [`rank_order`], each carrying its `exact` score bits.
fn assert_partial_ranking(
    got: &[(u32, f32)],
    k: usize,
    masked: &[u32],
    exact: impl Fn(u32) -> f32,
    ctx: &str,
) {
    assert!(got.len() <= k, "more than k ids: {ctx}");
    assert!(
        got.windows(2).all(|w| rank_order(&w[0], &w[1]).is_lt()),
        "not in strict rank order: {ctx}"
    );
    let mut ids: Vec<u32> = got.iter().map(|&(i, _)| i).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), got.len(), "duplicate id: {ctx}");
    for &(it, s) in got {
        assert!(masked.binary_search(&it).is_err(), "masked id {it}: {ctx}");
        assert_eq!(s.to_bits(), exact(it).to_bits(), "id {it}: {ctx}");
    }
}

/// `plan` narrowed to one probed cell.
fn one_cell(plan: ReadPlan) -> ReadPlan {
    ReadPlan { nprobe: 1, ..plan }
}

/// Zero shares of 0 %, ~50 % and ~90 %, plus a catalogue with no live row.
const ZERO_SHARES: [f64; 4] = [0.0, 0.5, 0.9, 1.0];

fn exact_opts() -> EngineOptions {
    EngineOptions::default()
}

fn quant_opts() -> EngineOptions {
    EngineOptions {
        quant: true,
        ..EngineOptions::default()
    }
}

/// An index whose probe covers every cell.
fn full_probe_opts(quant: bool) -> EngineOptions {
    EngineOptions {
        ann: true,
        quant,
        ann_cells: 4,
        nprobe: usize::MAX,
        ..EngineOptions::default()
    }
}

/// The `k` values around every boundary of the live block and the catalogue.
fn ks(n_live: usize, n_items: usize) -> [usize; 7] {
    [
        0,
        1,
        n_live.saturating_sub(1),
        n_live,
        n_live + 1,
        n_items,
        n_items + 5,
    ]
}

/// A sorted random mask that may name zero ids and ids past the catalogue.
fn random_mask(g: &mut SplitMix64, n_items: usize) -> Vec<u32> {
    let mut seen: Vec<u32> = (0..below(g, n_items + 1))
        .map(|_| below(g, n_items + 3) as u32)
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen
}

#[test]
fn every_read_path_equals_the_full_scan_on_generated_catalogues() {
    let mut g = SplitMix64::new(0x11fe_2025);
    let mut scratch = Scratch::default();
    let (mut cases, mut odd_live, mut zero_class_placed) = (0usize, 0usize, 0usize);
    let mut narrowed = 0usize;
    for share in ZERO_SHARES {
        for _ in 0..4 {
            let case = Case::generate(&mut g, share);
            let exact = case.state(&exact_opts());
            let quant = case.state(&quant_opts());
            let ann = case.state(&full_probe_opts(false));
            let ann_quant = case.state(&full_probe_opts(true));
            let n_live = exact.live_items();
            assert_eq!(n_live + case.n_zero, case.n_items());
            assert_eq!(exact.items.zero_ids().len(), case.n_zero);
            odd_live += usize::from(!n_live.is_multiple_of(16));
            narrowed += usize::from(ann.ann_cells() > 1);
            for u in 0..case.n_users() {
                let urow = case.full.row(u).to_vec();
                for scale in [1.0f32, -1.0, 0.0] {
                    let row: Vec<f32> = urow.iter().map(|&x| x * scale).collect();
                    for exclude_seen in [true, false] {
                        let seen = if exclude_seen {
                            random_mask(&mut g, case.n_items())
                        } else {
                            Vec::new()
                        };
                        for k in ks(n_live, case.n_items()) {
                            let want = case.full_scan(&row, &seen, k);
                            let ctx = format!(
                                "share {share} live {n_live} of {} user {u} scale {scale} \
                                 k {k} seen {seen:?}",
                                case.n_items()
                            );
                            let rank = |st: &EngineState, plan, scratch: &mut Scratch| {
                                st.rank(&row, Metric::Dot, &seen, k, plan, scratch)
                            };
                            let exact_dot = |it: u32| dot(&row, case.item_row(it));
                            let got = rank(&exact, exact.plan(), &mut scratch);
                            assert_eq!(bits(&got), bits(&want), "exact: {ctx}");
                            let got = rank(&ann, ann.plan(), &mut scratch);
                            assert_eq!(bits(&got), bits(&want), "ann full probe: {ctx}");
                            for (name, st) in [("quant", &quant), ("ann+quant", &ann_quant)] {
                                let got = rank(st, st.plan(), &mut scratch);
                                if k.saturating_mul(CANDIDATE_FACTOR) >= n_live {
                                    assert_eq!(bits(&got), bits(&want), "{name}: {ctx}");
                                } else {
                                    // A partial candidate pool: still a
                                    // ranking of unmasked ids by exact scores.
                                    assert_eq!(got.len(), want.len(), "{name}: {ctx}");
                                    assert_partial_ranking(&got, k, &seen, exact_dot, &ctx);
                                }
                            }
                            for (name, st) in [("ann", &ann), ("ann+quant", &ann_quant)] {
                                let got = rank(st, one_cell(st.plan()), &mut scratch);
                                let ctx = format!("{name} one cell: {ctx}");
                                assert_partial_ranking(&got, k, &seen, exact_dot, &ctx);
                            }
                            zero_class_placed += usize::from(
                                want.iter()
                                    .any(|&(it, _)| exact.items.live_position(it).is_none()),
                            );
                            cases += 1;
                        }
                    }
                }
            }
            // The trained-user entry point reads the dataset's own mask.
            for u in 0..case.n_users() as u32 {
                for k in ks(n_live, case.n_items()) {
                    let want = case.full_scan(case.full.row(u as usize), case.ds.train_items(u), k);
                    let got = exact
                        .top_k_into(&case.ds, u, k, true, &mut scratch)
                        .expect("trained user");
                    assert_eq!(bits(&got), bits(&want), "top_k_into user {u} k {k}");
                }
            }
        }
    }
    assert!(cases >= 1000, "only {cases} generated cases");
    assert!(
        odd_live > 0,
        "no catalogue had a live count off the 16-row panel"
    );
    assert!(zero_class_placed > 0, "no case needed the zero class");
    assert!(narrowed > 0, "no one-cell probe left a cell out");
}

#[test]
fn similar_items_equal_the_full_cosine_scan() {
    let mut g = SplitMix64::new(0x51_3111a5);
    let mut scratch = Scratch::default();
    let mut narrowed = 0usize;
    for share in ZERO_SHARES {
        for _ in 0..3 {
            let case = Case::generate(&mut g, share);
            let exact = case.state(&exact_opts());
            let quant = case.state(&quant_opts());
            let ann = case.state(&full_probe_opts(false));
            let ann_quant = case.state(&full_probe_opts(true));
            let n_live = exact.live_items();
            narrowed += usize::from(ann.ann_cells() > 1);
            for item in 0..case.n_items() as u32 {
                let exact_cos = |it: u32| case.cosine(item, it);
                for k in ks(n_live, case.n_items()) {
                    let want = case.full_similar(item, k);
                    let ctx = format!("share {share} item {item} k {k}");
                    let got = exact
                        .similar_items_into(item, k, &mut scratch)
                        .expect("similar");
                    assert_eq!(bits(&got), bits(&want), "exact: {ctx}");
                    let got = ann
                        .similar_items_into(item, k, &mut scratch)
                        .expect("similar");
                    assert_eq!(bits(&got), bits(&want), "ann full probe: {ctx}");
                    for (name, st) in [("quant", &quant), ("ann+quant", &ann_quant)] {
                        let got = st
                            .similar_items_into(item, k, &mut scratch)
                            .expect("similar");
                        if k.saturating_mul(CANDIDATE_FACTOR) >= n_live {
                            assert_eq!(bits(&got), bits(&want), "{name}: {ctx}");
                        } else {
                            assert_eq!(got.len(), want.len(), "{name}: {ctx}");
                            assert_partial_ranking(&got, k, &[item], exact_cos, &ctx);
                        }
                    }
                    for (name, st) in [("ann", &ann), ("ann+quant", &ann_quant)] {
                        let got = st
                            .similar(item, k, one_cell(st.plan()), &mut scratch)
                            .expect("similar");
                        let ctx = format!("{name} one cell: {ctx}");
                        assert_partial_ranking(&got, k, &[item], exact_cos, &ctx);
                    }
                }
            }
        }
    }
    assert!(narrowed > 0, "no one-cell probe left a cell out");
}

#[test]
fn score_pairs_and_score_users_are_bitwise_unchanged() {
    let mut g = SplitMix64::new(0x5c0_4e5);
    for share in ZERO_SHARES {
        let mut case = Case::generate(&mut g, share);
        let users: Vec<u32> = (0..case.n_users() as u32).collect();
        let pairs: Vec<(u32, u32)> = users
            .iter()
            .flat_map(|&u| (0..case.n_items() as u32).map(move |i| (u, i)))
            .collect();
        let st = case.state(&exact_opts());
        let got = st.score_pairs(&pairs).expect("in range");
        for (&(u, i), s) in pairs.iter().zip(&got) {
            let want = dot(case.full.row(u as usize), case.item_row(i));
            assert_eq!(s.to_bits(), want.to_bits(), "share {share} pair ({u}, {i})");
        }
        // User 0 with a non-finite component: its zero columns are NaN, as
        // the full table's kernel makes them.
        case.full.row_mut(0)[0] = f32::INFINITY;
        let st = case.state(&exact_opts());
        let want = score_from_final(&case.full, case.n_users(), &users);
        let got = st.score_users(&users);
        assert_eq!(got.shape(), want.shape());
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "share {share} cell {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "scores must not be NaN")]
fn an_infinite_query_component_still_panics_on_the_nan_scores() {
    let mut g = SplitMix64::new(0x1f);
    let case = Case::generate(&mut g, 0.5);
    assert!(case.n_zero > 0);
    let st = case.state(&exact_opts());
    let mut row = case.full.row(0).to_vec();
    row[0] = f32::INFINITY;
    st.rank(&row, Metric::Dot, &[], 5, st.plan(), &mut Scratch::default());
}

/// The brute-force test's catalogue: 37 items, of which only 0..7 carry
/// training edges.
fn isolated_dataset() -> Arc<Dataset> {
    let n_users = 5u32;
    let train: Vec<(u32, u32)> = (0..n_users)
        .flat_map(|u| (0..3).map(move |o| (u, (u + o) % 7)))
        .collect();
    Arc::new(Dataset::from_parts(
        "isolated",
        n_users as usize,
        37,
        train,
        vec![vec![]; n_users as usize],
        vec![vec![]; n_users as usize],
    ))
}

#[test]
fn liveness_is_read_from_the_table_not_the_model_tag() {
    let ds = isolated_dataset();
    let dir = std::env::temp_dir().join("lrgcn_engine_liveness");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let opts = EngineOptions {
        n_layers: 2,
        ..EngineOptions::default()
    };
    // LightGCN's readout includes the ego layer: no cold row is zero.
    let ckpt = dir.join("lightgcn.ckpt");
    save_lightgcn(&ds, &ckpt);
    let st = Engine::open(&ckpt, ds.clone(), opts.clone())
        .expect("open")
        .state();
    assert_eq!(st.live_items(), 37);
    assert!(st.items.zero_ids().is_empty());
    // LayerGCN's does not: only the seven items with an edge are live.
    let ckpt = dir.join("layergcn.ckpt");
    save_layergcn(&ds, &ckpt);
    let st = Engine::open(&ckpt, ds, opts).expect("open").state();
    assert_eq!(st.live_items(), 7);
    assert_eq!(st.items.live_ids(), (0..7).collect::<Vec<u32>>());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_top_k_has_no_duplicates_when_a_cold_base_item_gets_events() {
    let ds = isolated_dataset();
    let dir = std::env::temp_dir().join("lrgcn_engine_cold_stream");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("m.ckpt");
    save_layergcn(&ds, &ckpt);
    let events_dir = dir.join("events");
    {
        let mut log = EventLog::open(&events_dir).expect("log");
        // Cold base items 20 and 30, a new user 5 and a new item 40.
        log.append_batch(&[
            ev(0, 20, 1),
            ev(1, 20, 2),
            ev(5, 30, 3),
            ev(0, 40, 4),
            ev(5, 1, 5),
        ])
        .expect("append");
    }
    let eng = Engine::open(
        &ckpt,
        ds,
        EngineOptions {
            n_layers: 2,
            dropout: 0.0,
            events_dir: Some(events_dir),
            ..EngineOptions::default()
        },
    )
    .expect("open");
    let st = eng.state();
    let delta = st.delta();
    assert_eq!(delta.events_applied(), 5);
    let mut scratch = Scratch::default();
    for user in [0u32, 1, 2, 5] {
        for exclude_seen in [true, false] {
            for k in [1usize, 10, 37, 40, 60] {
                let recs = st
                    .top_k_stream(&delta, user, k, exclude_seen, &mut scratch)
                    .expect("known user");
                let mut ids: Vec<u32> = recs.iter().map(|&(i, _)| i).collect();
                assert!(recs.windows(2).all(|w| rank_order(&w[0], &w[1]).is_lt()));
                if exclude_seen {
                    for &it in delta.user_items(user) {
                        assert!(!ids.contains(&it), "user {user}: folded item {it} leaked");
                    }
                }
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), recs.len(), "user {user} k {k}: duplicate ids");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
