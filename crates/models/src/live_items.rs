//! A final node table whose item block is split by content: the **live**
//! item rows (any component other than `±0.0`) and the all-zero ones.
//!
//! LayerGCN's readout leaves the ego layer out, so every item without a
//! training edge has an all-zero final row — most of a cold-heavy
//! catalogue. Liveness is read from the table, never from the model:
//! LightGCN's readout includes the ego layer, so its cold rows are not
//! zero. Every `matmul_nt` chain starts at `+0.0` and `+0.0 + (±0) =
//! +0.0`, so a finite user row scores every zero row exactly `+0.0`:
//! [`LiveItems::score_users`] runs the kernel over the live rows only and
//! is bitwise what [`score_from_final`] gives over the whole table. The
//! serving engine ranks from the same split (`lrgcn-serve`, "Live rows and
//! the zero class"); [`crate::EgoGcn`] scores its evaluation cache from it
//! when zero rows are at least as many as live ones ([`ItemTable`]).

use crate::common::score_from_final;
use lrgcn_tensor::matrix::dot;
use lrgcn_tensor::Matrix;

/// [`LiveItems::live_position`]'s map entry of an all-zero item row.
const ZERO_ROW: u32 = u32::MAX;

/// A final node table (users first) with the all-zero item rows dropped.
pub struct LiveItems {
    /// The user rows, then the live item rows in ascending id order —
    /// `(n_users + n_live) × dim`. The zero rows are not stored.
    table: Matrix,
    n_users: usize,
    /// Item id of each live position, ascending.
    live_ids: Vec<u32>,
    /// Live position of each item id; [`ZERO_ROW`] for an all-zero row.
    live_pos: Vec<u32>,
    /// Ids of the all-zero item rows, ascending.
    zero_ids: Vec<u32>,
    /// The one all-zero row every zero id reads as its embedding.
    zero_row: Vec<f32>,
}

impl LiveItems {
    /// Splits `final_emb` (`n_users` user rows, then one row per item) in
    /// place.
    pub fn split(final_emb: Matrix, n_users: usize) -> Self {
        let n_items = final_emb.rows() - n_users;
        let dim = final_emb.cols();
        let (table, live_ids, live_pos, zero_ids) = compact_live_items(final_emb, n_users, n_items);
        Self {
            table,
            n_users,
            live_ids,
            live_pos,
            zero_ids,
            zero_row: vec![0.0; dim],
        }
    }

    /// The user rows, then the live item rows.
    pub fn table(&self) -> &Matrix {
        &self.table
    }

    /// How many item rows are live.
    pub fn n_live(&self) -> usize {
        self.live_ids.len()
    }

    /// Item id of each live position, ascending.
    pub fn live_ids(&self) -> &[u32] {
        &self.live_ids
    }

    /// Ids of the all-zero item rows, ascending.
    pub fn zero_ids(&self) -> &[u32] {
        &self.zero_ids
    }

    /// The contiguous live block of the item table.
    pub fn live_block(&self) -> &[f32] {
        &self.table.data()[self.n_users * self.table.cols()..]
    }

    /// The live row at live position `pos`.
    pub fn live_row(&self, pos: usize) -> &[f32] {
        self.table.row(self.n_users + pos)
    }

    /// The live position of `item`; `None` for a zero row or an id past
    /// the catalogue.
    pub fn live_position(&self, item: u32) -> Option<usize> {
        match self.live_pos.get(item as usize) {
            Some(&p) if p != ZERO_ROW => Some(p as usize),
            _ => None,
        }
    }

    /// The one all-zero row every zero id reads as its embedding.
    pub fn zero_row(&self) -> &[f32] {
        &self.zero_row
    }

    /// The final row of `item`; every zero id reads the one zero row.
    pub fn item_row(&self, item: usize) -> &[f32] {
        match self.live_pos[item] {
            ZERO_ROW => &self.zero_row,
            p => self.live_row(p as usize),
        }
    }

    /// The raw score matrix for a chunk of users, bitwise what
    /// [`score_from_final`] gives over the full item table: the live
    /// columns come from the same kernel, and a zero column is the
    /// kernel's `+0.0` — or `dot(row, 0)` for a user row with a non-finite
    /// component.
    pub fn score_users(&self, users: &[u32]) -> Matrix {
        let live = score_from_final(&self.table, self.n_users, users);
        let mut out = Matrix::zeros(users.len(), self.live_pos.len());
        for (r, &u) in users.iter().enumerate() {
            let orow = out.row_mut(r);
            for (&id, &s) in self.live_ids.iter().zip(live.row(r)) {
                orow[id as usize] = s;
            }
            let urow = self.table.row(u as usize);
            if !urow.iter().all(|x| x.is_finite()) {
                let zero = dot(urow, &self.zero_row);
                for &id in &self.zero_ids {
                    orow[id as usize] = zero;
                }
            }
        }
        out
    }
}

/// A final node table held for scoring the cheaper way: whole, or split
/// when its all-zero item rows are at least as many as its live ones. Both
/// score bitwise alike; the split saves the zero columns' dot products and
/// costs a scatter of the live ones, so it pays only on a cold catalogue.
pub(crate) enum ItemTable {
    Dense { table: Matrix, n_users: usize },
    Split(LiveItems),
}

impl ItemTable {
    /// Picks the form for `final_emb` (`n_users` user rows, then items).
    pub fn new(final_emb: Matrix, n_users: usize) -> Self {
        let n_items = final_emb.rows() - n_users;
        let n_live = (n_users..final_emb.rows())
            .filter(|&r| is_live_row(final_emb.row(r)))
            .count();
        if n_items - n_live < n_live {
            ItemTable::Dense {
                table: final_emb,
                n_users,
            }
        } else {
            ItemTable::Split(LiveItems::split(final_emb, n_users))
        }
    }

    /// [`score_from_final`] over the table, in either form.
    pub fn score_users(&self, users: &[u32]) -> Matrix {
        match self {
            ItemTable::Dense { table, n_users } => score_from_final(table, *n_users, users),
            ItemTable::Split(live) => live.score_users(users),
        }
    }
}

/// A row is live when any component is other than `±0.0`; a NaN counts.
fn is_live_row(row: &[f32]) -> bool {
    row.iter().any(|&x| x != 0.0)
}

/// Splits the item block of `final_emb` (rows `n_users..n_users + n_items`)
/// by content, in place: the live rows — any component other than `±0.0`;
/// a NaN counts as live — move up behind the user rows in ascending id
/// order, and the rest are dropped. Returns the compacted matrix, the live
/// ids, the id → live position map and the zero ids.
fn compact_live_items(
    final_emb: Matrix,
    n_users: usize,
    n_items: usize,
) -> (Matrix, Vec<u32>, Vec<u32>, Vec<u32>) {
    let dim = final_emb.cols();
    let mut data = final_emb.into_vec();
    let is_live = |data: &[f32], item: usize| {
        let src = (n_users + item) * dim;
        is_live_row(&data[src..src + dim])
    };
    // Counted first so every list is allocated once at its final size:
    // growth reallocations here fragment the heap that later training
    // matrices reuse, which shows in the process's peak RSS.
    let n_live = (0..n_items).filter(|&i| is_live(&data, i)).count();
    let mut live_ids = Vec::with_capacity(n_live);
    let mut zero_ids = Vec::with_capacity(n_items - n_live);
    let mut live_pos = vec![ZERO_ROW; n_items];
    for (item, pos) in live_pos.iter_mut().enumerate() {
        if is_live(&data, item) {
            let src = (n_users + item) * dim;
            data.copy_within(src..src + dim, (n_users + live_ids.len()) * dim);
            *pos = live_ids.len() as u32;
            live_ids.push(item as u32);
        } else {
            zero_ids.push(item as u32);
        }
    }
    let rows = n_users + n_live;
    data.truncate(rows * dim);
    data.shrink_to_fit();
    (
        Matrix::from_vec(rows, dim, data),
        live_ids,
        live_pos,
        zero_ids,
    )
}
