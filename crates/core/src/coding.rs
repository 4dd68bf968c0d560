//! Systematic (n, k) erasure coding over fixed-size block groups — the
//! arithmetic core of the `Diversity` mapping mode (DESIGN.md §15).
//!
//! A stream's packets are grouped into *block groups* of `n` packets:
//! the first `k` carry application data unchanged (the code is
//! *systematic* — the common no-loss case needs zero decode work) and
//! the remaining `n − k` carry parity. Any `k` of the `n` blocks
//! reconstruct the group, so a group survives the loss of up to
//! `n − k` blocks — one per path when blocks are striped across paths,
//! which is exactly the uncorrelated-failure case FEC path diversity
//! wins (Fashandi et al., PAPERS.md).
//!
//! Two coders share one interface:
//!
//! * **XOR parity** for `n − k = 1`: the single parity block is the
//!   bytewise XOR of the `k` data blocks. Encoding and single-erasure
//!   recovery are pure XOR loops.
//! * **Vandermonde Reed–Solomon over GF(2⁸)** for `n − k ≥ 2`: the
//!   generator matrix is an `n × k` Vandermonde matrix normalized to
//!   systematic form (top `k` rows = identity), so every `k × k`
//!   row-submatrix is invertible and any `k` surviving blocks decode
//!   via Gaussian elimination over GF(2⁸). Field tables are built at
//!   compile time (`const fn`) — no runtime init, no dependencies.
//!
//! Determinism rules: coding is a pure function of `(n, k)` and the
//! block bytes — no RNG, no clocks — so coded runs stay bit-identical
//! across runs and across processes.
//!
//! [`group_decode_probability`] is the planning-side companion: the
//! exact probability that at least `k` of `n` independently delivered
//! blocks arrive, by subset enumeration (the dispatch layer caps
//! `n ≤ 8`, so 2⁸ terms at most).

use serde::{Deserialize, Serialize};

/// Hard cap on blocks per group in the dispatch layer.
///
/// Keeps the lane fan-out per stream tiny, bounds the per-group decode
/// state, and makes the exact subset enumeration in
/// [`group_decode_probability`] at most 2⁸ terms.
pub const MAX_GROUP_BLOCKS: usize = 8;

// ---------------------------------------------------------------------------
// GF(2⁸) arithmetic (AES-agnostic: the classic RS field x⁸+x⁴+x³+x²+1).
// ---------------------------------------------------------------------------

/// The field's primitive polynomial, 0x11d (x⁸ + x⁴ + x³ + x² + 1).
const PRIM_POLY: u16 = 0x11d;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIM_POLY;
        }
        i += 1;
    }
    // Mirror the cycle so `exp[log a + log b]` never needs a mod 255.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
const EXP: [u8; 512] = TABLES.0;
const LOG: [u8; 256] = TABLES.1;

/// GF(2⁸) multiplication via the compile-time log/exp tables.
///
/// ```
/// use iqpaths_core::coding::gf_mul;
/// assert_eq!(gf_mul(0, 7), 0);
/// assert_eq!(gf_mul(1, 7), 7);
/// // x · x = x², and x⁸ wraps through the primitive polynomial:
/// assert_eq!(gf_mul(2, 2), 4);
/// assert_eq!(gf_mul(0x80, 2), 0x1d);
/// // Every nonzero element has an inverse:
/// assert_eq!(gf_mul(7, iqpaths_core::coding::gf_inv(7)), 1);
/// ```
#[inline]
#[must_use]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// GF(2⁸) multiplicative inverse.
///
/// # Panics
/// Panics on `a == 0` (zero has no inverse).
#[inline]
#[must_use]
pub fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "gf_inv(0)");
    EXP[255 - LOG[a as usize] as usize]
}

/// GF(2⁸) exponentiation `a^e` (with the field convention `a⁰ = 1`,
/// including `0⁰ = 1`).
#[inline]
#[must_use]
pub fn gf_pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    EXP[(LOG[a as usize] as usize * e) % 255]
}

/// Inverts a `k × k` matrix over GF(2⁸) by Gauss–Jordan elimination.
/// Returns `None` when the matrix is singular.
fn gf_invert(mut m: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let k = m.len();
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..k).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..k {
        // Partial pivot: any nonzero entry works in a field.
        let pivot = (col..k).find(|&r| m[r][col] != 0)?;
        m.swap(col, pivot);
        inv.swap(col, pivot);
        let scale = gf_inv(m[col][col]);
        for j in 0..k {
            m[col][j] = gf_mul(m[col][j], scale);
            inv[col][j] = gf_mul(inv[col][j], scale);
        }
        for row in 0..k {
            if row == col || m[row][col] == 0 {
                continue;
            }
            let factor = m[row][col];
            for j in 0..k {
                let a = gf_mul(factor, m[col][j]);
                let b = gf_mul(factor, inv[col][j]);
                m[row][j] ^= a; // addition in GF(2⁸) is XOR
                inv[row][j] ^= b;
            }
        }
    }
    Some(inv)
}

// ---------------------------------------------------------------------------
// The systematic block coder.
// ---------------------------------------------------------------------------

/// A systematic (n, k) block-group erasure coder.
///
/// Encodes `k` equal-length data blocks into `n − k` parity blocks;
/// decodes the `k` data blocks back from **any** `k` of the `n` blocks
/// (data or parity, identified by index `0..n`).
///
/// ```
/// use iqpaths_core::coding::BlockCoder;
///
/// // (3, 2): two data blocks, one XOR parity block.
/// let coder = BlockCoder::new(3, 2);
/// let d0 = vec![1u8, 2, 3];
/// let d1 = vec![4u8, 6, 8];
/// let parity = coder.encode(&[&d0, &d1]);
/// assert_eq!(parity, vec![vec![5u8, 4, 11]]); // bytewise XOR
///
/// // Lose d0; recover it from d1 + parity (indices 1 and 2).
/// let got = coder
///     .decode(&[(1, d1.as_slice()), (2, parity[0].as_slice())])
///     .expect("2-of-3 decodes");
/// assert_eq!(got, vec![d0, d1]);
/// ```
///
/// A Reed–Solomon instance tolerating two losses:
///
/// ```
/// use iqpaths_core::coding::BlockCoder;
/// let coder = BlockCoder::new(4, 2);
/// let (d0, d1) = (vec![9u8, 9, 9], vec![0u8, 1, 2]);
/// let parity = coder.encode(&[&d0, &d1]);
/// // Both data blocks lost — parity alone reconstructs them.
/// let got = coder
///     .decode(&[(2, parity[0].as_slice()), (3, parity[1].as_slice())])
///     .unwrap();
/// assert_eq!(got, vec![d0, d1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCoder {
    n: usize,
    k: usize,
    /// `(n − k) × k` parity coefficient rows of the systematic
    /// generator matrix (the top `k` rows are the identity and are
    /// never materialized).
    parity_rows: Vec<Vec<u8>>,
}

impl BlockCoder {
    /// Builds the coder for an (n, k) group.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ n ≤ 255` — GF(2⁸) Vandermonde
    /// construction needs `n` distinct field elements. (The dispatch
    /// layer further restricts `n` to [`MAX_GROUP_BLOCKS`].)
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        assert!(
            k >= 1 && k <= n && n <= 255,
            "BlockCoder: need 1 <= k <= n <= 255"
        );
        let parity_rows = if n == k {
            Vec::new()
        } else if n - k == 1 {
            // Single parity: plain XOR. The generator [I; 1 1 … 1] is
            // MDS — dropping any one row leaves an invertible matrix.
            vec![vec![1u8; k]]
        } else {
            // Vandermonde V[i][j] = i^j over n distinct points 0..n,
            // normalized to systematic form G = V · (V_top)⁻¹. Every
            // k×k row-submatrix of V is invertible (distinct points),
            // and right-multiplication preserves that, so any k rows
            // of G decode.
            let v: Vec<Vec<u8>> = (0..n)
                .map(|i| (0..k).map(|j| gf_pow(i as u8, j)).collect())
                .collect();
            let top_inv = gf_invert(v[..k].to_vec()).expect("Vandermonde top block is invertible");
            v[k..]
                .iter()
                .map(|row| {
                    (0..k)
                        .map(|c| {
                            let mut acc = 0u8;
                            for (j, &coef) in row.iter().enumerate() {
                                acc ^= gf_mul(coef, top_inv[j][c]);
                            }
                            acc
                        })
                        .collect()
                })
                .collect()
        };
        Self { n, k, parity_rows }
    }

    /// Group size `n` (data + parity blocks).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data blocks per group `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Encodes `k` equal-length data blocks into the `n − k` parity
    /// blocks.
    ///
    /// # Panics
    /// Panics unless exactly `k` blocks of one common length are given.
    #[must_use]
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "encode: need exactly k data blocks");
        let len = data.first().map_or(0, |d| d.len());
        assert!(
            data.iter().all(|d| d.len() == len),
            "encode: data blocks must share one length"
        );
        self.parity_rows
            .iter()
            .map(|row| {
                let mut out = vec![0u8; len];
                for (coef, block) in row.iter().zip(data) {
                    match *coef {
                        0 => {}
                        1 => {
                            for (o, &b) in out.iter_mut().zip(*block) {
                                *o ^= b;
                            }
                        }
                        c => {
                            for (o, &b) in out.iter_mut().zip(*block) {
                                *o ^= gf_mul(c, b);
                            }
                        }
                    }
                }
                out
            })
            .collect()
    }

    /// Reconstructs the `k` data blocks from any `k` surviving blocks.
    ///
    /// `shards` pairs each surviving block with its index in the group
    /// (`0..k` = data, `k..n` = parity). Extra shards beyond the first
    /// `k` distinct indices are ignored. Returns `None` when fewer
    /// than `k` distinct indices survive.
    ///
    /// # Panics
    /// Panics on an out-of-range index or mismatched block lengths.
    #[must_use]
    pub fn decode(&self, shards: &[(usize, &[u8])]) -> Option<Vec<Vec<u8>>> {
        let mut seen = [false; 256];
        let mut rows: Vec<(usize, &[u8])> = Vec::with_capacity(self.k);
        for &(idx, block) in shards {
            assert!(idx < self.n, "decode: block index {idx} out of range");
            if !seen[idx] && rows.len() < self.k {
                seen[idx] = true;
                rows.push((idx, block));
            }
        }
        if rows.len() < self.k {
            return None;
        }
        let len = rows[0].1.len();
        assert!(
            rows.iter().all(|&(_, b)| b.len() == len),
            "decode: blocks must share one length"
        );
        // Fast path: all k data blocks present — systematic copy-out.
        if rows.iter().all(|&(idx, _)| idx < self.k) {
            let mut out = vec![Vec::new(); self.k];
            for &(idx, block) in &rows {
                out[idx] = block.to_vec();
            }
            return Some(out);
        }
        // General path: invert the k×k submatrix of the generator
        // picked out by the surviving indices.
        let m: Vec<Vec<u8>> = rows
            .iter()
            .map(|&(idx, _)| {
                if idx < self.k {
                    (0..self.k).map(|j| u8::from(j == idx)).collect()
                } else {
                    self.parity_rows[idx - self.k].clone()
                }
            })
            .collect();
        let inv = gf_invert(m).expect("any k rows of a systematic MDS generator are invertible");
        Some(
            (0..self.k)
                .map(|d| {
                    let mut out = vec![0u8; len];
                    for (r, &(_, block)) in rows.iter().enumerate() {
                        let coef = inv[d][r];
                        match coef {
                            0 => {}
                            1 => {
                                for (o, &b) in out.iter_mut().zip(block) {
                                    *o ^= b;
                                }
                            }
                            c => {
                                for (o, &b) in out.iter_mut().zip(block) {
                                    *o ^= gf_mul(c, b);
                                }
                            }
                        }
                    }
                    out
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Planning-side probability.
// ---------------------------------------------------------------------------

/// Exact probability that at least `k` of the blocks arrive, given
/// each block's independent delivery probability `probs[i]`.
///
/// This is the Lemma-1 analogue for a coded group: the group decodes
/// (and the deadline is met for every data block in it) iff ≥ k of n
/// blocks are delivered on time. Exact 2ⁿ subset enumeration —
/// `probs.len()` is capped at [`MAX_GROUP_BLOCKS`] by the callers, so
/// at most 256 terms.
///
/// ```
/// use iqpaths_core::coding::group_decode_probability;
/// // Uncoded single path: the bound is just p.
/// assert!((group_decode_probability(1, &[0.9]) - 0.9).abs() < 1e-12);
/// // (3,2) over three iid paths: p³ + 3p²(1−p).
/// let p = 0.9f64;
/// let expect = p.powi(3) + 3.0 * p * p * (1.0 - p);
/// assert!((group_decode_probability(2, &[p, p, p]) - expect).abs() < 1e-12);
/// // Coding helps: 2-of-3 beats any single 0.9 path.
/// assert!(group_decode_probability(2, &[p, p, p]) > p);
/// ```
///
/// # Panics
/// Panics when `k > probs.len()` or `probs.len() > 16`.
#[must_use]
pub fn group_decode_probability(k: usize, probs: &[f64]) -> f64 {
    let n = probs.len();
    assert!(k <= n, "group_decode_probability: k > n");
    assert!(
        n <= 16,
        "group_decode_probability: subset enumeration capped at n = 16"
    );
    let mut total = 0.0;
    for mask in 0u32..(1u32 << n) {
        if (mask.count_ones() as usize) < k {
            continue;
        }
        let mut term = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            term *= if mask & (1 << i) != 0 { p } else { 1.0 - p };
        }
        total += term;
    }
    total.clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// The per-stream coding plan shared by scheduler ⇄ runtime.
// ---------------------------------------------------------------------------

/// One stream's block-group coding decision, produced by the mapper
/// (see `mapping::DiversityMapper`) and consumed by both the scheduler
/// (lane-striped dispatch) and the runtime (parity synthesis +
/// decode-complete accounting).
///
/// Packet `seq` of the stream belongs to group `seq / n` at group
/// position `seq % n`; positions `< k` are data, the rest parity. Lane
/// `l` (= group position) is pinned to overlay path `paths[l % paths.len()]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCoding {
    /// Stream index (dense, as in the scheduler's spec table).
    pub stream: usize,
    /// Blocks per group (data + parity), `≤` [`MAX_GROUP_BLOCKS`].
    pub n: usize,
    /// Data blocks per group.
    pub k: usize,
    /// Overlay paths the group's lanes stripe across, in lane order.
    pub paths: Vec<usize>,
    /// Planner's estimate of P(≥ k of n blocks on time), after
    /// correlation discounting — diagnostic, traced, not enforced.
    pub decode_probability: f64,
}

impl StreamCoding {
    /// The path serving lane `lane` (group position modulo the stripe).
    #[must_use]
    pub fn lane_path(&self, lane: usize) -> usize {
        self.paths[lane % self.paths.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_tables_are_consistent() {
        // exp/log are mutual inverses on the nonzero elements.
        for a in 1..=255u16 {
            let a = a as u8;
            assert_eq!(EXP[LOG[a as usize] as usize], a);
            assert_eq!(gf_mul(a, gf_inv(a)), 1);
        }
        // Multiplication distributes over XOR (spot grid).
        for a in [1u8, 2, 3, 0x53, 0xca, 0xff] {
            for b in [1u8, 2, 7, 0x11, 0x80] {
                for c in [0u8, 1, 5, 0x1d, 0xfe] {
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn xor_parity_matches_manual_xor() {
        let coder = BlockCoder::new(4, 3);
        let blocks = [vec![1u8, 2, 3], vec![10u8, 20, 30], vec![7u8, 7, 7]];
        let parity = coder.encode(&[&blocks[0], &blocks[1], &blocks[2]]);
        assert_eq!(parity.len(), 1);
        for i in 0..3 {
            assert_eq!(parity[0][i], blocks[0][i] ^ blocks[1][i] ^ blocks[2][i]);
        }
    }

    #[test]
    fn decode_needs_k_distinct_blocks() {
        let coder = BlockCoder::new(3, 2);
        let (d0, d1) = (vec![1u8, 2], vec![3u8, 4]);
        let parity = coder.encode(&[&d0, &d1]);
        assert!(coder.decode(&[(0, d0.as_slice())]).is_none());
        // Duplicates don't count twice.
        assert!(coder
            .decode(&[(0, d0.as_slice()), (0, d0.as_slice())])
            .is_none());
        assert!(coder
            .decode(&[(0, d0.as_slice()), (2, parity[0].as_slice())])
            .is_some());
    }

    #[test]
    fn n_equals_k_is_a_null_code() {
        let coder = BlockCoder::new(2, 2);
        let (d0, d1) = (vec![5u8], vec![6u8]);
        assert!(coder.encode(&[&d0, &d1]).is_empty());
        let got = coder
            .decode(&[(1, d1.as_slice()), (0, d0.as_slice())])
            .unwrap();
        assert_eq!(got, vec![d0, d1]);
    }

    #[test]
    fn probability_is_monotone_in_redundancy() {
        let p = [0.8, 0.85, 0.9, 0.7];
        // Fewer required blocks can only help.
        for k in 1..4 {
            assert!(group_decode_probability(k, &p) >= group_decode_probability(k + 1, &p));
        }
        // Certainty at the extremes.
        assert!((group_decode_probability(0, &p) - 1.0).abs() < 1e-12);
        assert!(group_decode_probability(4, &[1.0; 4]) > 1.0 - 1e-12);
        assert!(group_decode_probability(1, &[0.0; 4]) < 1e-12);
    }

    #[test]
    fn stream_coding_lane_paths_wrap() {
        let sc = StreamCoding {
            stream: 0,
            n: 4,
            k: 3,
            paths: vec![2, 0, 1],
            decode_probability: 0.99,
        };
        assert_eq!(sc.lane_path(0), 2);
        assert_eq!(sc.lane_path(1), 0);
        assert_eq!(sc.lane_path(2), 1);
        assert_eq!(sc.lane_path(3), 2); // wraps
    }
}
