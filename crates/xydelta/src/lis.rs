//! Largest order-preserving subsequence machinery (§5, Figure 3).
//!
//! When the matched children of a node pair are permuted, "to compute a
//! minimum number of moves that are needed, it suffices to find a (not
//! necessarily unique) largest order preserving subsequence". The paper also
//! uses "a more general definition … where the cost of a move corresponds to
//! the weight of the node. This gives us an optimal set of moves." — that is
//! the *heaviest* increasing subsequence. And "for performance reasons, we
//! use a heuristic which … works by cutting [the sequence] into smaller
//! subsequences with a maximum length (e.g. 50)" — the chunked variant,
//! which reproduces the paper's Figure 3 example of missing `(v4, w4)`.

/// Indices of a maximum-total-weight strictly-increasing subsequence, where
/// element `i` has value `values[i]` and weight `weight(i)`.
///
/// `O(s log s)` via a Fenwick tree over value ranks holding the best
/// achievable weight for any subsequence ending at a value ≤ rank.
pub(crate) fn heaviest_increasing_subsequence_by<W>(values: &[u64], weight: W) -> Vec<usize>
where
    W: Fn(usize) -> u64,
{
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    // Coordinate-compress values to ranks 1..=m.
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let rank = |v: u64| -> usize { sorted.partition_point(|&x| x < v) + 1 };

    let mut fen = MaxFenwick::new(sorted.len());
    let mut best_w = vec![0u64; n];
    let mut prev = vec![usize::MAX; n];
    let mut best_end = usize::MAX;
    let mut best_total = 0u64;
    for i in 0..n {
        let r = rank(values[i]);
        // Best chain strictly below this value.
        let (w_before, j) = fen.query(r - 1);
        let w = w_before + weight(i);
        best_w[i] = w;
        prev[i] = j;
        fen.update(r, w, i);
        if w > best_total {
            best_total = w;
            best_end = i;
        }
    }
    // Reconstruct.
    let mut out = Vec::new();
    let mut cur = best_end;
    while cur != usize::MAX {
        out.push(cur);
        cur = prev[cur];
    }
    out.reverse();
    out
}

/// The paper's fixed-window heuristic (§5.2 / §5.3): the index range is cut
/// into chunks of `window`; within chunk `k` only elements whose *value* also
/// falls in chunk `k`'s value range are considered, the exact algorithm runs
/// per chunk, and the per-chunk results are concatenated. The concatenation
/// is increasing by construction, so it is a valid (possibly sub-optimal)
/// order-preserving subsequence — "excellent results … in `O(s)`" time for
/// bounded window.
///
/// `values` must be a permutation-like sequence over `0..n` (the position of
/// each child in the other version), which is how phase 5 uses it.
pub(crate) fn chunked_heaviest_increasing_by<W>(
    values: &[u64],
    window: usize,
    weight: W,
) -> Vec<usize>
where
    W: Fn(usize) -> u64 + Copy,
{
    let n = values.len();
    if n <= window {
        return heaviest_increasing_subsequence_by(values, weight);
    }
    let mut out = Vec::new();
    let mut chunk_start = 0usize;
    while chunk_start < n {
        let chunk_end = (chunk_start + window).min(n);
        let lo = chunk_start as u64;
        let hi = chunk_end as u64;
        // Elements of this index chunk whose value lands in the same chunk's
        // value range.
        let idxs: Vec<usize> = (chunk_start..chunk_end)
            .filter(|&i| values[i] >= lo && values[i] < hi)
            .collect();
        let sub_values: Vec<u64> = idxs.iter().map(|&i| values[i]).collect();
        let kept = heaviest_increasing_subsequence_by(&sub_values, |k| weight(idxs[k]));
        out.extend(kept.into_iter().map(|k| idxs[k]));
        chunk_start = chunk_end;
    }
    out
}

/// Fenwick tree over ranks supporting prefix-max of (weight, index).
struct MaxFenwick {
    tree: Vec<(u64, usize)>,
}

impl MaxFenwick {
    fn new(m: usize) -> MaxFenwick {
        MaxFenwick { tree: vec![(0, usize::MAX); m + 1] }
    }

    /// Max (weight, index) over ranks `1..=r`.
    fn query(&self, mut r: usize) -> (u64, usize) {
        let mut best = (0u64, usize::MAX);
        while r > 0 {
            if self.tree[r].0 > best.0 {
                best = self.tree[r];
            }
            r -= r & r.wrapping_neg();
        }
        best
    }

    fn update(&mut self, mut r: usize, w: u64, idx: usize) {
        while r < self.tree.len() {
            if w > self.tree[r].0 {
                self.tree[r] = (w, idx);
            }
            r += r & r.wrapping_neg();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unweighted longest increasing subsequence.
    fn lis(values: &[u64]) -> Vec<usize> {
        heaviest_increasing_subsequence_by(values, |_| 1)
    }

    fn values_of(seq: &[u64], idxs: &[usize]) -> Vec<u64> {
        idxs.iter().map(|&i| seq[i]).collect()
    }

    fn assert_increasing(v: &[u64]) {
        for w in v.windows(2) {
            assert!(w[0] < w[1], "not increasing: {v:?}");
        }
    }

    #[test]
    fn classic_lis() {
        let seq = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let lis = lis(&seq);
        assert_eq!(lis.len(), 4); // e.g. 1,4,5,9 or 3,4,5,6
        assert_increasing(&values_of(&seq, &lis));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(lis(&[]).is_empty());
        assert_eq!(lis(&[7]), vec![0]);
    }

    #[test]
    fn already_sorted_keeps_everything() {
        let seq: Vec<u64> = (0..100).collect();
        assert_eq!(lis(&seq).len(), 100);
    }

    #[test]
    fn reverse_sorted_keeps_one() {
        let seq: Vec<u64> = (0..50).rev().collect();
        assert_eq!(lis(&seq).len(), 1);
    }

    #[test]
    fn strictness_on_duplicates() {
        let seq = [2u64, 2, 2];
        assert_eq!(lis(&seq).len(), 1);
    }

    #[test]
    fn weighted_prefers_heavy_element() {
        // Sequence [1, 0]: unweighted LIS keeps either; with element 1 (value
        // 0) weighing 10, the heaviest chain is just [1].
        let seq = [1u64, 0];
        let kept = heaviest_increasing_subsequence_by(&seq, |i| if i == 1 { 10 } else { 1 });
        assert_eq!(kept, vec![1]);
    }

    #[test]
    fn weighted_chain_beats_single_heavy() {
        // values 0,1,2 with weights 2 each (total 6) vs value 3 first with
        // weight 5: chain of three wins.
        let seq = [3u64, 0, 1, 2];
        let kept = heaviest_increasing_subsequence_by(&seq, |i| if i == 0 { 5 } else { 2 });
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn figure3_example_exact() {
        // Figure 3: v1..v6 map to w-positions such that v2..v6 are in order
        // and v1 jumped to a later position. Exact algorithm keeps 5 of 6.
        // Model: new positions of v1..v6 = [5, 0, 1, 2, 3, 4].
        let seq = [5u64, 0, 1, 2, 3, 4];
        let kept = lis(&seq);
        assert_eq!(kept, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn figure3_chunked_misses_v4() {
        // The paper: "by cutting both lists in two parts, we would find
        // subsequences (v2,w2),(v3,w3) and (v5,w5),(v6,w6), and thus we miss
        // (v4,w4)". Model six children in old order whose new positions are
        // values = [1, 2, 3, 0, 4, 5], cut into two windows of 3:
        //   window 0 (idx 0..3, values in 0..3): candidates idx {0,1} — idx 2
        //     (the "v4", value 3) is excluded because its value falls in the
        //     second window's value range;
        //   window 1 (idx 3..6, values in 3..6): candidates idx {4,5}.
        // Chunked keeps 4 of 6; the exact algorithm keeps 5.
        let seq = [1u64, 2, 3, 0, 4, 5];
        let exact = lis(&seq);
        assert_eq!(exact.len(), 5);
        let chunked = chunked_heaviest_increasing_by(&seq, 3, |_| 1);
        assert_eq!(chunked, vec![0, 1, 4, 5]);
        assert_increasing(&values_of(&seq, &chunked));
    }

    #[test]
    fn chunked_equals_exact_when_window_covers_all() {
        let seq = [4u64, 2, 7, 1, 8, 3];
        let exact = lis(&seq);
        let chunked = chunked_heaviest_increasing_by(&seq, 100, |_| 1);
        assert_eq!(exact, chunked);
    }

    #[test]
    fn chunked_output_always_increasing_on_random_permutations() {
        // Deterministic pseudo-random permutations via a simple LCG.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in [10usize, 53, 128] {
            let mut perm: Vec<u64> = (0..n as u64).collect();
            for i in (1..n).rev() {
                let j = (rand() % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            for window in [5usize, 50] {
                let kept = chunked_heaviest_increasing_by(&perm, window, |_| 1);
                assert_increasing(&values_of(&perm, &kept));
                let exact = lis(&perm);
                assert!(kept.len() <= exact.len());
            }
        }
    }
}
