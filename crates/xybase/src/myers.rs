//! Myers' shortest-edit-script algorithm (the engine of Unix `diff`).
//!
//! This is the linear-space divide-and-conquer refinement: `O((N+M)·D)` time
//! and `O(N+M)` space, recursing on the *middle snake* of each box. The
//! string edit problem is the root of the whole diff family the paper
//! surveys in §3 ("the basis of edit distances and minimum edit script is
//! the string edit problem"); we need it both as the Unix-diff comparator of
//! Figure 6 and as the core of the DiffMK baseline.

/// One step of an edit script over two sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Element present in both sequences (old index, new index).
    Keep(usize, usize),
    /// Element deleted from the old sequence (old index).
    Delete(usize),
    /// Element inserted from the new sequence (new index).
    Insert(usize),
}

/// Compute a shortest edit script between `a` and `b`.
///
/// Works on any `PartialEq` items; callers hash lines/tokens to `u64` first
/// for speed.
pub fn diff_slices<T: PartialEq>(a: &[T], b: &[T]) -> Vec<Edit> {
    let mut edits = Vec::new();
    let path = find_path(a, b, BBox { left: 0, top: 0, right: a.len(), bottom: b.len() });
    walk_snakes(a, b, &path, &mut edits);
    edits
}

/// A sub-rectangle of the edit graph: old indices `left..right`, new indices
/// `top..bottom`.
#[derive(Debug, Clone, Copy)]
struct BBox {
    left: usize,
    top: usize,
    right: usize,
    bottom: usize,
}

impl BBox {
    fn width(&self) -> isize {
        (self.right - self.left) as isize
    }
    fn height(&self) -> isize {
        (self.bottom - self.top) as isize
    }
    fn size(&self) -> isize {
        self.width() + self.height()
    }
    fn delta(&self) -> isize {
        self.width() - self.height()
    }
}

/// Ring-buffer view over the k-diagonal arrays (k may be negative).
#[inline]
fn ring(v: &[isize], k: isize) -> isize {
    let n = v.len() as isize;
    v[(((k % n) + n) % n) as usize]
}

#[inline]
fn ring_set(v: &mut [isize], k: isize, value: isize) {
    let n = v.len() as isize;
    v[(((k % n) + n) % n) as usize] = value;
}

type Snake = ((usize, usize), (usize, usize));

/// The midpoint ("middle snake") of the shortest path through `bbox`.
fn midpoint<T: PartialEq>(a: &[T], b: &[T], bbox: BBox) -> Option<Snake> {
    if bbox.size() == 0 {
        return None;
    }
    let max = (bbox.size() + 1) / 2;
    let len = (2 * max + 1) as usize;
    let mut vf = vec![0isize; len];
    let mut vb = vec![0isize; len];
    ring_set(&mut vf, 1, bbox.left as isize);
    ring_set(&mut vb, 1, bbox.bottom as isize);
    for d in 0..=max {
        if let Some(s) = forwards(a, b, bbox, &mut vf, &vb, d) {
            return Some(s);
        }
        if let Some(s) = backward(a, b, bbox, &vf, &mut vb, d) {
            return Some(s);
        }
    }
    None
}

fn forwards<T: PartialEq>(
    a: &[T],
    b: &[T],
    bbox: BBox,
    vf: &mut [isize],
    vb: &[isize],
    d: isize,
) -> Option<Snake> {
    let delta = bbox.delta();
    let mut k = d;
    while k >= -d {
        let c = k - delta;
        let (px, mut x);
        if k == -d || (k != d && ring(vf, k - 1) < ring(vf, k + 1)) {
            x = ring(vf, k + 1);
            px = x;
        } else {
            px = ring(vf, k - 1);
            x = px + 1;
        }
        let mut y = bbox.top as isize + (x - bbox.left as isize) - k;
        let py = if d == 0 || x != px { y } else { y - 1 };
        while x < bbox.right as isize
            && y < bbox.bottom as isize
            && a[x as usize] == b[y as usize]
        {
            x += 1;
            y += 1;
        }
        ring_set(vf, k, x);
        if delta % 2 != 0 && (-(d - 1)..=d - 1).contains(&c) && y >= ring(vb, c) {
            return Some(((px as usize, py as usize), (x as usize, y as usize)));
        }
        k -= 2;
    }
    None
}

fn backward<T: PartialEq>(
    a: &[T],
    b: &[T],
    bbox: BBox,
    vf: &[isize],
    vb: &mut [isize],
    d: isize,
) -> Option<Snake> {
    let delta = bbox.delta();
    let mut c = d;
    while c >= -d {
        let k = c + delta;
        let (py, mut y);
        if c == -d || (c != d && ring(vb, c - 1) > ring(vb, c + 1)) {
            y = ring(vb, c + 1);
            py = y;
        } else {
            py = ring(vb, c - 1);
            y = py - 1;
        }
        let mut x = bbox.left as isize + (y - bbox.top as isize) + k;
        let px = if d == 0 || y != py { x } else { x + 1 };
        while x > bbox.left as isize
            && y > bbox.top as isize
            && a[(x - 1) as usize] == b[(y - 1) as usize]
        {
            x -= 1;
            y -= 1;
        }
        ring_set(vb, c, y);
        if delta % 2 == 0 && (-d..=d).contains(&k) && x <= ring(vf, k) {
            return Some(((x as usize, y as usize), (px as usize, py as usize)));
        }
        c -= 2;
    }
    None
}

/// The full path (list of corner points) of one shortest edit script.
fn find_path<T: PartialEq>(a: &[T], b: &[T], bbox: BBox) -> Vec<(usize, usize)> {
    let Some((start, finish)) = midpoint(a, b, bbox) else {
        return Vec::new();
    };
    let head = find_path(a, b, BBox { left: bbox.left, top: bbox.top, right: start.0, bottom: start.1 });
    let tail = find_path(a, b, BBox { left: finish.0, top: finish.1, right: bbox.right, bottom: bbox.bottom });
    let mut path = if head.is_empty() { vec![start] } else { head };
    if tail.is_empty() {
        path.push(finish);
    } else {
        path.extend(tail);
    }
    path
}

/// Convert the corner-point path into an edit script.
fn walk_snakes<T: PartialEq>(
    a: &[T],
    b: &[T],
    path: &[(usize, usize)],
    out: &mut Vec<Edit>,
) {
    if path.is_empty() {
        // Both sequences empty.
        return;
    }
    let emit_diagonal = |x1: &mut usize, y1: &mut usize, x2: usize, y2: usize, out: &mut Vec<Edit>| {
        while *x1 < x2 && *y1 < y2 && a[*x1] == b[*y1] {
            out.push(Edit::Keep(*x1, *y1));
            *x1 += 1;
            *y1 += 1;
        }
    };
    for w in path.windows(2) {
        let (mut x1, mut y1) = w[0];
        let (x2, y2) = w[1];
        emit_diagonal(&mut x1, &mut y1, x2, y2, out);
        use std::cmp::Ordering;
        match (x2 as isize - x1 as isize).cmp(&(y2 as isize - y1 as isize)) {
            Ordering::Less => {
                out.push(Edit::Insert(y1));
                y1 += 1;
            }
            Ordering::Greater => {
                out.push(Edit::Delete(x1));
                x1 += 1;
            }
            Ordering::Equal => {}
        }
        emit_diagonal(&mut x1, &mut y1, x2, y2, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of non-keep steps (the D of the shortest edit script).
    fn edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        diff_slices(a, b).iter().filter(|e| !matches!(e, Edit::Keep(..))).count()
    }

    /// Reference LCS length by quadratic DP — the oracle for minimality.
    fn lcs_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        let mut dp = vec![vec![0usize; b.len() + 1]; a.len() + 1];
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                dp[i][j] = if a[i - 1] == b[j - 1] {
                    dp[i - 1][j - 1] + 1
                } else {
                    dp[i - 1][j].max(dp[i][j - 1])
                };
            }
        }
        dp[a.len()][b.len()]
    }

    /// Check script validity: replays to `b`, and keeps form an LCS.
    fn check<T: PartialEq + Clone + std::fmt::Debug>(a: &[T], b: &[T]) {
        let script = diff_slices(a, b);
        // Replay.
        let mut rebuilt: Vec<T> = Vec::new();
        let mut ai = 0usize;
        for e in &script {
            match *e {
                Edit::Keep(x, y) => {
                    assert_eq!(a[x], b[y], "keep must pair equal items");
                    assert_eq!(x, ai, "keeps/deletes must consume a in order");
                    rebuilt.push(b[y].clone());
                    ai += 1;
                }
                Edit::Delete(x) => {
                    assert_eq!(x, ai);
                    ai += 1;
                }
                Edit::Insert(y) => rebuilt.push(b[y].clone()),
            }
        }
        assert_eq!(ai, a.len(), "script must consume all of a");
        assert_eq!(&rebuilt, b, "script must rebuild b");
        // Minimality.
        let keeps = script.iter().filter(|e| matches!(e, Edit::Keep(..))).count();
        assert_eq!(keeps, lcs_len(a, b), "keeps must form a longest common subsequence");
    }

    #[test]
    fn textbook_example() {
        // Myers' paper example: ABCABBA -> CBABAC, D = 5.
        let a: Vec<char> = "ABCABBA".chars().collect();
        let b: Vec<char> = "CBABAC".chars().collect();
        check(&a, &b);
        assert_eq!(edit_distance(&a, &b), 5);
    }

    #[test]
    fn identical_sequences() {
        let a = [1, 2, 3];
        check(&a, &a);
        assert_eq!(edit_distance(&a, &a), 0);
    }

    #[test]
    fn empty_cases() {
        let empty: [u8; 0] = [];
        check(&empty, &empty);
        check(&empty, &[1u8, 2]);
        check(&[1u8, 2], &empty);
        assert_eq!(edit_distance(&empty, &[1u8, 2, 3]), 3);
    }

    #[test]
    fn complete_replacement() {
        let a = [1, 2, 3];
        let b = [4, 5];
        check(&a, &b);
        assert_eq!(edit_distance(&a, &b), 5);
    }

    #[test]
    fn single_insertion_and_deletion() {
        check(&[1, 2, 4], &[1, 2, 3, 4]);
        check(&[1, 2, 3, 4], &[1, 2, 4]);
        assert_eq!(edit_distance(&[1, 2, 4], &[1, 2, 3, 4]), 1);
    }

    #[test]
    fn repeated_elements() {
        let a = [1, 1, 1, 2, 1, 1];
        let b = [1, 1, 2, 1, 1, 1];
        check(&a, &b);
    }

    #[test]
    fn randomized_against_dp_oracle() {
        // Deterministic LCG so failures reproduce.
        let mut state = 42u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..200 {
            let n = rand() % 24;
            let m = rand() % 24;
            let a: Vec<u8> = (0..n).map(|_| (rand() % 4) as u8).collect();
            let b: Vec<u8> = (0..m).map(|_| (rand() % 4) as u8).collect();
            check(&a, &b);
        }
    }

    #[test]
    fn large_sequences_stay_fast_and_correct() {
        // 20k lines with sparse edits: linear-space recursion must cope.
        let a: Vec<u32> = (0..20_000).collect();
        let mut b = a.clone();
        b[5_000] = 999_999;
        b.remove(10_000);
        b.insert(15_000, 888_888);
        let script = diff_slices(&a, &b);
        let non_keep = script.iter().filter(|e| !matches!(e, Edit::Keep(..))).count();
        assert_eq!(non_keep, 4); // 1 replace (=del+ins) + 1 del + 1 ins
    }
}
