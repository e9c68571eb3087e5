//! Deterministic text generation shared by the document generator and the
//! change simulator.

use rand::Rng;

const WORDS: &[&str] = &[
    "data", "warehouse", "version", "delta", "change", "catalog", "product",
    "digital", "camera", "price", "discount", "network", "service", "query",
    "index", "crawler", "document", "element", "subtree", "signature",
    "weight", "match", "order", "label", "content", "storage", "system",
    "module", "update", "monitor", "alpha", "beta", "gamma", "delta2",
    "orange", "violet", "crimson", "amber", "cobalt", "jade", "onyx",
    "quartz", "topaz", "zephyr", "harbor", "meadow", "summit", "valley",
];

/// `n` space-separated pseudo-random words.
pub(crate) fn words(rng: &mut impl Rng, n: usize) -> String {
    let mut s = String::with_capacity(n * 7);
    for i in 0..n {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    s
}

/// A sentence whose length is drawn from `min..=max` words.
pub(crate) fn sentence(rng: &mut impl Rng, min: usize, max: usize) -> String {
    let n = rng.gen_range(min..=max.max(min));
    words(rng, n)
}

/// "Original" replacement/insertion text carrying a counter, as the paper's
/// simulator does ("we can just insert any original text using counters") —
/// guaranteed never to collide with generated document content.
pub(crate) fn counter_text(counter: &mut u64, rng: &mut impl Rng) -> String {
    *counter += 1;
    format!("{} [fresh-{}]", sentence(rng, 2, 6), counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn words_are_deterministic_per_seed() {
        let a = words(&mut StdRng::seed_from_u64(7), 10);
        let b = words(&mut StdRng::seed_from_u64(7), 10);
        assert_eq!(a, b);
        assert_eq!(a.split(' ').count(), 10);
    }

    #[test]
    fn counter_text_is_unique() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = 0;
        let a = counter_text(&mut c, &mut rng);
        let b = counter_text(&mut c, &mut rng);
        assert_ne!(a, b);
        assert!(a.contains("[fresh-1]"));
        assert!(b.contains("[fresh-2]"));
    }

    #[test]
    fn sentence_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let s = sentence(&mut rng, 2, 5);
            let n = s.split(' ').count();
            assert!((2..=5).contains(&n));
        }
    }
}
