//! Interned element/attribute labels.
//!
//! XML name sets are tiny compared to document sizes — a 5 MB catalog uses a
//! few dozen distinct tag and attribute names — yet the substrate used to
//! allocate a fresh `String` for every occurrence. A [`Symbol`] is a `u32`
//! handle into a global, append-only intern table: equality is an integer
//! compare, copies are free, and the label text is resolved on demand at the
//! API edge.
//!
//! Design constraints served here:
//!
//! - **Byte-identical outputs.** [`Ord`] and [`Hash`] delegate to the label
//!   *text*, not the handle, so attribute sorting (canonical serialization,
//!   signature computation) and hash-keyed structures behave exactly as they
//!   did with `String` labels, regardless of interning order.
//! - **No dependencies, no unsafe.** The table is a `std` `RwLock` around a
//!   leak-on-insert store; resolved labels are `&'static str`, so reads
//!   escape the lock immediately.
//! - **No lock per name parsed.** The parser interns every element and
//!   attribute name it reads. [`Symbol::intern`] first probes a per-thread
//!   cache keyed by the name text (hashed a word at a time, from a
//!   per-process random state, since the names are input), and only a miss
//!   takes the global lock; the answer is then cached. A worker thread that
//!   parses the same few dozen names all day touches the lock once per name.
//!   The cache holds at most 4 096 names (`THREAD_CACHE_CAP`), so input with
//!   an unbounded number of distinct names grows only the global table (as it
//!   always did); past the cap a name is interned through the lock every
//!   time, with the same result. Cached handles are the global ones, so ids,
//!   [`Ord`], [`Hash`] and [`Symbol::lookup`] are unchanged.
//! - **Process-lifetime memory.** Interned labels are never freed. That is
//!   the right trade for label-like strings (bounded, heavily repeated) and
//!   why attribute *values* and text content stay `String`.

use crate::hash::RandomWordState;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

/// Most names one thread's cache holds.
const THREAD_CACHE_CAP: usize = 4096;

/// An interned label (element or attribute name).
///
/// Cheap to copy and compare; derefs to [`str`] so existing string-ish call
/// sites (`.as_bytes()`, `.len()`, `&sym` where `&str` is expected) keep
/// working.
#[derive(Clone, Copy, Default)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        // Slot 0 is the empty string so `Symbol::default()` needs no lookup.
        RwLock::new(Interner { map: HashMap::from([("", 0)]), strings: vec![""] })
    })
}

/// Read the global table.
#[allow(clippy::expect_used)]
fn read_table() -> RwLockReadGuard<'static, Interner> {
    // INVARIANT: the interner holds no user code, so the lock can only be
    // poisoned by an allocation failure — unrecoverable either way.
    interner().read().expect("interner poisoned")
}

/// A thread's names → handles, keyed by the global table's own text.
/// Its hasher is keyed per process: the names come from the input.
type ThreadCache = HashMap<&'static str, u32, RandomWordState>;

thread_local! {
    static THREAD_CACHE: RefCell<ThreadCache> = RefCell::new(ThreadCache::default());
}

/// Intern `s` in the global table: its handle and the table's copy of it.
fn intern_global(s: &str) -> (u32, &'static str) {
    if let Some((&text, &id)) = read_table().map.get_key_value(s) {
        return (id, text);
    }
    // INVARIANT: as in `read_table`.
    #[allow(clippy::expect_used)]
    let mut w = interner().write().expect("interner poisoned");
    if let Some((&text, &id)) = w.map.get_key_value(s) {
        return (id, text);
    }
    // A name never seen by the process is stored once, for good.
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    // INVARIANT: 2^32 distinct labels would exhaust memory long before
    // the table overflows; this is a capacity invariant, not input-driven.
    #[allow(clippy::expect_used)]
    let id = u32::try_from(w.strings.len()).expect("intern table overflow");
    w.strings.push(leaked);
    w.map.insert(leaked, id);
    (id, leaked)
}

impl Symbol {
    /// Intern `s`, returning its stable handle. Repeated calls with the same
    /// text return the same handle for the lifetime of the process, on every
    /// thread.
    #[inline]
    pub fn intern(s: &str) -> Symbol {
        // `try_with`: a thread tearing down its locals interns through the
        // global table alone.
        if let Ok(Some(id)) = THREAD_CACHE.try_with(|cache| cache.borrow().get(s).copied()) {
            return Symbol(id);
        }
        let (id, text) = intern_global(s);
        let _ = THREAD_CACHE.try_with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.len() < THREAD_CACHE_CAP {
                // A miss — at most once per distinct name per
                // thread, and never past the cap.
                cache.insert(text, id);
            }
        });
        Symbol(id)
    }

    /// The handle for `s` if it was ever interned; never inserts. Useful for
    /// lookups keyed by [`Symbol`] when the query string may be novel (a
    /// never-interned label cannot possibly be a key).
    pub fn lookup(s: &str) -> Option<Symbol> {
        read_table().map.get(s).map(|&id| Symbol(id))
    }

    /// The label text. `'static` because interned strings live as long as
    /// the process.
    #[inline]
    pub fn as_str(&self) -> &'static str {
        read_table().strings[self.0 as usize]
    }

    /// The raw handle value (diagnostics only — not stable across runs).
    #[inline]
    pub fn id(&self) -> u32 {
        self.0
    }

    /// The symbol a handle value obtained from [`Symbol::id`] stands for —
    /// how arena slots store labels in four bytes.
    #[inline]
    pub(crate) fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

impl Deref for Symbol {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Symbol {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Symbol {}

// Hash and Ord go through the text so symbol-keyed maps and name-sorted
// output are independent of interning order (determinism across runs and
// byte-compatibility with the String-labeled substrate).
impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialEq<str> for Symbol {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    #[inline]
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    #[inline]
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    #[inline]
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.as_str().to_owned()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn interning_dedups() {
        let a = Symbol::intern("product");
        let b = Symbol::intern("product");
        let c = Symbol::from(String::from("category"));
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "product");
    }

    #[test]
    fn string_like_comparisons() {
        let s = Symbol::intern("name");
        assert_eq!(s, "name");
        assert_eq!("name", s);
        assert_eq!(s, String::from("name"));
        assert_ne!(s, "other");
        assert_eq!(s.len(), 4);
        assert_eq!(s.as_bytes(), b"name");
        assert_eq!(s.to_string(), "name");
    }

    #[test]
    fn ord_is_string_order_not_id_order() {
        // Intern in reverse lexicographic order: ids disagree with text order.
        let z = Symbol::intern("zzz-ord-test");
        let a = Symbol::intern("aaa-ord-test");
        assert!(a.id() > z.id());
        assert!(a < z, "Ord must follow the text, not the handle");
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, [a, z]);
    }

    #[test]
    fn hash_matches_str_hash() {
        let s = Symbol::intern("price");
        assert_eq!(hash_of(&s), hash_of("price"), "Symbol must hash like its text");
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(Symbol::default().as_str(), "");
        assert_eq!(Symbol::default(), Symbol::intern(""));
    }

    #[test]
    fn lookup_never_inserts() {
        assert!(Symbol::lookup("never-interned-label-xyzzy").is_none());
        let s = Symbol::intern("interned-label-xyzzy");
        assert_eq!(Symbol::lookup("interned-label-xyzzy"), Some(s));
    }

    #[test]
    fn symbol_interned_on_one_thread_resolves_on_another() {
        // Labels interned on a thread that then exits.
        let syms: Vec<Symbol> = std::thread::spawn(|| {
            (0..300).map(|i| Symbol::intern(&format!("cross-thread-{i}"))).collect()
        })
        .join()
        .unwrap();
        for (i, s) in syms.iter().enumerate() {
            let text = format!("cross-thread-{i}");
            assert_eq!(s.as_str(), text);
            assert_eq!(Symbol::lookup(&text), Some(*s));
            assert_eq!(Symbol::intern(&text), *s);
        }
        // And the other way round: this thread's handles resolve elsewhere.
        let here = Symbol::intern("interned-on-the-test-thread");
        let there = std::thread::spawn(move || (here.as_str(), Symbol::intern(here.as_str())));
        assert_eq!(there.join().unwrap(), ("interned-on-the-test-thread", here));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..64).map(|i| Symbol::intern(&format!("conc-{}", (t + i) % 16)).id()).collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (t, ids) in results.iter().enumerate() {
            for (i, &id) in ids.iter().enumerate() {
                let expect = Symbol::intern(&format!("conc-{}", (t + i) % 16)).id();
                assert_eq!(id, expect);
            }
        }
    }

    #[test]
    fn opposite_interning_orders_on_two_threads_agree() {
        let names: Vec<String> = (0..50).map(|i| format!("two-orders-{i}")).collect();
        // Both threads start interning together, so their misses race on
        // the global table.
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let run = |reverse: bool| {
            let names = names.clone();
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut order: Vec<&String> = names.iter().collect();
                if reverse {
                    order.reverse();
                }
                let mut syms: Vec<(String, Symbol)> =
                    order.into_iter().map(|n| (n.clone(), Symbol::intern(n))).collect();
                syms.sort();
                // Second round: every probe is a cache hit now.
                for (n, s) in &syms {
                    assert_eq!(Symbol::intern(n), *s);
                }
                syms
            })
        };
        let (forward, backward) = (run(false), run(true));
        let (forward, backward) = (forward.join().unwrap(), backward.join().unwrap());
        assert_eq!(forward, backward);
        for (n, s) in &forward {
            assert_eq!(s.as_str(), n);
            assert_eq!(Symbol::lookup(n), Some(*s));
        }
    }

    #[test]
    fn a_thread_past_the_cache_cap_still_interns_correctly() {
        let (early, late) = std::thread::spawn(|| {
            let early: Vec<Symbol> =
                (0..THREAD_CACHE_CAP + 100).map(|i| Symbol::intern(&format!("cap-{i}"))).collect();
            let full = THREAD_CACHE.with_borrow(|c| c.len());
            assert_eq!(full, THREAD_CACHE_CAP, "the cache stops at its cap");
            // Past the cap: served by the global table, every time.
            let late: Vec<Symbol> =
                (0..THREAD_CACHE_CAP + 100).map(|i| Symbol::intern(&format!("cap-{i}"))).collect();
            assert_eq!(THREAD_CACHE.with_borrow(|c| c.len()), full);
            (early, late)
        })
        .join()
        .unwrap();
        assert_eq!(early, late);
        for (i, s) in early.iter().enumerate() {
            let text = format!("cap-{i}");
            assert_eq!(s.as_str(), text);
            assert_eq!(Symbol::intern(&text), *s, "another thread agrees");
        }
    }
}
