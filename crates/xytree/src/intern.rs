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
//! - **Process-lifetime memory.** Interned labels are never freed. That is
//!   the right trade for label-like strings (bounded, heavily repeated) and
//!   why attribute *values* and text content stay `String`.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, RwLock};

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

impl Symbol {
    /// Intern `s`, returning its stable handle. Repeated calls with the same
    /// text return the same handle for the lifetime of the process.
    pub fn intern(s: &str) -> Symbol {
        let lock = interner();
        // INVARIANT: the interner holds no user code, so the lock can only be
        // poisoned by an allocation failure — unrecoverable either way.
        if let Some(&id) = lock.read().expect("interner poisoned").map.get(s) {
            return Symbol(id);
        }
        // INVARIANT: the interner holds no user code, so the lock can only be
        // poisoned by an allocation failure — unrecoverable either way.
        let mut w = lock.write().expect("interner poisoned");
        if let Some(&id) = w.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // INVARIANT: 2^32 distinct labels would exhaust memory long before
        // the table overflows; this is a capacity invariant, not input-driven.
        let id = u32::try_from(w.strings.len()).expect("intern table overflow");
        w.strings.push(leaked);
        w.map.insert(leaked, id);
        Symbol(id)
    }

    /// The handle for `s` if it was ever interned; never inserts. Useful for
    /// lookups keyed by [`Symbol`] when the query string may be novel (a
    /// never-interned label cannot possibly be a key).
    pub fn lookup(s: &str) -> Option<Symbol> {
        // INVARIANT: the interner holds no user code, so the lock can only be
        // poisoned by an allocation failure — unrecoverable either way.
        interner().read().expect("interner poisoned").map.get(s).map(|&id| Symbol(id))
    }

    /// The label text. `'static` because interned strings live as long as
    /// the process.
    #[inline]
    pub fn as_str(&self) -> &'static str {
        // INVARIANT: the interner holds no user code, so the lock can only be
        // poisoned by an allocation failure — unrecoverable either way.
        interner().read().expect("interner poisoned").strings[self.0 as usize]
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
}
