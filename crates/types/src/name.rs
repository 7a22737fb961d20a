//! Interned protocol and field names, and the field vector keyed by them.
//!
//! Tenants define headers at runtime (paper §2), so a packet cannot use a
//! fixed struct of fields: it names them. A [`Name`] is such a name,
//! interned once in a process-global, append-only table, so every copy of
//! one string is the same pointer and `Name == Name` is a pointer compare.
//! [`Fields`] is the per-header (and per-packet metadata) field vector: a
//! `Vec<(Name, u64)>` kept sorted by string, so its iteration order,
//! equality and `Debug` output are those of a `BTreeMap<String, u64>`.
//!
//! The built-in protocols, their fields and the sim engine's per-hop keys
//! are `static`s in [`names`], registered in the table before any other
//! name: hot code uses them directly, with no lock and no hashing.
//! [`Name::new`] interns under a lock and is meant for install/compile
//! time, tests, and constructors that take arbitrary strings. Interned
//! strings are leaked; wire parsing never creates a name, so the table is
//! bounded by the distinct names of installed programs.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::ops::{Deref, Index};
use std::sync::{Mutex, OnceLock};

/// An interned protocol or field name: `Copy`, 16 bytes, compared by
/// pointer and ordered by string.
#[derive(Clone, Copy, Serialize, Deserialize)]
pub struct Name(&'static str);

/// The well-known names, registered before any other. Using these never
/// touches the interner.
pub mod names {
    use super::Name;

    macro_rules! well_known {
        ($($id:ident = $s:literal),* $(,)?) => {
            $(
                #[doc = concat!("`", $s, "`")]
                pub static $id: Name = Name($s);
            )*
            /// Every well-known name, in declaration order.
            pub(super) fn all() -> impl Iterator<Item = Name> {
                [$($id),*].into_iter()
            }
        };
    }

    well_known! {
        ETH = "eth", VLAN = "vlan", IPV4 = "ipv4", TCP = "tcp", UDP = "udp",
        ARP = "arp", GRE = "gre",
        // The pseudo-protocol of packet metadata in dotted paths.
        META = "meta",
        SRC = "src", DST = "dst", ETHERTYPE = "ethertype",
        VID = "vid", PCP = "pcp",
        PROTO = "proto", TTL = "ttl", ECN = "ecn", DSCP = "dscp",
        SPORT = "sport", DPORT = "dport", FLAGS = "flags", SEQ = "seq",
        ACK = "ack", WINDOW = "window",
        // Metadata keys the sim engine reads or writes on every hop.
        HOPS = "hops", DST_NODE = "dst_node",
    }
}

fn interner() -> &'static Mutex<HashSet<&'static str>> {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(names::all().map(|n| n.0).collect()))
}

impl Name {
    /// Interns `s`, returning the one `Name` for that string. Takes a
    /// global lock; hot paths use the statics in [`names`] or names
    /// resolved at install time instead.
    pub fn new(s: &str) -> Name {
        let mut table = interner().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&interned) = table.get(s) {
            return Name(interned);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        table.insert(leaked);
        Name(leaked)
    }

    /// The name's string.
    #[inline]
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Deref for Name {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.0
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.0
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A name to look up: a [`Name`] matches by pointer, a string by content.
///
/// Lookups on [`Fields`] and on a packet's header stack take any
/// `NameKey`, so `"ipv4"` keeps working for tests and tools while hot
/// paths pass interned names.
pub trait NameKey: Copy {
    /// Whether `name` is this key.
    fn is(self, name: Name) -> bool;
    /// This key's position in `entries` (sorted by string): `Ok` at its
    /// index, `Err` at the index it would be inserted at.
    fn search(self, entries: &[(Name, u64)]) -> Result<usize, usize>;
    /// This key as a `Name`; interns a string.
    fn name(self) -> Name;
}

impl NameKey for Name {
    #[inline]
    fn is(self, name: Name) -> bool {
        self == name
    }

    #[inline]
    fn search(self, entries: &[(Name, u64)]) -> Result<usize, usize> {
        match entries.iter().position(|&(k, _)| k == self) {
            Some(i) => Ok(i),
            None => Err(entries.partition_point(|(k, _)| k.0 < self.0)),
        }
    }

    #[inline]
    fn name(self) -> Name {
        self
    }
}

impl NameKey for &str {
    #[inline]
    fn is(self, name: Name) -> bool {
        name.0 == self
    }

    #[inline]
    fn search(self, entries: &[(Name, u64)]) -> Result<usize, usize> {
        match entries.iter().position(|&(k, _)| k.0 == self) {
            Some(i) => Ok(i),
            None => Err(entries.partition_point(|(k, _)| k.0 < self)),
        }
    }

    fn name(self) -> Name {
        Name::new(self)
    }
}

impl NameKey for &String {
    #[inline]
    fn is(self, name: Name) -> bool {
        self.as_str().is(name)
    }

    #[inline]
    fn search(self, entries: &[(Name, u64)]) -> Result<usize, usize> {
        self.as_str().search(entries)
    }

    fn name(self) -> Name {
        Name::new(self)
    }
}

/// Field name → value, as a vector sorted by string.
///
/// A drop-in for the `BTreeMap<String, u64>` it replaces: the same method
/// names, iteration order, equality and `Debug` output. One allocation
/// holds all of a header's fields.
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fields(Vec<(Name, u64)>);

impl Fields {
    /// An empty field vector.
    pub const fn new() -> Fields {
        Fields(Vec::new())
    }

    /// Wraps entries already sorted by string with distinct names — the
    /// allocation-lean constructor for fixed-shape headers.
    #[inline]
    pub fn from_sorted(entries: Vec<(Name, u64)>) -> Fields {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 .0 < w[1].0 .0),
            "entries not strictly sorted: {entries:?}"
        );
        Fields(entries)
    }

    /// The value of `key`, if present.
    #[inline]
    pub fn get(&self, key: impl NameKey) -> Option<&u64> {
        key.search(&self.0).ok().map(|i| &self.0[i].1)
    }

    /// The value of `key`, mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, key: impl NameKey) -> Option<&mut u64> {
        key.search(&self.0).ok().map(|i| &mut self.0[i].1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: impl NameKey) -> bool {
        key.search(&self.0).is_ok()
    }

    /// Sets `key` to `value`, returning the previous value. A string key
    /// is interned only when it is not already present.
    #[inline]
    pub fn insert(&mut self, key: impl NameKey, value: u64) -> Option<u64> {
        match key.search(&self.0) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key.name(), value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: impl NameKey) -> Option<u64> {
        let i = key.search(&self.0).ok()?;
        Some(self.0.remove(i).1)
    }

    /// Entries in string order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&Name, &u64)> + ExactSizeIterator {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// Names in string order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Name> + ExactSizeIterator {
        self.0.iter().map(|(k, _)| k)
    }

    /// Values in name order, mutably.
    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut u64> + ExactSizeIterator {
        self.0.iter_mut().map(|(_, v)| v)
    }

    /// The number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no fields.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every field, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.0.clear()
    }
}

impl<K: NameKey> FromIterator<(K, u64)> for Fields {
    /// Like `BTreeMap::from_iter`: sorted by name, and the last value of a
    /// repeated name wins.
    fn from_iter<I: IntoIterator<Item = (K, u64)>>(iter: I) -> Fields {
        let mut fields = Fields::new();
        for (k, v) in iter {
            fields.insert(k, v);
        }
        fields
    }
}

impl<K: NameKey> Index<K> for Fields {
    type Output = u64;

    fn index(&self, key: K) -> &u64 {
        self.get(key).expect("no field with that name")
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(k, v)| (k.0, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn well_known_names_are_the_interned_ones() {
        for n in names::all() {
            assert_eq!(Name::new(n.as_str()), n);
            assert!(std::ptr::eq(Name::new(n.as_str()).as_str(), n.as_str()));
        }
        assert_eq!(std::mem::size_of::<Name>(), 16);
    }

    #[test]
    fn distinct_strings_are_distinct_names() {
        let a = Name::new("tenant_x");
        assert_eq!(a, Name::new(&String::from("tenant_x")));
        assert_ne!(a, Name::new("tenant_y"));
        assert_ne!(names::SRC, names::SPORT);
        assert_eq!(a, "tenant_x");
        assert_eq!("tenant_x", a);
        assert!(Name::new("a") < Name::new("b"));
    }

    #[test]
    fn fields_mirror_a_btreemap() {
        let mut f = Fields::new();
        let mut m = BTreeMap::new();
        for (k, v) in [("ttl", 1), ("src", 2), ("zz_new", 3), ("ttl", 4), ("", 5)] {
            assert_eq!(f.insert(k, v), m.insert(k.to_string(), v));
        }
        assert_eq!(format!("{f:?}"), format!("{m:?}"));
        assert_eq!(f.get("ttl"), Some(&4));
        assert_eq!(f.get(names::TTL), Some(&4));
        assert_eq!(f["src"], 2);
        assert_eq!(f.remove("src"), Some(2));
        assert!(!f.contains_key(names::SRC));
        let keys: Vec<&str> = f.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, ["", "ttl", "zz_new"]);
        let collected: Fields = [("b", 1), ("a", 2), ("b", 3)].into_iter().collect();
        assert_eq!(format!("{collected:?}"), r#"{"a": 2, "b": 3}"#);
    }
}
