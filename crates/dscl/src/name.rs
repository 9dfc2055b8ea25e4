//! Shared names.
//!
//! Every activity, service, guard and branch value a constraint set
//! mentions is a [`Name`]: an immutable string behind a reference count.
//! The merge (§4.2) makes one `Name` per declared node, guard and distinct
//! domain value, and every relation, output set and execution condition
//! derived from it shares those, so cloning or dropping a constraint set
//! bumps reference counts instead of copying strings.
//!
//! A `Name` behaves as the string it holds: it hashes, compares, orders
//! and prints exactly like the same `String`, so maps keyed by `Name` are
//! looked up by `&str`, `BTreeSet<Name>` iterates in byte order, and
//! digests over names do not change.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable shared name (see the module docs).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if both names share one allocation.
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::from(s))
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name::from(s.as_str())
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.0.as_ref().to_owned()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

macro_rules! eq_both_ways {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Name {
            fn eq(&self, other: &$t) -> bool {
                *self.0 == **other
            }
        }
        impl PartialEq<Name> for $t {
            fn eq(&self, other: &Name) -> bool {
                **self == *other.0
            }
        }
    )*};
}

eq_both_ways!(&str, String);

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        *self == *other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateRef;
    use dscweaver_graph::{FxHashMap, FxHasher};
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;
    use std::hash::{Hash, Hasher};

    fn hash_with<H: Hasher + Default>(v: &impl Hash) -> u64 {
        let mut h = H::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn maps_keyed_by_name_look_up_by_str() {
        let mut fx: FxHashMap<Name, u32> = FxHashMap::default();
        let mut bt: BTreeMap<Name, u32> = BTreeMap::new();
        for (i, s) in ["if_au", "invPurchase_po", "", "ä"].into_iter().enumerate() {
            fx.insert(Name::from(s), i as u32);
            bt.insert(Name::from(s.to_string()), i as u32);
        }
        for (i, s) in ["if_au", "invPurchase_po", "", "ä"].into_iter().enumerate() {
            assert_eq!(fx.get(s), Some(&(i as u32)));
            assert_eq!(bt.get(s), Some(&(i as u32)));
        }
        assert_eq!(fx.get("missing"), None);
        assert_eq!(bt.get("missing"), None);
    }

    #[test]
    fn hashes_like_the_same_string() {
        for s in ["", "a", "recClient_po", "Purchase_d", "ünïcode"] {
            let (n, owned) = (Name::from(s), s.to_string());
            assert_eq!(hash_with::<FxHasher>(&n), hash_with::<FxHasher>(&owned));
            assert_eq!(
                hash_with::<DefaultHasher>(&n),
                hash_with::<DefaultHasher>(&owned)
            );
        }
        // Tuples of names too (relations hash their endpoints in order).
        let pair = (Name::from("a"), Name::from("b"));
        let owned = ("a".to_string(), "b".to_string());
        assert_eq!(hash_with::<FxHasher>(&pair), hash_with::<FxHasher>(&owned));
    }

    #[test]
    fn ord_is_byte_order() {
        let words = ["b", "B", "a", "ab", "", "a_1", "a1", "Z", "é", "e"];
        let mut names: Vec<Name> = words.iter().map(|&s| Name::from(s)).collect();
        let mut strings: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        names.sort();
        strings.sort();
        assert_eq!(names, strings);
        let mut bytes: Vec<&[u8]> = words.iter().map(|s| s.as_bytes()).collect();
        bytes.sort();
        let sorted: Vec<&[u8]> = names.iter().map(|n| n.as_bytes()).collect();
        assert_eq!(sorted, bytes);
    }

    #[test]
    fn display_and_debug_match_string() {
        for s in ["", "a", "quote\"d", "tab\t", "ünï"] {
            let (n, owned) = (Name::from(s), s.to_string());
            assert_eq!(format!("{n}"), format!("{owned}"));
            assert_eq!(format!("{n:?}"), format!("{owned:?}"));
            assert_eq!(format!("{n:>8}|{n:<8}"), format!("{owned:>8}|{owned:<8}"));
        }
        let sr = StateRef::finish("a");
        assert_eq!(
            format!("{sr:?}"),
            r#"StateRef { activity: "a", state: Finish }"#
        );
    }

    #[test]
    fn compares_with_strings_both_ways() {
        let (n, s) = (Name::from("x"), String::from("x"));
        assert!(PartialEq::<&str>::eq(&n, &"x") && PartialEq::<Name>::eq(&"x", &n));
        assert!(PartialEq::<str>::eq(&n, "x") && PartialEq::<Name>::eq("x", &n));
        assert!(PartialEq::<String>::eq(&n, &s) && PartialEq::<Name>::eq(&s, &n));
        assert!(n != "y");
        assert_eq!(String::from(n.clone()), "x");
        let m = n.clone();
        assert!(Name::ptr_eq(&n, &m));
        assert!(!Name::ptr_eq(&n, &Name::from("x")));
    }
}
