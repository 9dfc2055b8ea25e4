//! Process texts for the daemon workloads.
//!
//! Process `i` is a guarded diamond (switch `g<i>` on a written variable,
//! two cases, a join) followed by a tail of [`STRUCT_BITS`] activities whose
//! read/write directions spell `i` in binary. Renaming cannot erase those
//! directions, so distinct indexes never share a canonical form, while the
//! same index under two tags is an alpha-variant of one process. Every
//! identifier ends in the tenant tag, so a body rendered in one tag's names
//! turns into another tag's body by replacing the tag.

use dscweaver_prng::{splitmix64, Rng};

/// Bits of the index encoded structurally.
const STRUCT_BITS: usize = 16;

/// Number of structurally distinct processes.
const SPACE: usize = 1 << STRUCT_BITS;

/// The text of process `i`, every identifier suffixed with `tag`.
pub fn text(i: usize, tag: &str) -> String {
    assert!(
        i < SPACE,
        "process index {i} beyond the structural encoding"
    );
    let tail: String = (0..STRUCT_BITS)
        .map(|b| {
            let verb = if i >> b & 1 == 1 { "writes" } else { "reads" };
            format!("  assign b{b}_{i}{tag} {verb} v{i}{tag};\n")
        })
        .collect();
    format!(
        "process p{i}{tag} {{\n var s{i}{tag}; var v{i}{tag};\n sequence {{\n  assign init{i}{tag} writes s{i}{tag};\n  switch g{i}{tag} reads s{i}{tag} {{\n   case T {{ assign x{i}{tag} writes v{i}{tag}; }}\n   case F {{ assign y{i}{tag} writes v{i}{tag}; }}\n  }}\n  assign j{i}{tag} reads v{i}{tag};\n{tail} }}\n}}"
    )
}

/// The switch activity of process `i` under `tag` (the `?branch=` guard).
pub fn guard(i: usize, tag: &str) -> String {
    format!("g{i}{tag}")
}

/// Tenant tags: `_` plus eight hex digits, a bijection of `(lane,
/// counter)` for one seed, so no two tags of a run collide as long as the
/// counter stays below 2^28.
#[derive(Clone, Copy)]
pub struct Tags {
    mask: u32,
}

impl Tags {
    /// Tags derived from the workload seed.
    pub fn new(seed: u64) -> Tags {
        let mut s = seed ^ 0x7461_6773;
        Tags {
            mask: splitmix64(&mut s) as u32,
        }
    }

    /// The `counter`-th tag of `lane` (`lane < 16`).
    pub fn tag(&self, lane: u32, counter: u32) -> String {
        assert!(
            lane < 16 && counter < 1 << 28,
            "tag ({lane}, {counter}) out of range"
        );
        format!("_{:08x}", self.mask ^ (lane << 28 | counter))
    }

    /// The tag every pre-warmed process is submitted under.
    pub fn base(&self) -> String {
        self.tag(15, (1 << 28) - 1)
    }
}

/// Every process index, in seeded order.
pub fn shuffled_indexes(rng: &mut Rng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..SPACE).collect();
    rng.shuffle(&mut all);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_serve::canonicalize;

    #[test]
    fn indexes_are_canonically_distinct_and_tags_are_variants() {
        let tags = Tags::new(3);
        let a = canonicalize(&text(5, &tags.base())).unwrap();
        let b = canonicalize(&text(6, &tags.base())).unwrap();
        let a2 = canonicalize(&text(5, &tags.tag(0, 1))).unwrap();
        assert_ne!(a.hash, b.hash);
        assert_eq!(a.hash, a2.hash);
        assert_ne!(tags.tag(0, 1), tags.tag(1, 1));
        assert_ne!(tags.tag(0, 1), tags.base());
    }
}
