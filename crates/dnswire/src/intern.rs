//! Interned DNS labels.
//!
//! Every [`Label`] is a handle into a process-wide arena of leaked,
//! deduplicated label strings. Interning makes label copies free —
//! [`DnsName`](crate::name::DnsName) clones copy a `Vec` of thin handles
//! instead of re-allocating every string — and lets the wire codec hand
//! out label text with no allocation at all.
//!
//! The arena is append-only and lives for the process (labels must stay
//! valid for as long as any `Label` does, and names outlive any one
//! campaign). Growth is bounded in practice: a campaign's vocabulary is
//! the topology's hostnames plus the handful of flight-sampled
//! measurement subdomains. The insert path is the definition of
//! copy-on-miss cold work, so it runs under
//! [`dohperf_telemetry::alloc::exempt_scope`] and never counts against
//! the steady-state allocation gate.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Longest label the wire format can carry (6-bit length octet).
const MAX_LABEL: usize = 63;

/// A handle to an interned, lowercase label string.
///
/// Equality first compares arena pointers (identical for identical
/// strings, since the arena dedups) and falls back to content; ordering
/// and hashing use the string content, so collections of labels behave
/// exactly like the `String` labels they replaced.
#[derive(Clone, Copy)]
pub struct Label(&'static str);

impl Label {
    /// The label text (always lowercase).
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// The label bytes.
    pub fn as_bytes(&self) -> &'static [u8] {
        self.0.as_bytes()
    }

    /// Length in bytes.
    #[allow(clippy::len_without_is_empty)] // empty labels are unrepresentable
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}
impl Eq for Label {}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Label {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(other.0)
    }
}

impl std::hash::Hash for Label {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

fn arena() -> &'static Mutex<HashSet<&'static str>> {
    static ARENA: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    ARENA.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Intern an already-lowercase label. Hits are allocation-free; misses
/// leak one copy into the arena under an exempt scope.
pub fn intern(label: &str) -> Label {
    debug_assert!(!label.bytes().any(|b| b.is_ascii_uppercase()));
    let mut set = arena().lock().expect("label arena poisoned");
    if let Some(&found) = set.get(label) {
        return Label(found);
    }
    let _cold = dohperf_telemetry::alloc::exempt_scope();
    let leaked: &'static str = Box::leak(label.to_owned().into_boxed_str());
    set.insert(leaked);
    Label(leaked)
}

/// Intern a label given as raw bytes, normalising ASCII to lowercase on a
/// stack buffer (no allocation on the hit path). Bytes that are not valid
/// ASCII take the slow lossy-decode path the old `String` reader used.
pub fn intern_bytes_lossy_lower(bytes: &[u8]) -> Label {
    if bytes.len() <= MAX_LABEL && bytes.is_ascii() {
        let mut stack = [0u8; MAX_LABEL];
        let dst = &mut stack[..bytes.len()];
        dst.copy_from_slice(bytes);
        dst.make_ascii_lowercase();
        let s = std::str::from_utf8(dst).expect("ASCII is valid UTF-8");
        intern(s)
    } else {
        // Replacement characters and oversized input: rare, cold, allowed
        // to allocate a scratch string before interning.
        let _cold = dohperf_telemetry::alloc::exempt_scope();
        let s = String::from_utf8_lossy(bytes).to_ascii_lowercase();
        intern(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_to_one_pointer() {
        let a = intern("example");
        let b = intern("example");
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_labels_differ() {
        assert_ne!(intern("alpha"), intern("beta"));
        assert!(intern("alpha") < intern("beta"));
    }

    #[test]
    fn byte_interning_lowercases_ascii() {
        assert_eq!(intern_bytes_lossy_lower(b"WWW"), intern("www"));
        assert_eq!(intern_bytes_lossy_lower(b"MiXeD-09"), intern("mixed-09"));
    }

    #[test]
    fn non_ascii_bytes_match_the_lossy_string_path() {
        let raw: &[u8] = &[0x66, 0xff, 0x6f]; // f <invalid> o
        let expected = String::from_utf8_lossy(raw).to_ascii_lowercase();
        assert_eq!(intern_bytes_lossy_lower(raw).as_str(), expected);
    }

    #[test]
    fn hash_matches_str_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h1 = {
            let mut h = DefaultHasher::new();
            intern("www").hash(&mut h);
            h.finish()
        };
        let h2 = {
            let mut h = DefaultHasher::new();
            "www".hash(&mut h);
            h.finish()
        };
        assert_eq!(h1, h2);
    }
}
