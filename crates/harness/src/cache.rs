//! On-disk result cache.
//!
//! One JSON file per cell under `target/harness-cache/<sweep>/`. The
//! file name is `<slug>-<key>.json` where `key` hashes everything that
//! determines the result:
//!
//! * the cell's full identity ([`crate::cell::CellSpec::id`] — sweep,
//!   group, label, axis seed, duration, kind + every knob), and
//! * a code-version tag (`git describe --always --dirty`, falling back
//!   to the crate version when git is unavailable),
//!
//! so editing a sweep definition or the engine invalidates exactly the
//! affected cells, and a re-run executes only what changed. Corrupt or
//! unreadable cache files are treated as misses, never errors.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use crate::cell::{fnv1a64, CellResult, CellSpec};

/// The code-version tag folded into every cache key (computed once per
/// process).
pub fn version_tag() -> &'static str {
    static TAG: OnceLock<String> = OnceLock::new();
    TAG.get_or_init(|| {
        let git = Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        match git {
            Some(tag) => tag,
            None => format!("v{}", env!("CARGO_PKG_VERSION")),
        }
    })
}

/// The default cache root: `target/harness-cache` next to the other
/// build products (override with `IQP_CACHE_DIR`).
pub fn default_dir() -> PathBuf {
    match std::env::var("IQP_CACHE_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/harness-cache"),
    }
}

/// A cell-result cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct Cache {
    root: PathBuf,
}

impl Cache {
    /// A cache at the default location.
    pub fn new() -> Self {
        Self::at(default_dir())
    }

    /// A cache rooted at `root`.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The cache file for `spec`.
    pub fn path_for(&self, spec: &CellSpec) -> PathBuf {
        let key = fnv1a64(format!("{}\n{}", spec.id(), version_tag()).as_bytes());
        let slug: String = format!("{}-{}-s{}", spec.group, spec.label, spec.seed)
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root
            .join(&spec.sweep)
            .join(format!("{}-{key:016x}.json", slug.trim_matches('-')))
    }

    /// Fetches a cached result, if a valid one exists for this exact
    /// spec + code version.
    pub fn get(&self, spec: &CellSpec) -> Option<CellResult> {
        let text = std::fs::read_to_string(self.path_for(spec)).ok()?;
        let result = CellResult::from_text(&text).ok()?;
        // Defensive: the key already encodes the id, but a hash
        // collision or hand-edited file must not impersonate a cell.
        (result.id == spec.id()).then_some(result)
    }

    /// Stores a result. Write failures are reported, not fatal — a
    /// read-only cache degrades to "run everything".
    pub fn put(&self, spec: &CellSpec, result: &CellResult) {
        let path = self.path_for(spec);
        if let Err(e) = write_atomic(&path, &result.to_text()) {
            eprintln!("harness: cache write failed for {}: {e}", path.display());
        }
    }
}

impl Default for Cache {
    fn default() -> Self {
        Self::new()
    }
}

fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let dir = path.parent().expect("cache paths have a parent");
    std::fs::create_dir_all(dir)?;
    // Unique temp name per thread so parallel writers never collide.
    let tmp = dir.join(format!(
        ".tmp-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn spec(label: &str) -> CellSpec {
        CellSpec {
            sweep: "test_sweep".into(),
            group: "g".into(),
            label: label.into(),
            seed: 1,
            duration: 50.0,
            kind: CellKind::Validation { demand_pct: 85 },
        }
    }

    #[test]
    fn round_trip_hit_and_miss() {
        let dir = std::env::temp_dir().join(format!("iqp-cache-test-{}", std::process::id()));
        let cache = Cache::at(&dir);
        let s = spec("a");
        assert!(cache.get(&s).is_none());
        let mut r = CellResult::for_spec(&s);
        r.metric("x", 1.25);
        cache.put(&s, &r);
        assert_eq!(cache.get(&s), Some(r));
        // A different cell does not hit the same entry.
        assert!(cache.get(&spec("b")).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_are_misses() {
        let dir = std::env::temp_dir().join(format!("iqp-cache-corrupt-{}", std::process::id()));
        let cache = Cache::at(&dir);
        let s = spec("c");
        let path = cache.path_for(&s);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        assert!(cache.get(&s).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_tag_is_nonempty_and_stable() {
        assert!(!version_tag().is_empty());
        assert_eq!(version_tag(), version_tag());
    }
}
