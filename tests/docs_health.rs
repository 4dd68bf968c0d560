//! Docs-health gate: every intra-repo markdown link in the top-level
//! documentation must resolve to a file that exists.
//!
//! The docs form a cross-linked surface (README → docs/POLICIES.md →
//! DESIGN.md §15 → EXPERIMENTS.md); a rename that breaks one of those
//! links would otherwise go unnoticed until a reader hits a 404. This
//! test walks `[text](target)` links in the checked markdown files,
//! skips external (`http(s)://`, `mailto:`) targets, strips `#anchor`
//! fragments, resolves the rest relative to the linking file's
//! directory, and fails listing every dangling target.
//!
//! The same goes for file paths cited in prose: every back-ticked
//! `dir/file.ext` in the living docs ([`PATH_DOCS`]) must exist, so a
//! deleted or moved source file cannot leave a stale citation behind.
//! Cargo targets cited in those docs, fenced commands included, must
//! exist too: every `--example NAME` as `examples/NAME.rs`, every `-p`
//! as a workspace package and every `--bin` as a binary of its package.

use std::path::{Path, PathBuf};

/// The markdown files whose link graph is under the gate.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/POLICIES.md",
];

/// The docs whose back-ticked file paths are under the gate. ROADMAP.md
/// and CHANGES.md are history — they name files that no longer exist on
/// purpose — and stay link-only.
const PATH_DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/POLICIES.md",
];

/// File extensions that mark a back-ticked token as a repo path.
const PATH_EXTS: &[&str] = &[".rs", ".md", ".json", ".jsonl", ".toml", ".yml"];

/// Extracts back-ticked repo-relative file paths (`dir/file.ext`) from
/// `body`: inline code spans that contain a `/` and end in one of
/// [`PATH_EXTS`]. Build outputs (`target/…`) and patterns (`*`, `<…>`,
/// `{a,b}`) are not citations of one file and are skipped, as are
/// fenced code blocks.
fn path_mentions(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in body.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Odd segments of a split on '`' are the inline code spans.
        for span in line.split('`').skip(1).step_by(2) {
            let is_path = span.contains('/')
                && PATH_EXTS.iter().any(|ext| span.ends_with(ext))
                && !span.starts_with("target/")
                && !span.contains(['*', '<', '{', ' ']);
            if is_path {
                out.push(span.to_string());
            }
        }
    }
    out
}

/// Extracts inline markdown link targets (`[text](target)` and images
/// `![alt](target)`) from `body`. Fenced code blocks are skipped so
/// example snippets can't false-positive.
fn link_targets(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in body.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b']' && bytes[i + 1] == b'(' {
                // Backtrack: only count it as a link if a `[` opened it
                // on this line (good enough for this repo's docs).
                if line[..i].contains('[') {
                    if let Some(rel_end) = line[i + 2..].find(')') {
                        out.push(line[i + 2..i + 2 + rel_end].to_string());
                        i += 2 + rel_end;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    out
}

/// The cargo targets cited in `body`, fenced blocks included: each
/// `--example`, `-p` and `--bin` as `(flag, name, -p of its command)`.
/// A `cargo` token starts a command, a bare `--` hands the rest of the
/// line to the program, and placeholders (`<harness>`) are skipped.
fn cargo_citations(body: &str) -> Vec<(&str, &str, Option<&str>)> {
    let mut out = Vec::new();
    for line in body.lines() {
        let (mut package, mut program_args) = (None, false);
        let tokens: Vec<&str> = line.split([' ', '`']).filter(|t| !t.is_empty()).collect();
        for w in tokens.windows(2) {
            match w[0] {
                "cargo" => (package, program_args) = (None, false),
                "--" => program_args = true,
                flag @ ("--example" | "-p" | "--bin")
                    if !program_args && !w[1].starts_with('<') =>
                {
                    let name = w[1].trim_end_matches([',', ';', '.', ':', ')']);
                    if flag == "-p" {
                        package = Some(name);
                    }
                    out.push((flag, name, package));
                }
                _ => {}
            }
        }
    }
    out
}

/// Every workspace package as `(name, dir)`, found through the root
/// manifest's `members` entries (`dir` or `dir/*`).
fn workspace_packages(root: &Path) -> Vec<(String, PathBuf)> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = manifest.lines().find(|l| l.starts_with("members = ["));
    let mut dirs = Vec::new();
    for member in members.expect("members").split('"').skip(1).step_by(2) {
        match member.strip_suffix("/*") {
            Some(parent) => {
                for entry in std::fs::read_dir(root.join(parent)).expect("member dir") {
                    dirs.push(entry.expect("dir entry").path());
                }
            }
            None => dirs.push(root.join(member)),
        }
    }
    let package = |dir: PathBuf| {
        let toml = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
        let name = toml
            .lines()
            .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))?;
        Some((name.to_string(), dir))
    };
    dirs.into_iter().filter_map(package).collect()
}

/// Whether a package from [`workspace_packages`] has the binary `bin`.
/// Every binary in the workspace lives at `src/bin/NAME.rs`.
fn has_bin((_, dir): &(String, PathBuf), bin: &str) -> bool {
    dir.join(format!("src/bin/{bin}.rs")).exists()
}

fn is_external(target: &str) -> bool {
    target.starts_with("http://") || target.starts_with("https://") || target.starts_with("mailto:")
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for doc in DOCS {
        let path = root.join(doc);
        let body =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        for target in link_targets(&body) {
            if is_external(&target) {
                continue;
            }
            // Strip a `#anchor` fragment; a pure-anchor link points at
            // the current file and always resolves.
            let file_part = target.split('#').next().unwrap_or("");
            if file_part.is_empty() {
                continue;
            }
            let resolved: PathBuf = if let Some(rest) = file_part.strip_prefix('/') {
                root.join(rest)
            } else {
                dir.join(file_part)
            };
            checked += 1;
            if !resolved.exists() {
                broken.push(format!("{doc}: [{target}] -> {}", resolved.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken intra-repo markdown links:\n  {}",
        broken.join("\n  ")
    );
    // The gate is vacuous if the scanner stops finding links at all.
    assert!(
        checked > 0,
        "no intra-repo links found across {DOCS:?} — scanner regression?"
    );
}

#[test]
fn link_scanner_handles_the_shapes_we_use() {
    let targets = link_targets(
        "see [policies](docs/POLICIES.md) and [web](https://example.com)\n\
         ```\n[not a link](ignored.md)\n```\n\
         ![img](fig/plot.png) plus [anchor](#section) and [both](A.md#x)",
    );
    assert_eq!(
        targets,
        vec![
            "docs/POLICIES.md",
            "https://example.com",
            "fig/plot.png",
            "#section",
            "A.md#x",
        ]
    );
}

#[test]
fn backticked_repo_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for doc in PATH_DOCS {
        let body = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for path in path_mentions(&body) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs cite files that do not exist:\n  {}",
        missing.join("\n  ")
    );
    assert!(
        checked > 0,
        "no back-ticked paths found across {PATH_DOCS:?} — scanner regression?"
    );
}

#[test]
fn path_scanner_handles_the_shapes_we_use() {
    let paths = path_mentions(
        "see `tests/docs_health.rs`, `Cargo.toml` and `runtime::run` but not\n\
         `tests/golden/*.jsonl`, `target/experiments/x.json`, `a/<b>.md`\n\
         ```\n`fenced/ignored.rs`\n```\n\
         or `tests/{a,b}.rs`; two on a line: `docs/POLICIES.md` `.github/workflows/ci.yml`",
    );
    assert_eq!(
        paths,
        vec![
            "tests/docs_health.rs",
            "docs/POLICIES.md",
            ".github/workflows/ci.yml",
        ]
    );
}

#[test]
fn cited_cargo_targets_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = workspace_packages(root);
    let package = |p: &str| packages.iter().find(|pkg| pkg.0 == p);
    let mut unknown = Vec::new();
    let mut checked = 0usize;
    for doc in PATH_DOCS {
        let body = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for (flag, name, p) in cargo_citations(&body) {
            checked += 1;
            let exists = match (flag, p) {
                ("--example", _) => root.join(format!("examples/{name}.rs")).exists(),
                ("-p", _) => package(name).is_some(),
                (_, Some(p)) => package(p).is_some_and(|pkg| has_bin(pkg, name)),
                (_, None) => packages.iter().any(|pkg| has_bin(pkg, name)),
            };
            if !exists {
                unknown.push(format!("{doc}: {flag} {name}"));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "docs cite cargo targets that do not exist:\n  {}",
        unknown.join("\n  ")
    );
    assert!(
        checked > 0,
        "no cargo targets found across {PATH_DOCS:?} — scanner regression?"
    );
}

#[test]
fn cargo_scanner_handles_the_shapes_we_use() {
    let cited =
        cargo_citations("```\ncargo run -p h --bin harness -- --bin x\n```\n`cargo run --bin <y>`");
    let want = [("-p", "h", Some("h")), ("--bin", "harness", Some("h"))];
    assert_eq!(cited, want);
}
