//! Markdown link check for the repository documentation.
//!
//! Scans `README.md` and every file under `docs/` for markdown links and
//! verifies that each relative link points at a file or directory that
//! exists (anchors and external URLs are skipped). Runs as part of the
//! normal test suite and as a dedicated CI step, so documentation cannot
//! silently rot as files move.

use std::path::{Path, PathBuf};

/// Repository root, derived from this crate's manifest directory
/// (`crates/ciflow`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repository root exists")
}

/// The markdown files the check covers: `README.md` plus everything
/// directly under `docs/`.
fn documentation_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    assert!(
        docs.is_dir(),
        "docs/ directory is missing — the architecture documentation lives there"
    );
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ is readable")
        .map(|entry| entry.expect("docs/ entry is readable").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "md"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "docs/ contains no markdown files to check"
    );
    files.extend(entries);
    files
}

/// Extracts the `(target)` of every inline markdown link in `text`,
/// skipping fenced code blocks (a code example containing the literal
/// characters `](` is not a link). Deliberately simple otherwise: finds
/// `](...)` pairs, which covers every link style used in this repository.
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut i = 0;
        while let Some(offset) = line[i..].find("](") {
            let start = i + offset + 2;
            match line[start..].find(')') {
                Some(len) => {
                    targets.push(line[start..start + len].to_string());
                    i = start + len + 1;
                }
                None => break,
            }
        }
    }
    targets
}

#[test]
fn every_relative_markdown_link_resolves() {
    let root = repo_root();
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in documentation_files(&root) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let base = file.parent().expect("documentation file has a parent");
        for target in link_targets(&text) {
            // External links and pure in-page anchors are out of scope.
            if target.contains("://") || target.starts_with('#') || target.starts_with("mailto:") {
                continue;
            }
            // Strip an in-page anchor from a file link.
            let path_part = target.split('#').next().unwrap_or(&target);
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !base.join(path_part).exists() {
                broken.push(format!("{}: {target}", file.display()));
            }
        }
    }
    assert!(
        checked >= 10,
        "only {checked} relative links found — the extractor is likely broken"
    );
    assert!(
        broken.is_empty(),
        "broken documentation links:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn readme_links_the_architecture_documentation() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README exists");
    for doc in ["docs/ARCHITECTURE.md", "docs/MEMORY_MODEL.md"] {
        assert!(
            readme.contains(doc),
            "README.md must link {doc} so newcomers can find it"
        );
        assert!(root.join(doc).is_file(), "{doc} is missing");
    }
}

/// The resilient-serving walkthrough in the README is a doctest (compiled
/// and run via the crate's `ReadmeDoctests` include), and its normative
/// counterpart lives in `docs/SERVING.md`. Pin both so the section cannot
/// silently disappear while the docs still advertise it.
#[test]
fn readme_documents_resilient_serving_and_the_fault_model() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README exists");
    assert!(
        readme.contains("## Resilient serving"),
        "README.md must keep the resilient-serving section"
    );
    for snippet in [
        "try_fault_serve_in",
        "FaultPlan::none()",
        "report.timed_out + report.shed",
        "goodput_rps",
    ] {
        assert!(
            readme.contains(snippet),
            "the README resilient-serving doctest must exercise {snippet}"
        );
    }
    let serving = std::fs::read_to_string(root.join("docs/SERVING.md")).expect("SERVING.md exists");
    for heading in [
        "## Faults and failure handling",
        "**Crash semantics**",
        "**Conservation**",
        "**Zero-fault replay**",
    ] {
        assert!(
            serving.contains(heading),
            "docs/SERVING.md must keep the normative fault-model section ({heading})"
        );
    }
}
