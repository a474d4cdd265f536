//! No public function without a caller: every `pub fn` in first-party
//! code must be named by another source file. The scan is a word match,
//! so a same-named item elsewhere can hide a dead one but a live one is
//! never flagged. Exceptions go in `ALLOWED`, each with its reason.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(name, why it stays public with no caller elsewhere)`.
const ALLOWED: &[(&str, &str)] = &[(
    "predicted_distribution",
    "ROADMAP item 5 scores the filter's predictive distribution with it",
)];

/// Where public functions are defined and checked.
const CHECKED: &[&str] = &["crates", "src", "tests", "examples"];
/// Searched for callers only: the benchmark harness builds the crates
/// from source and may be the one caller of what it times.
const CALLERS_ONLY: &[&str] = &["perf/src", "perf/tests"];

/// Every `.rs` file under `dirs`, skipping `vendor/` and `target/`.
fn rust_files(root: &Path, dirs: &[&str]) -> Vec<PathBuf> {
    let mut stack: Vec<PathBuf> = dirs.iter().map(|d| root.join(d)).collect();
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() && !path.ends_with("vendor") && !path.ends_with("target") {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

#[test]
fn every_pub_fn_is_named_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (checked, callers) = (rust_files(root, CHECKED), rust_files(root, CALLERS_ONLY));
    assert!(checked.len() > 50, "scanned only {} files", checked.len());

    let texts: Vec<(&PathBuf, String)> = (checked.iter().chain(&callers))
        .map(|f| (f, fs::read_to_string(f).expect("read source")))
        .collect();
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for (_, text) in &texts {
        for w in words(text).collect::<HashSet<_>>() {
            *files_naming.entry(w).or_default() += 1;
        }
    }
    let mut dead = Vec::new();
    for (file, text) in &texts[..checked.len()] {
        for line in text.lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name = words(rest).next().unwrap_or_default();
            if files_naming[name] < 2 && !ALLOWED.iter().any(|(n, _)| *n == name) {
                let file = file.strip_prefix(root).unwrap().display();
                dead.push(format!("{file}: {name}"));
            }
        }
    }
    assert!(
        dead.is_empty(),
        "{} pub fn(s) named in no other file; delete them, make them private, \
         or move them under #[cfg(test)]:\n  {}",
        dead.len(),
        dead.join("\n  ")
    );
}
