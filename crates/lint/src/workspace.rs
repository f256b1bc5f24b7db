//! Workspace loading: which files get linted, and the full run.
//!
//! [`Workspace::load`] walks the repository for `.rs` sources,
//! excluding build output (`target/`), VCS metadata, and the lint
//! crate's own fixture corpus (`crates/lint/tests/fixtures/` — those
//! files *deliberately* violate rules). Integration-test directories
//! are included but their contents are test-masked by the source
//! model, so code-contract rules skip them while structural rules
//! (crate-root gates) still see everything.
//!
//! [`Workspace::run`] is the whole pipeline: rules → allowlist →
//! surviving diagnostics, sorted for stable output.

use std::path::{Path, PathBuf};

use crate::source::{relative, SourceFile};
use crate::{allowlist, rules, Diagnostic};

/// A set of parsed sources plus the root-level config files.
pub struct Workspace {
    /// Filesystem root, when loaded from disk.
    pub root: Option<PathBuf>,
    /// Every linted source file, sorted by path.
    pub files: Vec<SourceFile>,
    /// Contents of `lint.schema`, if present.
    pub schema: Option<String>,
    /// Contents of `lint.allow`, if present.
    pub allow: Option<String>,
}

/// Directory names never descended into.
const SKIP_DIRS: [&str; 2] = ["target", "fixtures"];

impl Workspace {
    /// Builds a workspace from in-memory `(rel_path, source)` pairs —
    /// the constructor rule unit tests and fixtures use.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src))
            .collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Workspace {
            root: None,
            files,
            schema: None,
            allow: None,
        }
    }

    /// Loads every lintable `.rs` file under `root`, plus `lint.schema`
    /// and `lint.allow` when present.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        walk(root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in &paths {
            let rel = relative(root, path);
            let text = std::fs::read_to_string(path)?;
            files.push(SourceFile::parse(&rel, &text));
        }
        Ok(Workspace {
            root: Some(root.to_path_buf()),
            files,
            schema: std::fs::read_to_string(root.join(crate::rules::schema_drift::SCHEMA_FILE))
                .ok(),
            allow: std::fs::read_to_string(root.join(allowlist::ALLOW_FILE)).ok(),
        })
    }

    /// The full lint run: every rule, then the allowlist (suppression,
    /// staleness, and its own syntax problems), sorted by location.
    pub fn run(&self) -> Vec<Diagnostic> {
        let raw = rules::all(self);
        let (entries, mut problems) = match &self.allow {
            Some(text) => allowlist::parse(text),
            None => (Vec::new(), Vec::new()),
        };
        let mut out = allowlist::apply(raw, &entries);
        out.append(&mut problems);
        out.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        out
    }

    /// Recomputes the store fingerprints and returns the new
    /// `lint.schema` contents: the current version's line replaced (or
    /// appended), all other versions' history preserved.
    pub fn bless_schema(&self) -> Result<String, Vec<Diagnostic>> {
        let shape = rules::schema_drift::compute_shape(self)?;
        let fresh = shape.schema_line();
        let prefix = format!("v{} ", shape.version);
        let mut lines: Vec<String> = self
            .schema
            .as_deref()
            .unwrap_or(
                "# Store writer fingerprints, one line per SCHEMA_VERSION.\n\
                 # Maintained by `kw-lint --bless-schema`; see docs/LINTS.md (schema-drift).",
            )
            .lines()
            .filter(|l| !l.trim().starts_with(&prefix))
            .map(str::to_string)
            .collect();
        lines.push(fresh);
        Ok(lines.join("\n") + "\n")
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sources_sorts_and_parses() {
        let ws = Workspace::from_sources(vec![
            ("b.rs".to_string(), "fn b() {}".to_string()),
            ("a.rs".to_string(), "fn a() {}".to_string()),
        ]);
        assert_eq!(ws.files[0].rel_path, "a.rs");
        assert_eq!(ws.files[1].fns[0].name, "b");
    }

    #[test]
    fn run_applies_allowlist_and_reports_stale() {
        let mut ws = Workspace::from_sources(vec![(
            "crates/serve/src/h.rs".to_string(),
            "fn f(o: Option<u8>) -> u8 { o.unwrap() }".to_string(),
        )]);
        // Unsuppressed: the unwrap diagnostic survives.
        assert!(ws.run().iter().any(|d| d.rule == "panic-path"));
        // Suppressed by a justified entry: clean.
        ws.allow =
            Some("panic-path | crates/serve/src/h.rs | o.unwrap() | test: proven some\n".into());
        assert!(ws.run().is_empty(), "{:?}", ws.run());
        // A second, stale entry becomes its own diagnostic.
        ws.allow = Some(
            "panic-path | crates/serve/src/h.rs | o.unwrap() | test: proven some\n\
             panic-path | crates/serve/src/h.rs | nothing_like_this | stale\n"
                .into(),
        );
        let out = ws.run();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "allowlist");
    }

    #[test]
    fn bless_schema_replaces_current_and_keeps_history() {
        let mut ws = Workspace::from_sources(vec![(
            "crates/results/src/store.rs".to_string(),
            "pub const SCHEMA_VERSION: u64 = 4;\n\
             fn append_manifest(w: &mut W) { w.field(\"v\"); }\n\
             fn append_record(w: &mut W) { w.field(\"v\"); }\n\
             fn append_trace(w: &mut W) { w.field(\"v\"); }\n"
                .to_string(),
        )]);
        ws.schema = Some("v3 manifest=aa record=bb bench=cc trace=dd\nv4 manifest=00 record=00 bench=00 trace=00\n".into());
        let blessed = ws.bless_schema().unwrap();
        assert!(blessed.contains("v3 manifest=aa"), "history kept");
        assert!(!blessed.contains("manifest=00"), "old v4 line replaced");
        assert_eq!(blessed.matches("v4 ").count(), 1);
        // Blessing makes the schema-drift rule clean.
        ws.schema = Some(blessed);
        assert!(ws.run().is_empty(), "{:?}", ws.run());
    }
}
