//! `schema-drift`: the store's lines-are-forever contract, enforced.
//!
//! `kw_results::store` appends JSONL lines that downstream tooling
//! (`kw-results`, `kw-serve`'s cache, the trace viewer) parses by field
//! name, and ROADMAP policy says every shape change bumps
//! `SCHEMA_VERSION` so old stores remain readable. The runtime tests
//! catch *incompatible* readers; this rule catches the quieter failure
//! where someone adds or renames a field and forgets the bump.
//!
//! Mechanism: for each line-writer function in the store source, the
//! rule hashes (FNV-1a 64) the ordered sequence of string literals in
//! its body — which is exactly the field-name/key sequence of the
//! written line — and compares against the checked-in fingerprint file
//! (`lint.schema` at the workspace root), keyed by schema version:
//!
//! ```text
//! v4 manifest=… record=… trace=…
//! ```
//!
//! Changing a writer's literals without bumping `SCHEMA_VERSION` makes
//! the current version's fingerprint mismatch → diagnostic. Tokens of a
//! retired writer (v4's `bench=`, whose lines readers now skip) stay in
//! the file as history; only the current writers are looked up. Bumping the
//! version makes the entry *missing* → diagnostic telling you to run
//! `kw-lint --bless-schema`, which appends the new line (history stays;
//! old versions' lines are never rewritten).

use crate::workspace::Workspace;
use crate::Diagnostic;

const RULE: &str = "schema-drift";

/// The store source whose writers are fingerprinted.
const STORE_FILE: &str = "crates/results/src/store.rs";

/// The checked-in fingerprint file at the workspace root.
pub const SCHEMA_FILE: &str = "lint.schema";

/// The line-writer functions, with the short keys used in `lint.schema`.
const WRITERS: [(&str, &str); 3] = [
    ("append_manifest", "manifest"),
    ("append_record", "record"),
    ("append_trace", "trace"),
];

/// The computed shape of the store source: schema version plus one
/// fingerprint per writer, in `WRITERS` order.
pub struct StoreShape {
    pub version: u64,
    pub fingerprints: Vec<(&'static str, u64)>,
}

impl StoreShape {
    /// The `lint.schema` line for this shape.
    pub fn schema_line(&self) -> String {
        let mut line = format!("v{}", self.version);
        for (key, fp) in &self.fingerprints {
            line.push_str(&format!(" {key}={fp:016x}"));
        }
        line
    }
}

pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let Some(file) = ws.files.iter().find(|f| f.rel_path == STORE_FILE) else {
        return Vec::new(); // unit-test workspaces without a store
    };
    let mut out = Vec::new();
    let shape = match compute_shape(ws) {
        Ok(shape) => shape,
        Err(diags) => return diags,
    };
    let Some(schema) = &ws.schema else {
        out.push(Diagnostic {
            rule: RULE,
            file: SCHEMA_FILE.to_string(),
            line: 1,
            message: format!(
                "missing {SCHEMA_FILE} — run `kw-lint --bless-schema` to record the \
                 current writer fingerprints for schema v{}",
                shape.version
            ),
            snippet: String::new(),
        });
        return out;
    };
    let want_prefix = format!("v{} ", shape.version);
    let Some((line_no, entry)) = schema
        .lines()
        .enumerate()
        .find(|(_, l)| l.trim().starts_with(&want_prefix))
    else {
        out.push(Diagnostic {
            rule: RULE,
            file: SCHEMA_FILE.to_string(),
            line: 1,
            message: format!(
                "no fingerprint entry for schema v{} — if the version bump is \
                 intentional, run `kw-lint --bless-schema` to append the new entry",
                shape.version
            ),
            snippet: String::new(),
        });
        return out;
    };
    for (key, fp) in &shape.fingerprints {
        let want = format!("{key}={fp:016x}");
        if !entry.split_whitespace().any(|tok| tok == want) {
            out.push(Diagnostic {
                rule: RULE,
                file: file.rel_path.clone(),
                line: writer_line(file, key),
                message: format!(
                    "`{}`'s serialized field set changed under schema v{} (fingerprint \
                     {fp:016x} does not match {SCHEMA_FILE}:{}) — bump SCHEMA_VERSION \
                     in kw_results::store, then `kw-lint --bless-schema`",
                    writer_fn(key),
                    shape.version,
                    line_no + 1,
                ),
                snippet: file.snippet(writer_line(file, key)),
            });
        }
    }
    out
}

/// Computes the store shape: schema version + per-writer fingerprints.
/// `Err` carries diagnostics for structural problems (missing version
/// constant or writer function).
pub fn compute_shape(ws: &Workspace) -> Result<StoreShape, Vec<Diagnostic>> {
    let Some(file) = ws.files.iter().find(|f| f.rel_path == STORE_FILE) else {
        return Err(Vec::new());
    };
    let structural = |line: usize, message: String| Diagnostic {
        rule: RULE,
        file: file.rel_path.clone(),
        line,
        message,
        snippet: file.snippet(line),
    };
    let Some(version) = schema_version(file) else {
        return Err(vec![structural(
            1,
            "cannot find `SCHEMA_VERSION: u64 = <n>` in the store source — the \
             drift rule needs it to key fingerprints"
                .to_string(),
        )]);
    };
    let mut fingerprints = Vec::with_capacity(WRITERS.len());
    let mut missing = Vec::new();
    for (fn_name, key) in WRITERS {
        match file.fns.iter().find(|f| f.name == fn_name && !f.is_test) {
            Some(f) => fingerprints.push((key, fingerprint(file, f))),
            None => missing.push(structural(
                1,
                format!(
                    "line writer `{fn_name}` not found in the store source — update \
                     the schema-drift rule's writer list if it was renamed"
                ),
            )),
        }
    }
    if missing.is_empty() {
        Ok(StoreShape {
            version,
            fingerprints,
        })
    } else {
        Err(missing)
    }
}

fn writer_fn(key: &str) -> &'static str {
    WRITERS
        .iter()
        .find(|(_, k)| *k == key)
        .map(|(f, _)| *f)
        .unwrap_or("?")
}

fn writer_line(file: &crate::source::SourceFile, key: &str) -> usize {
    file.fns
        .iter()
        .find(|f| f.name == writer_fn(key))
        .map(|f| f.line)
        .unwrap_or(1)
}

/// Extracts `SCHEMA_VERSION`'s numeric value from the token stream.
fn schema_version(file: &crate::source::SourceFile) -> Option<u64> {
    let toks: Vec<_> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    for (k, t) in toks.iter().enumerate() {
        if t.is_ident("SCHEMA_VERSION") {
            // `SCHEMA_VERSION : u64 = <num>` — find the first numeric
            // token after the `=`.
            let after_eq = toks[k + 1..]
                .iter()
                .skip_while(|t| !t.is_punct('='))
                .find(|t| t.kind == crate::lexer::TokKind::Num)?;
            return after_eq.text.replace('_', "").parse().ok();
        }
    }
    None
}

/// FNV-1a 64 over the ordered string literals of the writer's body.
/// Literal *text* (quotes included) is hashed with a separator, so both
/// renames and re-orderings change the fingerprint.
fn fingerprint(file: &crate::source::SourceFile, f: &crate::source::FnItem) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for (_, t) in file.code_tokens(f.body.clone()) {
        if t.kind == crate::lexer::TokKind::Str {
            for &b in t.text.as_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
            }
            hash = (hash ^ 0x1f).wrapping_mul(PRIME); // literal separator
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    const STORE_SRC: &str = r#"
pub const SCHEMA_VERSION: u64 = 4;
fn append_manifest(w: &mut W) { w.field("v"); w.field("kind"); }
fn append_record(w: &mut W) { w.field("v"); w.field("solver"); }
fn append_trace(w: &mut W) { w.field("v"); w.field("rounds"); }
"#;

    fn store_ws(src: &str, schema: Option<&str>) -> Workspace {
        let mut ws = Workspace::from_sources(vec![(
            "crates/results/src/store.rs".to_string(),
            src.to_string(),
        )]);
        ws.schema = schema.map(str::to_string);
        ws
    }

    fn blessed(src: &str) -> String {
        compute_shape(&store_ws(src, None)).unwrap().schema_line()
    }

    #[test]
    fn blessed_fingerprints_are_clean() {
        let line = blessed(STORE_SRC);
        assert!(line.starts_with("v4 manifest="), "{line}");
        let ws = store_ws(STORE_SRC, Some(&line));
        assert!(check(&ws).is_empty(), "{:?}", check(&ws));
    }

    #[test]
    fn field_change_without_bump_is_flagged() {
        let line = blessed(STORE_SRC);
        let mutated = STORE_SRC.replace("\"solver\"", "\"solver_id\"");
        let d = check(&store_ws(&mutated, Some(&line)));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("append_record"));
        assert!(d[0].message.contains("bump SCHEMA_VERSION"));
    }

    #[test]
    fn field_reordering_is_also_drift() {
        let line = blessed(STORE_SRC);
        let mutated = STORE_SRC.replace(
            "w.field(\"v\"); w.field(\"rounds\")",
            "w.field(\"rounds\"); w.field(\"v\")",
        );
        let d = check(&store_ws(&mutated, Some(&line)));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("append_trace"));
    }

    #[test]
    fn version_bump_asks_for_bless_not_drift() {
        let line = blessed(STORE_SRC);
        let bumped = STORE_SRC.replace("u64 = 4", "u64 = 5");
        let d = check(&store_ws(&bumped, Some(&line)));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("no fingerprint entry for schema v5"));
        assert!(d[0].message.contains("--bless-schema"));
    }

    #[test]
    fn missing_schema_file_is_reported() {
        let d = check(&store_ws(STORE_SRC, None));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("missing lint.schema"));
    }

    #[test]
    fn history_lines_are_preserved_alongside_current() {
        let schema = format!(
            "v3 manifest=dead record=beef bench=00 trace=00\n{}",
            blessed(STORE_SRC)
        );
        let ws = store_ws(STORE_SRC, Some(&schema));
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn missing_writer_is_structural() {
        let src = STORE_SRC.replace("append_trace", "append_span");
        let d = check(&store_ws(&src, Some("v4 x=0")));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("append_trace"));
    }
}
