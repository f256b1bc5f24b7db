// Fixture: a miniature kw_results::store with the three line writers.
// Linted under crates/results/src/store.rs; the fixture test blesses
// this shape, then mutates field literals and the version constant to
// prove the drift rule notices each.

pub const SCHEMA_VERSION: u64 = 4;

fn append_manifest(w: &mut Writer) {
    w.field("v");
    w.field("kind");
    w.field("solvers");
}

fn append_record(w: &mut Writer) {
    w.field("v");
    w.field("kind");
    w.field("solver");
    w.field("seed");
    w.field("rounds");
}

fn append_trace(w: &mut Writer) {
    w.field("v");
    w.field("kind");
    w.field("rounds");
    w.field("phase_us");
}
