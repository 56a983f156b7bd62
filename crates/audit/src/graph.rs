//! Phase-2 input: the workspace item graph.
//!
//! After phase 1 has scrubbed and item-extracted every file, the graph
//! assembles the cross-file facts the graph rules need: which crate
//! each file belongs to, every struct/enum definition with its field
//! type names, every `impl Trait for Type` pair, and every function
//! with its direct impurity evidence and bare-call edges. The graph is
//! built once per audit run and shared by all graph rules.
//!
//! ## The layering table
//!
//! [`LAYERS`] pins the workspace's dependency order. It is derived
//! from the crate manifests, not aspiration: a crate at layer *L* may
//! only reference `darklight_*` crates at layers strictly below *L*.
//! `par` sits *above* `govern` (the pool polls govern's deadlines), and
//! `synth` sits beside `core` (both consume corpus but neither sees the
//! other). Adding a crate means adding a row here — an unknown
//! `darklight_*` name is itself a `crate-layering` finding, so the table
//! can never silently rot.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{Item, ItemKind};
use crate::lexer::Scrubbed;

/// The pinned crate layering: `(short name, layer)`. Lower layers are
/// closer to the bottom of the dependency DAG.
pub const LAYERS: &[(&str, u32)] = &[
    ("order", 0),
    ("obs", 0),
    ("activity", 1),
    ("text", 1),
    ("govern", 1),
    ("par", 2),
    ("store", 2),
    ("corpus", 3),
    ("features", 3),
    ("synth", 4),
    ("core", 4),
    ("eval", 5),
    ("audit", 6),
    ("bench", 6),
];

/// The layer of a crate short name (`"core"` → 4), if pinned.
pub fn layer_of(crate_name: &str) -> Option<u32> {
    LAYERS
        .iter()
        .find(|&&(n, _)| n == crate_name)
        .map(|&(_, l)| l)
}

/// One file's contribution to the graph, borrowed from the driver's
/// per-file analysis.
#[derive(Debug)]
pub struct FileView<'a> {
    /// Index into the driver's file list (findings point back here).
    pub idx: usize,
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// Scrubbed source.
    pub scrubbed: &'a Scrubbed,
    /// Extracted items.
    pub items: &'a [Item],
    /// Whether the whole file is test code (`tests/`, `benches/`, …).
    pub file_is_test: bool,
    /// `#[cfg(test)]` spans within the file.
    pub test_spans: &'a [(usize, usize)],
}

impl FileView<'_> {
    /// The owning crate's short name for `crates/<name>/src/**` files;
    /// `None` for the root crate, integration tests, and benches —
    /// graph rules police production crate code only.
    pub fn crate_name(&self) -> Option<&str> {
        let rest = self.rel_path.strip_prefix("crates/")?;
        let (name, tail) = rest.split_once('/')?;
        tail.starts_with("src/").then_some(name)
    }

    /// Whether `offset` falls inside a `#[cfg(test)]` span.
    pub fn in_test_span(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }
}

/// A struct or enum definition.
#[derive(Debug)]
pub struct TypeDef {
    /// File the definition lives in.
    pub file_idx: usize,
    /// Byte offset of the `struct`/`enum` keyword.
    pub offset: usize,
    /// Type name.
    pub name: String,
    /// Owning crate short name.
    pub crate_name: String,
    /// Uppercase-initial identifiers in the field/variant body — the
    /// nominal types this definition's state reaches.
    pub field_types: Vec<String>,
}

/// A function definition with the facts the purity rule needs.
#[derive(Debug)]
pub struct FnDef {
    /// File the definition lives in.
    pub file_idx: usize,
    /// Byte offset of the `fn` keyword.
    pub offset: usize,
    /// Function name.
    pub name: String,
    /// Owning crate short name.
    pub crate_name: String,
    /// Direct impurity evidence: `(offset, matched token, category)`.
    pub impure: Vec<(usize, String, &'static str)>,
    /// Bare callees (`helper(...)` — not method or path calls), resolved
    /// by name against same-crate functions.
    pub callees: Vec<String>,
}

/// The assembled workspace graph.
#[derive(Debug, Default)]
pub struct ItemGraph {
    /// Production struct/enum definitions by name. Names are treated as
    /// workspace-unique; on collision the first definition wins, which
    /// is conservative for reachability.
    pub types: BTreeMap<String, TypeDef>,
    /// Every `(trait, type)` impl pair in the workspace, test code
    /// included — an impl written next to tests still satisfies
    /// coverage.
    pub impls: BTreeSet<(String, String)>,
    /// Production function definitions (bodiless declarations omitted).
    pub fns: Vec<FnDef>,
}

/// Tokens whose presence makes a function directly impure, by category.
/// Method/associated calls are matched textually; bare calls into other
/// workspace functions are handled transitively via [`FnDef::callees`].
pub const IMPURE_TOKENS: &[(&str, &str)] = &[
    (".counter(", "metrics recording"),
    (".gauge(", "metrics recording"),
    (".timer(", "metrics recording"),
    (".histogram(", "metrics recording"),
    ("Instant::now", "clock read"),
    ("SystemTime::now", "clock read"),
    ("thread_rng", "ambient RNG"),
    ("rand::random", "ambient RNG"),
    ("env::var", "environment read"),
    ("std::env", "environment read"),
    ("available_parallelism", "thread-count read"),
    ("resolve_threads", "thread-count read"),
    ("effective_threads", "thread-count read"),
    ("observed_threads", "thread-count read"),
];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Uppercase-initial identifiers in `text` (dedup'd, order preserved).
fn type_idents(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident(bytes[i]) && (i == 0 || !is_ident(bytes[i - 1])) {
            let mut j = i;
            while j < bytes.len() && is_ident(bytes[j]) {
                j += 1;
            }
            if bytes[i].is_ascii_uppercase() {
                let name = &text[i..j];
                if !out.iter().any(|n| n == name) {
                    out.push(name.to_string());
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Keywords that can precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "for", "while", "match", "loop", "return", "fn", "let", "in", "as", "move", "ref", "mut",
    "where", "impl", "use", "pub", "unsafe", "async", "dyn", "break", "continue", "else",
];

/// Bare-call names in a fn body: lowercase identifiers immediately
/// followed by `(`, excluding method calls (`.name(`), path calls
/// (`path::name(` — their purity is judged by [`IMPURE_TOKENS`]),
/// macros (`name!(`), and keywords.
fn bare_callees(body: &str) -> Vec<String> {
    let bytes = body.as_bytes();
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident(bytes[i]) && (i == 0 || !is_ident(bytes[i - 1])) {
            let mut j = i;
            while j < bytes.len() && is_ident(bytes[j]) {
                j += 1;
            }
            let name = &body[i..j];
            let prev = bytes[..i]
                .iter()
                .rev()
                .copied()
                .find(|b| !b.is_ascii_whitespace());
            let callish = bytes.get(j) == Some(&b'(')
                && bytes[i].is_ascii_lowercase()
                && !matches!(prev, Some(b'.') | Some(b':'))
                && !NON_CALL_KEYWORDS.contains(&name);
            if callish && !out.iter().any(|n| n == name) {
                out.push(name.to_string());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

impl ItemGraph {
    /// Assembles the graph from every file's phase-1 results.
    pub fn build(files: &[FileView]) -> ItemGraph {
        let mut graph = ItemGraph::default();
        for file in files {
            for item in file.items {
                match item.kind {
                    ItemKind::Impl => {
                        if let Some(trait_name) = &item.trait_name {
                            graph.impls.insert((trait_name.clone(), item.name.clone()));
                        }
                    }
                    ItemKind::Struct | ItemKind::Enum => {
                        let Some(crate_name) = file.crate_name() else {
                            continue;
                        };
                        if file.file_is_test || item.in_test {
                            continue;
                        }
                        let field_types = item
                            .body
                            .map(|(s, e)| type_idents(&file.scrubbed.text[s..e]))
                            .unwrap_or_default();
                        graph.types.entry(item.name.clone()).or_insert(TypeDef {
                            file_idx: file.idx,
                            offset: item.offset,
                            name: item.name.clone(),
                            crate_name: crate_name.to_string(),
                            field_types,
                        });
                    }
                    ItemKind::Fn => {
                        let Some(crate_name) = file.crate_name() else {
                            continue;
                        };
                        if file.file_is_test || item.in_test {
                            continue;
                        }
                        let Some((s, e)) = item.body else {
                            continue;
                        };
                        let body = &file.scrubbed.text[s..e];
                        let mut impure = Vec::new();
                        for &(token, category) in IMPURE_TOKENS {
                            if let Some(pos) = body.find(token) {
                                impure.push((s + pos, token.to_string(), category));
                            }
                        }
                        graph.fns.push(FnDef {
                            file_idx: file.idx,
                            offset: item.offset,
                            name: item.name.clone(),
                            crate_name: crate_name.to_string(),
                            impure,
                            callees: bare_callees(body),
                        });
                    }
                    ItemKind::Use => {}
                }
            }
        }
        graph
    }
}

/// `darklight_*` crate references in a file's scrubbed text:
/// `(offset, short name)`, first occurrence per referenced crate,
/// test-span references excluded.
pub fn crate_refs(file: &FileView) -> Vec<(usize, String)> {
    let bytes = file.scrubbed.text.as_bytes();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    for offset in file.scrubbed.find_all("darklight_") {
        if offset > 0 && is_ident(bytes[offset - 1]) {
            continue;
        }
        if file.in_test_span(offset) {
            continue;
        }
        let start = offset + "darklight_".len();
        let mut end = start;
        while end < bytes.len() && is_ident(bytes[end]) {
            end += 1;
        }
        if end == start {
            continue;
        }
        let name = file.scrubbed.text[start..end].to_string();
        if seen.insert(name.clone()) {
            out.push((offset, name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract_items;

    fn view<'a>(
        rel_path: &'a str,
        scrubbed: &'a Scrubbed,
        items: &'a [Item],
        test_spans: &'a [(usize, usize)],
    ) -> FileView<'a> {
        FileView {
            idx: 0,
            rel_path,
            scrubbed,
            items,
            file_is_test: false,
            test_spans,
        }
    }

    #[test]
    fn layer_table_is_a_function_of_crate_name() {
        assert_eq!(layer_of("order"), Some(0));
        assert_eq!(layer_of("core"), Some(4));
        assert_eq!(layer_of("no-such-crate"), None);
    }

    #[test]
    fn builds_types_impls_and_fns() {
        let src = "pub struct Record { doc: PreparedDoc, n: u32 }\n\
                   impl EstimateBytes for Record { fn estimate_bytes(&self) -> u64 { 0 } }\n\
                   fn helper(x: u64) -> u64 { stamp(x) }\n\
                   fn stamp(x: u64) -> u64 { let t = Instant::now(); x }\n";
        let scrubbed = Scrubbed::new(src);
        let items = extract_items(&scrubbed);
        let spans = scrubbed.test_spans();
        let v = view("crates/core/src/dataset.rs", &scrubbed, &items, &spans);
        let graph = ItemGraph::build(std::slice::from_ref(&v));
        assert_eq!(graph.types["Record"].field_types, vec!["PreparedDoc"]);
        assert!(graph
            .impls
            .contains(&("EstimateBytes".to_string(), "Record".to_string())));
        let helper = graph.fns.iter().find(|f| f.name == "helper").unwrap();
        assert_eq!(helper.callees, vec!["stamp"]);
        assert!(helper.impure.is_empty());
        let stamp = graph.fns.iter().find(|f| f.name == "stamp").unwrap();
        assert_eq!(stamp.impure[0].2, "clock read");
    }

    #[test]
    fn bare_callees_exclude_methods_paths_and_macros() {
        let body = "self.refresh(); darklight_par::par_map(); format!(\"x\"); helper(1); Some(2); if (a) {}";
        assert_eq!(bare_callees(body), vec!["helper"]);
    }

    #[test]
    fn crate_refs_dedupe_and_skip_tests() {
        let src = "use darklight_obs::Metrics;\n\
                   fn f() { darklight_obs::noop(); darklight_par::par_map(); }\n\
                   #[cfg(test)]\nmod tests { use darklight_core::x; }\n";
        let scrubbed = Scrubbed::new(src);
        let items = extract_items(&scrubbed);
        let spans = scrubbed.test_spans();
        let v = view("crates/govern/src/lib.rs", &scrubbed, &items, &spans);
        let refs = crate_refs(&v);
        let names: Vec<&str> = refs.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["obs", "par"]);
    }

    #[test]
    fn crate_name_requires_the_src_tree() {
        let scrubbed = Scrubbed::new("");
        let items: Vec<Item> = Vec::new();
        let spans: Vec<(usize, usize)> = Vec::new();
        assert_eq!(
            view("crates/core/src/batch.rs", &scrubbed, &items, &spans).crate_name(),
            Some("core")
        );
        assert_eq!(
            view("crates/core/tests/x.rs", &scrubbed, &items, &spans).crate_name(),
            None
        );
        assert_eq!(
            view("src/main.rs", &scrubbed, &items, &spans).crate_name(),
            None
        );
    }
}
