//! The docs name only what exists. `README.md`, `DESIGN.md`, the verify
//! skill and every `//!` module doc under `crates/*/src` are scanned for
//! three kinds of reference, and each must resolve in the tree:
//!
//! * a backticked repo file path (`netsim/fabric.rs`, `BENCH_tcp.json`,
//!   an optional `:line` suffix) must be the suffix of a file in the tree;
//! * every `examples/<name>.rs` and `--example <name>`, fenced blocks
//!   included, must be a file in `examples/`;
//! * a backticked `<crate>::<path>` must walk module by module to
//!   `src/<module>.rs` or `src/<module>/mod.rs`, and its first segment
//!   that is not a module file must be declared `pub` (or `pub(crate)`)
//!   in that crate;
//! * a backticked snake_case name of two or more words (a test, a
//!   function, a field, a metric key, a file or package) in README.md,
//!   DESIGN.md or the verify skill must be (the prefix of) a `fn` under
//!   `crates/ src/ tests/ examples/`, a struct field (`name:`) under
//!   `crates/*/src`, a word of a `BENCH_*.json`, `BENCHMARK.json` or
//!   `benchmark/src` file, the stem of a file in the tree, or a `[package]
//!   name` (`-` read as `_`) — or one of the few std and lint names in
//!   [`NOT_OURS`].
//!
//! A plain file walk and substring search — no parser, no dependency — so
//! a rename or deletion that leaves a dangling reference fails here.

use std::fs;
use std::path::{Path, PathBuf};

/// Directories the walk skips: build output and VCS metadata.
const SKIP_DIRS: &[&str] = &["target", ".git", ".bench_build"];

/// Extensions that make a backticked span a file path.
const FILE_EXTS: &[&str] = &["rs", "md", "toml", "json", "yml", "lock", "txt", "csv"];

/// Workspace crates by the name a Rust path uses, with their directory.
const CRATES: &[(&str, &str)] = &[
    ("capnet", "core"),
    ("capnet_bench", "bench"),
    ("capnet_chaos", "chaos"),
    ("capnet_httpd", "httpd"),
    ("cheri", "cheri"),
    ("chos", "chos"),
    ("fstack", "fstack"),
    ("intravisor", "intravisor"),
    ("iperf", "iperf"),
    ("mavsim", "mavsim"),
    ("simkern", "simkern"),
    ("updk", "updk"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, relative to the repo root, `/`-separated.
fn walk(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out);
            }
        } else {
            let rel = path.strip_prefix(root()).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

fn tree() -> Vec<String> {
    let mut files = Vec::new();
    walk(&root(), &mut files);
    files
}

/// `(name, text)` of every scanned doc; a source file contributes only its
/// `//!` lines.
fn docs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"]
            .iter()
            .map(|f| (f.to_string(), fs::read_to_string(root().join(f)).unwrap()))
            .collect();
    for file in tree() {
        let in_crate_src = file.starts_with("crates/") && file.split('/').nth(2) == Some("src");
        if in_crate_src && file.ends_with(".rs") {
            let text = fs::read_to_string(root().join(&file)).unwrap();
            let module_doc: Vec<&str> = text
                .lines()
                .filter_map(|l| l.trim_start().strip_prefix("//!"))
                .collect();
            out.push((file, module_doc.join("\n")));
        }
    }
    out
}

/// The backticked spans of `text` outside fenced blocks, line by line.
fn code_spans(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier at the start of `s`.
fn ident(s: &str) -> &str {
    &s[..s.find(|c| !is_ident(c)).unwrap_or(s.len())]
}

/// `span` as a file path, without a `:line` or `:line-line` suffix.
fn as_file_path(span: &str) -> Option<&str> {
    let path = match span.split_once(':') {
        Some((p, line))
            if !line.is_empty() && line.chars().all(|c| c.is_ascii_digit() || c == '-') =>
        {
            p
        }
        Some(_) => return None,
        None => span,
    };
    let path_chars = |c: char| is_ident(c) || matches!(c, '.' | '/' | '-');
    let ext = path.rsplit_once('.')?.1;
    (path.chars().all(path_chars) && FILE_EXTS.contains(&ext)).then_some(path)
}

#[test]
fn backticked_file_paths_name_files_in_the_tree() {
    let files = tree();
    let mut dangling = Vec::new();
    for (doc, text) in docs() {
        for path in code_spans(&text).into_iter().filter_map(as_file_path) {
            let found = files
                .iter()
                .any(|f| f == path || f.ends_with(&format!("/{path}")));
            if !found {
                dangling.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "no such file:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn every_named_example_exists() {
    let mut dangling = Vec::new();
    for (doc, text) in docs() {
        for (marker, suffix) in [("examples/", ".rs"), ("--example ", "")] {
            for (at, _) in text.match_indices(marker) {
                let rest = &text[at + marker.len()..];
                let name = ident(rest);
                if name.is_empty() || !rest[name.len()..].starts_with(suffix) {
                    continue;
                }
                if !root().join(format!("examples/{name}.rs")).is_file() {
                    dangling.push(format!("{doc}: {marker}{name}{suffix}"));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "no such example:\n{}",
        dangling.join("\n")
    );
}

/// Whether any source file under `src` declares `name` as an item at some
/// `pub` visibility (`pub(crate)` included: the docs may name internals).
fn declares_pub(src: &Path, name: &str) -> bool {
    let kinds = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let mut files = Vec::new();
    walk(src, &mut files);
    files.iter().filter(|f| f.ends_with(".rs")).any(|f| {
        let text = fs::read_to_string(root().join(f)).unwrap();
        text.lines()
            .map(str::trim_start)
            .filter(|line| line.starts_with("pub"))
            .any(|line| {
                kinds.iter().any(|kind| {
                    let decl = format!("{kind} {name}");
                    line.match_indices(&decl).any(|(at, _)| {
                        line[..at].ends_with(' ') && !line[at + decl.len()..].starts_with(is_ident)
                    })
                })
            })
    })
}

/// Why `path` (`crate::seg::…`) does not resolve, or `None` if it does.
fn unresolved(dir: &str, segments: &[&str]) -> Option<String> {
    let src = root().join("crates").join(dir).join("src");
    let mut module = src.clone();
    for seg in segments {
        if module.join(format!("{seg}.rs")).is_file() || module.join(seg).join("mod.rs").is_file() {
            module = module.join(seg);
        } else if declares_pub(&src, seg) {
            return None;
        } else {
            return Some(format!("`{seg}` is neither a module file nor a pub item"));
        }
    }
    None
}

#[test]
fn crate_paths_name_modules_and_pub_items() {
    let mut checked = 0;
    let mut dangling = Vec::new();
    for (doc, text) in docs() {
        for span in code_spans(&text) {
            for &(krate, dir) in CRATES {
                let prefix = format!("{krate}::");
                for (at, _) in span.match_indices(&prefix) {
                    if span[..at].ends_with(is_ident) {
                        continue;
                    }
                    let mut segments = Vec::new();
                    let mut rest = &span[at + krate.len()..];
                    while let Some(tail) = rest.strip_prefix("::") {
                        let seg = ident(tail);
                        if seg.is_empty() {
                            rest = tail;
                            break;
                        }
                        segments.push(seg);
                        rest = &tail[seg.len()..];
                    }
                    // `a::b::{C, D}` checks `a::b::C` and `a::b::D`.
                    let group = rest.strip_prefix('{').and_then(|g| g.split_once('}'));
                    let mut paths: Vec<Vec<&str>> = match group {
                        Some((items, _)) => items
                            .split(',')
                            .map(|item| [&segments[..], &[ident(item.trim())]].concat())
                            .collect(),
                        None => vec![segments],
                    };
                    paths.retain(|p| !p.is_empty() && !p.contains(&""));
                    for path in paths {
                        checked += 1;
                        if let Some(why) = unresolved(dir, &path) {
                            dangling.push(format!("{doc}: `{krate}::{}`: {why}", path.join("::")));
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 0, "the scan found no crate paths at all");
    assert!(
        dangling.is_empty(),
        "dangling crate paths:\n{}",
        dangling.join("\n")
    );
}

/// Whether `text` holds `word` after a non-identifier character and
/// followed by what `then` accepts.
fn has_word(text: &str, word: &str, then: impl Fn(&str) -> bool) -> bool {
    text.match_indices(word)
        .any(|(at, _)| !text[..at].ends_with(is_ident) && then(&text[at + word.len()..]))
}

/// Every file of the tree under one of `dirs` that `keep` accepts,
/// concatenated.
fn corpus(files: &[String], dirs: &[&str], keep: impl Fn(&str) -> bool) -> String {
    files
        .iter()
        .filter(|f| dirs.iter().any(|d| f.starts_with(d)) && keep(f))
        .map(|f| fs::read_to_string(root().join(f)).unwrap())
        .collect()
}

/// Names the docs cite that belong to std or rustc, not to this tree.
const NOT_OURS: &[&str] = &[
    // `<[T]>::sort_unstable_by`, which orders a calendar slot.
    "sort_unstable_by",
    // The lint in `#![forbid(unsafe_code)]`.
    "unsafe_code",
];

/// `word` is snake_case of two or more words.
fn multi_word_snake(word: &str) -> bool {
    let parts: Vec<&str> = word.split('_').collect();
    parts.len() >= 2
        && parts.iter().all(|p| {
            !p.is_empty()
                && p.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
        })
}

#[test]
fn long_snake_case_names_resolve() {
    let files = tree();
    let rust = |f: &str| f.ends_with(".rs");
    let fns = corpus(&files, &["crates/", "src/", "tests/", "examples/"], rust);
    let fields = corpus(&files, &["crates/"], |f| {
        rust(f) && f.split('/').nth(2) == Some("src")
    });
    let keys = corpus(&files, &["BENCH", "benchmark/src/"], |f| {
        f.ends_with(".json") || f.starts_with("benchmark/")
    });
    let stems: Vec<&str> = files
        .iter()
        .filter_map(|f| Path::new(f).file_stem()?.to_str())
        .collect();
    let packages: Vec<String> = files
        .iter()
        .filter(|f| f.ends_with("Cargo.toml"))
        .filter_map(|f| {
            let toml = fs::read_to_string(root().join(f)).unwrap();
            let package = toml.split("[package]").nth(1)?;
            let line = package
                .lines()
                .find(|l| l.trim_start().starts_with("name"))?;
            Some(line.split('"').nth(1)?.replace('-', "_"))
        })
        .collect();
    let mut checked = 0;
    let mut dangling = Vec::new();
    // The first three docs are README.md, DESIGN.md and the verify skill.
    for (doc, text) in docs().into_iter().take(3) {
        for span in code_spans(&text) {
            for name in span.split(|c| !is_ident(c)).filter(|w| multi_word_snake(w)) {
                checked += 1;
                // A `fn` prefix counts: `cargo test` filters by substring.
                let resolves = NOT_OURS.contains(&name)
                    || stems.contains(&name)
                    || packages.iter().any(|p| p == name)
                    || has_word(&fns, &format!("fn {name}"), |_| true)
                    || has_word(&fields, name, |t| {
                        t.starts_with(':') && !t.starts_with("::")
                    })
                    || has_word(&keys, name, |t| !t.starts_with(is_ident));
                if !resolves {
                    dangling.push(format!("{doc}: `{name}`"));
                }
            }
        }
    }
    assert!(checked > 0, "the scan found no long names at all");
    assert!(
        dangling.is_empty(),
        "names no fn, field, metric key, file or package:\n{}",
        dangling.join("\n")
    );
}
