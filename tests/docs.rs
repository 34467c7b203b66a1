//! The prose docs stay short and true to the tree. DESIGN, README and
//! EXPERIMENTS together fit in a line budget; every repository path they
//! cite in backticks or link to exists (a `file.rs::name` citation names an
//! item defined in that file); and every `DESIGN §` reference — in the
//! docs, the code, the tests and the scripts — names a DESIGN heading.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The docs the budget covers. PAPER.md (the paper's own inventory) and
/// `benchmark/README.md` (the harness's) are not among them.
const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// What the three docs may total, in lines.
const MAX_DOC_LINES: usize = 1200;

/// Top-level directories whose paths the docs cite from the root.
const ROOT_DIRS: [&str; 8] = [
    "crates/",
    "src/",
    "tests/",
    "scripts/",
    "examples/",
    "ci/",
    "results/",
    "benchmark/",
];

/// File kinds a cited path may name.
const EXTENSIONS: [&str; 9] = [
    ".rs", ".md", ".sh", ".txt", ".json", ".csv", ".toml", ".yml", ".lock",
];

/// Where `DESIGN §` references are checked, besides the docs.
const CODE_DIRS: [&str; 5] = ["crates", "src", "tests", "scripts", "examples"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every file and directory under `dir` (relative to the root,
/// `/`-separated), build output and version control left out.
fn files_under(dir: &str, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(root().join(dir)) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "target" || name.starts_with('.') {
            continue;
        }
        let rel = if dir.is_empty() {
            name
        } else {
            format!("{dir}/{name}")
        };
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            files_under(&rel, out);
        }
        out.push(rel);
    }
}

/// `*` matches any run of characters other than `/`.
fn glob_match(pattern: &str, text: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == text,
        Some((head, tail)) => {
            let Some(rest) = text.strip_prefix(head) else {
                return false;
            };
            rest.char_indices()
                .map(|(i, _)| i)
                .chain([rest.len()])
                .take_while(|&i| !rest[..i].contains('/'))
                .any(|i| glob_match(tail, &rest[i..]))
        }
    }
}

/// What a cited path names: the files and directories whose path is it,
/// whole or after a `/`.
fn resolve<'a>(cited: &str, files: &'a [String]) -> Vec<&'a String> {
    let names = |f: &str| {
        glob_match(cited, f)
            || f.match_indices('/')
                .any(|(i, _)| glob_match(cited, &f[i + 1..]))
    };
    files.iter().filter(|f| names(f)).collect()
}

/// The inline code spans of a markdown text, fenced blocks left out.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// The relative targets of a markdown text's links.
fn link_targets(text: &str) -> Vec<String> {
    text.split("](")
        .skip(1)
        .filter_map(|rest| rest.split_once(')'))
        .map(|(target, _)| target.split('#').next().unwrap_or("").to_owned())
        .filter(|t| !t.is_empty() && !t.contains("://"))
        .collect()
}

/// A code span that cites a repository path: `(path, item)`, the item
/// being what follows a `file.rs::`.
fn cited_path(span: &str) -> Option<(&str, Option<&str>)> {
    let (path, item) = match span.split_once("::") {
        // `egress.rs::on_egress_arb(now, q, link)` names `on_egress_arb`.
        Some((path, item)) => (path, item.split('(').next()),
        None => (span, None),
    };
    let path_chars = |c: char| c.is_ascii_alphanumeric() || "_./*-".contains(c);
    let is_path = !path.is_empty()
        && path.chars().all(path_chars)
        && (EXTENSIONS.iter().any(|e| path.ends_with(e))
            || ROOT_DIRS.iter().any(|d| path.starts_with(d)));
    is_path.then_some((path, item.filter(|_| path.ends_with(".rs"))))
}

/// Whether `source` defines an item called `name`.
fn defines(source: &str, name: &str) -> bool {
    [
        "fn ",
        "struct ",
        "enum ",
        "const ",
        "static ",
        "mod ",
        "type ",
        "trait ",
        "macro_rules! ",
    ]
    .iter()
    .any(|kw| {
        source.match_indices(&format!("{kw}{name}")).any(|(i, m)| {
            !source[i + m.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        })
    })
}

/// DESIGN's section ids: `## 4b. Title` is `4b`.
fn design_sections() -> BTreeSet<String> {
    read("DESIGN.md")
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split_once(". "))
        .map(|(id, _)| id.to_owned())
        .collect()
}

/// The section ids a `§` reference starts at `text`: one id, or several
/// joined as `§4, §4b`, `§6b–§6d` or `§5 and §6a`.
fn section_ids(mut text: &str) -> Vec<String> {
    let mut ids = Vec::new();
    loop {
        let id: String = text
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if id.is_empty() {
            return ids;
        }
        text = &text[id.len()..];
        ids.push(id);
        match [", §", "–§", "-§", " and §", "/§"]
            .iter()
            .find_map(|sep| text.strip_prefix(sep))
        {
            Some(rest) => text = rest,
            None => return ids,
        }
    }
}

/// The ids of every `DESIGN §` / `DESIGN.md §` reference in `text`.
fn design_refs(text: &str) -> Vec<String> {
    ["DESIGN §", "DESIGN.md §"]
        .iter()
        .flat_map(|prefix| {
            text.match_indices(prefix)
                .flat_map(|(i, p)| section_ids(&text[i + p.len()..]))
        })
        .collect()
}

#[test]
fn the_three_docs_fit_the_line_budget() {
    let counts: Vec<(&str, usize)> = DOCS.iter().map(|d| (*d, read(d).lines().count())).collect();
    let total: usize = counts.iter().map(|&(_, n)| n).sum();
    assert!(
        total <= MAX_DOC_LINES,
        "{counts:?} total {total} lines, over the budget of {MAX_DOC_LINES}"
    );
}

#[test]
fn every_cited_path_exists() {
    let mut files = Vec::new();
    files_under("", &mut files);
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for target in link_targets(&text) {
            if !root().join(&target).exists() {
                missing.push(format!("{doc}: link to {target}"));
            }
        }
        for span in code_spans(&text) {
            let Some((path, item)) = cited_path(&span) else {
                continue;
            };
            let found = resolve(path.trim_end_matches('/'), &files);
            if found.is_empty() {
                missing.push(format!("{doc}: `{span}`: no such file"));
            } else if let Some(item) = item {
                let name = item.rsplit("::").next().unwrap_or(item);
                if !found.iter().any(|f| defines(&read(f), name)) {
                    missing.push(format!("{doc}: `{span}`: {found:?} define no `{name}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "cited but absent:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_design_section_reference_names_a_heading() {
    let sections = design_sections();
    let mut sources = Vec::new();
    for dir in CODE_DIRS {
        files_under(dir, &mut sources);
    }
    sources.retain(|f| [".rs", ".sh", ".toml"].iter().any(|e| f.ends_with(e)));
    sources.extend(["README.md", "EXPERIMENTS.md"].map(String::from));
    let mut dangling = Vec::new();
    for file in &sources {
        for id in design_refs(&read(file)) {
            if !sections.contains(&id) {
                dangling.push(format!("{file}: DESIGN §{id}"));
            }
        }
    }
    // DESIGN's own cross-references: a lettered id (`§4b`) is always one
    // of its sections, never the paper's.
    let design = read("DESIGN.md");
    for (i, _) in design.match_indices('§') {
        for id in section_ids(&design[i + '§'.len_utf8()..]) {
            let lettered = id.ends_with(|c: char| c.is_ascii_lowercase());
            if lettered && !sections.contains(&id) {
                dangling.push(format!("DESIGN.md: §{id}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "references to no DESIGN heading ({sections:?}):\n{}",
        dangling.join("\n")
    );
}

#[test]
fn the_checker_reads_what_the_docs_write() {
    assert_eq!(
        cited_path("crates/fabric/src/network/recn_glue.rs::dealloc"),
        Some(("crates/fabric/src/network/recn_glue.rs", Some("dealloc")))
    );
    assert_eq!(cited_path("RunSpec::network"), None);
    assert_eq!(cited_path("--json none"), None);
    assert!(glob_match(
        "results/*.sweep.json",
        "results/incast64.sweep.json"
    ));
    assert!(!glob_match("results/*.csv", "results/a/b.csv"));
    assert_eq!(section_ids("6b–§6d): x"), ["6b", "6d"]);
    let cited = format!("(DESIGN {s}4, {s}4b) and DESIGN.md {s}6a.", s = '§');
    assert_eq!(design_refs(&cited), ["4", "4b", "6a"]);
    assert!(defines("pub(crate) fn dealloc(", "dealloc"));
    assert!(!defines("fn dealloc_all(", "dealloc"));
}
