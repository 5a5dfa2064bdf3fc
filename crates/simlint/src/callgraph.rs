//! The workspace call graph: a per-crate function index with method/free/
//! path-call edges, `use`-alias following, and crate-dependency pruning —
//! "name resolution lite". On top of it, the two flow-aware rules:
//!
//! * **`exec-substrate-transitive`** — no function in an engine crate may
//!   *reach* a simkit resource acquisition through any call chain whose
//!   intermediate hops avoid the sanctioned substrate (`trusted` paths,
//!   i.e. `crates/cluster` + `crates/simkit`). This closes the laundering
//!   hole in the token-level `exec-substrate-only` rule: a helper in an
//!   allowed crate that acquires resources on the engine's behalf.
//! * **`probe-passivity`** — code reachable from `crates/obs` or from any
//!   `impl Probe for ..` handler must never call a `&mut Sim`/resource-
//!   mutating API. This turns the CI byte-diff passivity gate into a
//!   static proof over the call graph.
//!
//! What the graph can and cannot prove: edges are matched **by name**
//! (free calls resolve within the caller's crate plus imported aliases;
//! method calls resolve to any same-named method in the caller's crate
//! dependency closure), so it over-approximates — a reported chain may
//! be infeasible if two unrelated types share a method name, and a call
//! made through a trait object or function pointer is still followed by
//! the callee's name. It never under-approximates within the parsed tree
//! except for calls constructed by macros at expansion time.

use crate::config::RuleConfig;
use crate::lexer::{Lexed, Spanned, Tok};
use crate::parser::ItemTree;
use crate::rules::{default_bans, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub line: usize,
    /// Callee name (the identifier before the `(`).
    pub name: String,
    pub kind: CallKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(..)`.
    Method,
    /// `name(..)` with no path or receiver.
    Free,
    /// `seg::..::name(..)` — the leading segments, name excluded.
    Path(Vec<String>),
}

/// One function in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    pub file: String,
    pub crate_name: String,
    pub name: String,
    pub owner: Option<String>,
    pub trait_name: Option<String>,
    pub line: usize,
    pub in_test: bool,
    pub calls: Vec<CallSite>,
}

/// Workspace crate topology: package names and their transitive path-dep
/// closures, read from the Cargo manifests. Empty maps disable pruning
/// (fixture trees have no manifests and resolve everything by name).
#[derive(Debug, Default)]
pub struct DepMap {
    /// `crates/<dir>` name -> package name (underscored).
    pkg_of_dir: BTreeMap<String, String>,
    /// package name -> transitive dependency closure (self excluded).
    closure: BTreeMap<String, BTreeSet<String>>,
    root_pkg: String,
}

fn norm(name: &str) -> String {
    name.replace('-', "_")
}

impl DepMap {
    /// Package owning a root-relative file path.
    pub fn crate_of(&self, rel: &str) -> String {
        if let Some(rest) = rel.strip_prefix("crates/") {
            let dir = rest.split('/').next().unwrap_or("");
            if let Some(pkg) = self.pkg_of_dir.get(dir) {
                return pkg.clone();
            }
            return norm(dir);
        }
        self.root_pkg.clone()
    }

    /// Is `dep` in `pkg`'s dependency closure? Unknown packages (or an
    /// empty map) answer yes: pruning is an accuracy aid, never a gate.
    pub fn allows(&self, pkg: &str, dep: &str) -> bool {
        if pkg == dep {
            return true;
        }
        match self.closure.get(pkg) {
            Some(set) => set.contains(dep),
            None => true,
        }
    }

    /// Does this package name exist in the workspace?
    pub fn is_workspace_pkg(&self, name: &str) -> bool {
        self.closure.contains_key(name)
    }
}

/// Extract `[package] name` and `[dependencies]`/`[dev-dependencies]` keys
/// from one Cargo.toml, with the tiny line-shape subset cargo uses here.
fn manifest_deps(src: &str) -> (Option<String>, Vec<String>) {
    let mut pkg = None;
    let mut deps = Vec::new();
    let mut section = String::new();
    for raw in src.lines() {
        let line = raw.trim();
        if let Some(h) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = h.trim().to_string();
            for s in ["dependencies.", "dev-dependencies."] {
                if let Some(d) = section.strip_prefix(s) {
                    deps.push(norm(d));
                }
            }
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section.as_str() {
            "package" if key == "name" => {
                pkg = Some(norm(val.trim().trim_matches('"')));
            }
            // `rand.workspace = true` is a dotted key for dependency `rand`.
            "dependencies" | "dev-dependencies" => {
                deps.push(norm(key.split('.').next().unwrap_or(key)))
            }
            _ => {}
        }
    }
    (pkg, deps)
}

/// Read the workspace manifests under `root` into a [`DepMap`].
pub fn load_deps(root: &Path) -> DepMap {
    let mut map = DepMap::default();
    let mut direct: BTreeMap<String, Vec<String>> = BTreeMap::new();
    if let Ok(src) = fs::read_to_string(root.join("Cargo.toml")) {
        let (pkg, deps) = manifest_deps(&src);
        if let Some(pkg) = pkg {
            map.root_pkg = pkg.clone();
            direct.insert(pkg, deps);
        }
    }
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let Ok(src) = fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let (pkg, deps) = manifest_deps(&src);
            let Some(pkg) = pkg else { continue };
            let dirname = dir
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default();
            map.pkg_of_dir.insert(dirname, pkg.clone());
            direct.insert(pkg, deps);
        }
    }
    // Transitive closure over workspace packages (external deps pass
    // through `allows` untouched — they are never graph nodes anyway).
    for pkg in direct.keys() {
        let mut seen = BTreeSet::new();
        let mut stack = vec![pkg.clone()];
        while let Some(p) = stack.pop() {
            for d in direct.get(&p).into_iter().flatten() {
                if seen.insert(d.clone()) {
                    stack.push(d.clone());
                }
            }
        }
        map.closure.insert(pkg.clone(), seen);
    }
    map
}

/// One parsed source file handed to the graph builder.
pub struct SourceFile<'a> {
    pub rel: &'a str,
    pub lexed: &'a Lexed,
    pub tree: &'a ItemTree,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Forward edges: `(callee, call-site line in the caller)`.
    edges: Vec<Vec<(usize, usize)>>,
}

/// Scan a body token range for call sites.
fn call_sites(toks: &[Spanned], body: (usize, usize)) -> Vec<CallSite> {
    let mut out = Vec::new();
    let punct = |k: usize| match toks.get(k) {
        Some(Spanned {
            tok: Tok::Punct(c), ..
        }) => Some(*c),
        _ => None,
    };
    for k in body.0..=body.1.min(toks.len().saturating_sub(1)) {
        let Some(Spanned {
            tok: Tok::Ident(name),
            line,
        }) = toks.get(k)
        else {
            continue;
        };
        // The `(` either follows directly or after a turbofish `::<..>`.
        let mut open = k + 1;
        if matches!(toks.get(open).map(|s| &s.tok), Some(Tok::PathSep))
            && punct(open + 1) == Some('<')
        {
            let mut depth = 0usize;
            let mut j = open + 1;
            while j < toks.len() {
                match punct(j) {
                    Some('<') => depth += 1,
                    Some('>') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            open = j + 1;
        }
        if punct(open) != Some('(') {
            continue;
        }
        let kind = if punct(k.wrapping_sub(1)) == Some('.') && k > 0 {
            CallKind::Method
        } else if k > 0 && matches!(toks.get(k - 1).map(|s| &s.tok), Some(Tok::PathSep)) {
            // Walk the path backwards: `a::b::name(`.
            let mut segs = Vec::new();
            let mut j = k - 1;
            while j >= 1 {
                let (Some(Tok::PathSep), Some(Tok::Ident(seg))) =
                    (toks.get(j).map(|s| &s.tok), toks.get(j - 1).map(|s| &s.tok))
                else {
                    break;
                };
                segs.push(seg.clone());
                if j < 2 {
                    break;
                }
                j -= 2;
            }
            segs.reverse();
            CallKind::Path(segs)
        } else if matches!(toks.get(k.wrapping_sub(1)).map(|s| &s.tok), Some(Tok::Ident(kw)) if kw == "fn")
        {
            continue; // nested `fn name(` definition, not a call
        } else {
            CallKind::Free
        };
        out.push(CallSite {
            line: *line,
            name: name.clone(),
            kind,
        });
    }
    out
}

/// Build the graph from parsed files plus the crate topology.
pub fn build(files: &[SourceFile<'_>], deps: &DepMap) -> CallGraph {
    let mut g = CallGraph::default();
    // Per-file alias tables for resolution: name -> path segments.
    let mut aliases: Vec<BTreeMap<String, Vec<String>>> = Vec::new();
    let mut globs: Vec<Vec<String>> = Vec::new(); // first segment of `use ..::*`
    let mut node_file: Vec<usize> = Vec::new();

    for (fi, f) in files.iter().enumerate() {
        let mut table = BTreeMap::new();
        let mut glob = Vec::new();
        for u in &f.tree.uses {
            if u.name == "*" {
                if let Some(first) = u.path.first() {
                    glob.push(norm(first));
                }
            } else {
                table.insert(u.name.clone(), u.path.clone());
            }
        }
        aliases.push(table);
        globs.push(glob);
        let crate_name = deps.crate_of(f.rel);
        for item in &f.tree.fns {
            let calls = item
                .body
                .map(|b| call_sites(&f.lexed.tokens, b))
                .unwrap_or_default();
            g.nodes.push(FnNode {
                file: f.rel.to_string(),
                crate_name: crate_name.clone(),
                name: item.name.clone(),
                owner: item.owner.clone(),
                trait_name: item.trait_name.clone(),
                line: item.line,
                in_test: item.in_test,
                calls,
            });
            node_file.push(fi);
        }
    }

    // Name indexes.
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free_fns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut assoc: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new(); // (owner, name)
    for (id, n) in g.nodes.iter().enumerate() {
        match &n.owner {
            Some(owner) => {
                methods.entry(&n.name).or_default().push(id);
                assoc.entry((owner, &n.name)).or_default().push(id);
            }
            None => free_fns.entry(&n.name).or_default().push(id),
        }
    }

    // Crate names actually present in the graph — the fallback namespace
    // when no manifests were loaded (fixture trees).
    let present: BTreeSet<String> = g.nodes.iter().map(|n| n.crate_name.clone()).collect();
    let known = |name: &str| deps.is_workspace_pkg(name) || present.contains(name);

    // Resolve the first segment of a path to a workspace package name.
    let resolve_crate = |seg: &str, caller_crate: &str, table: &BTreeMap<String, Vec<String>>| {
        let seg = norm(seg);
        if seg == "crate" || seg == "self" || seg == "super" {
            return Some(caller_crate.to_string());
        }
        if let Some(path) = table.get(seg.as_str()) {
            if let Some(first) = path.first() {
                let first = norm(first);
                if known(&first) {
                    return Some(first);
                }
            }
        }
        if known(&seg) {
            return Some(seg);
        }
        None
    };

    let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g.nodes.len()];
    for (id, n) in g.nodes.iter().enumerate() {
        let fi = node_file[id];
        let table = &aliases[fi];
        let glob = &globs[fi];
        let add = |targets: &[usize], line: usize, out: &mut Vec<(usize, usize)>| {
            for &t in targets {
                if t != id && deps.allows(&n.crate_name, &g.nodes[t].crate_name) {
                    out.push((t, line));
                }
            }
        };
        let in_crate = |targets: Option<&Vec<usize>>, pkg: &str| -> Vec<usize> {
            targets
                .into_iter()
                .flatten()
                .copied()
                .filter(|&t| g.nodes[t].crate_name == pkg)
                .collect()
        };
        let mut out = Vec::new();
        for c in &n.calls {
            match &c.kind {
                CallKind::Method => {
                    if let Some(ts) = methods.get(c.name.as_str()) {
                        add(ts, c.line, &mut out);
                    }
                }
                CallKind::Free => {
                    // Same-crate free fns...
                    add(
                        &in_crate(free_fns.get(c.name.as_str()), &n.crate_name),
                        c.line,
                        &mut out,
                    );
                    // ...plus whatever this exact name was imported as.
                    let mut imported: Vec<String> = Vec::new();
                    if let Some(first) = table.get(c.name.as_str()).and_then(|p| p.first()) {
                        imported.push(norm(first));
                    }
                    imported.extend(glob.iter().cloned());
                    for pkg in imported {
                        let pkg = if pkg == "crate" || pkg == "self" || pkg == "super" {
                            n.crate_name.clone()
                        } else {
                            pkg
                        };
                        add(
                            &in_crate(free_fns.get(c.name.as_str()), &pkg),
                            c.line,
                            &mut out,
                        );
                    }
                }
                CallKind::Path(segs) => {
                    // `Type::assoc(..)` — owner is the last leading segment.
                    if let Some(owner) = segs.last() {
                        if let Some(ts) = assoc.get(&(owner.as_str(), c.name.as_str())) {
                            add(ts, c.line, &mut out);
                        }
                    }
                    // `cratename::..::free(..)` (alias-expanded).
                    if let Some(first) = segs.first() {
                        if let Some(pkg) = resolve_crate(first, &n.crate_name, table) {
                            add(
                                &in_crate(free_fns.get(c.name.as_str()), &pkg),
                                c.line,
                                &mut out,
                            );
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        edges[id] = out;
    }
    g.edges = edges;
    g
}

impl CallGraph {
    pub fn edges(&self, id: usize) -> &[(usize, usize)] {
        &self.edges[id]
    }

    /// Reverse-BFS reachability: `reach[n]` is true when some call chain
    /// from `n` hits a sink using only non-trusted, non-test hops after
    /// `n`; `next[n]` is the hop to follow for chain reconstruction.
    fn reach(
        &self,
        sink: &dyn Fn(&FnNode) -> bool,
        trusted: &dyn Fn(&FnNode) -> bool,
    ) -> (Vec<bool>, Vec<Option<usize>>) {
        let n = self.nodes.len();
        let mut reach = vec![false; n];
        let mut next: Vec<Option<usize>> = vec![None; n];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (from, es) in self.edges.iter().enumerate() {
            for &(to, _) in es {
                rev[to].push(from);
            }
        }
        let mut queue: Vec<usize> = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if !node.in_test && sink(node) {
                reach[id] = true;
                queue.push(id);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let cur = queue[qi];
            qi += 1;
            // Chains may only pass *through* non-trusted, non-test nodes.
            if trusted(&self.nodes[cur]) || self.nodes[cur].in_test {
                continue;
            }
            for &caller in &rev[cur] {
                if !reach[caller] {
                    reach[caller] = true;
                    next[caller] = Some(cur);
                    queue.push(caller);
                }
            }
        }
        (reach, next)
    }

    /// Render the chain from `root` following `next` pointers.
    fn chain_text(&self, root: usize, next: &[Option<usize>]) -> String {
        let mut parts = Vec::new();
        let mut cur = root;
        for _ in 0..6 {
            let Some(n) = next[cur] else { break };
            let node = &self.nodes[n];
            parts.push(format!("`{}` ({}:{})", node.name, node.file, node.line));
            cur = n;
        }
        if next[cur].is_some() {
            parts.push("…".to_string());
        }
        parts.join(" -> ")
    }

    /// Line of the first edge `root -> next[root]` for violation placement.
    fn first_hop_line(&self, root: usize, next: &[Option<usize>]) -> usize {
        match next[root] {
            Some(hop) => self.edges[root]
                .iter()
                .find(|&&(to, _)| to == hop)
                .map(|&(_, line)| line)
                .unwrap_or(self.nodes[root].line),
            None => self.nodes[root].line,
        }
    }
}

/// Single-segment banned names for a graph rule (config override or the
/// rule's built-in list).
fn banned_names(rule: &RuleConfig) -> BTreeSet<String> {
    let from_cfg: Vec<String> = if rule.ban.is_empty() {
        default_bans(&rule.id)
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        rule.ban.clone()
    };
    from_cfg.into_iter().filter(|p| !p.contains("::")).collect()
}

fn under_any(file: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| file == p || file.starts_with(&format!("{p}/")))
}

/// First banned call site in a node, if any.
fn banned_call<'a>(node: &'a FnNode, bans: &BTreeSet<String>) -> Option<&'a CallSite> {
    node.calls.iter().find(|c| bans.contains(&c.name))
}

/// `exec-substrate-transitive`: engine functions must not reach a simkit
/// resource acquisition except through the `trusted` substrate paths.
/// Direct acquisitions (chain length 0) are left to the token-level
/// `exec-substrate-only` rule; this one reports laundered chains only.
pub fn exec_substrate_transitive(
    rule: &RuleConfig,
    g: &CallGraph,
    in_scope: &dyn Fn(&str) -> bool,
) -> Vec<(String, Violation)> {
    let bans = banned_names(rule);
    let trusted = |n: &FnNode| under_any(&n.file, &rule.trusted);
    let sink = |n: &FnNode| !under_any(&n.file, &rule.trusted) && banned_call(n, &bans).is_some();
    let (reach, next) = g.reach(&sink, &trusted);
    let mut out = Vec::new();
    for (id, node) in g.nodes.iter().enumerate() {
        if node.in_test || !in_scope(&node.file) || !reach[id] {
            continue;
        }
        if sink(node) {
            continue; // exec-substrate-only already flags the direct site
        }
        // Walk to the sink to name the acquired token.
        let mut cur = id;
        while let Some(nx) = next[cur] {
            cur = nx;
        }
        let token = banned_call(&g.nodes[cur], &bans)
            .map(|c| c.name.clone())
            .unwrap_or_default();
        out.push((
            node.file.clone(),
            Violation {
                line: g.first_hop_line(id, &next),
                rule: rule.id.clone(),
                message: format!(
                    "fn `{}` reaches simkit resource acquisition `{}` outside the \
                     substrate via {}",
                    node.name,
                    token,
                    g.chain_text(id, &next)
                ),
            },
        ));
    }
    out.sort();
    out.dedup();
    out
}

/// `probe-passivity`: nothing reachable from the observability plane
/// (functions in the rule's `paths`, plus every `impl Probe for ..`
/// method anywhere) may call a mutating `Sim` API. Unlike the substrate
/// rule this also reports direct calls — there is no token-level
/// companion rule.
pub fn probe_passivity(
    rule: &RuleConfig,
    g: &CallGraph,
    in_scope: &dyn Fn(&str) -> bool,
) -> Vec<(String, Violation)> {
    let bans = banned_names(rule);
    let trusted = |n: &FnNode| under_any(&n.file, &rule.trusted);
    let sink = |n: &FnNode| !under_any(&n.file, &rule.trusted) && banned_call(n, &bans).is_some();
    let (reach, next) = g.reach(&sink, &trusted);
    let mut out = Vec::new();
    for (id, node) in g.nodes.iter().enumerate() {
        let is_root =
            !node.in_test && (in_scope(&node.file) || node.trait_name.as_deref() == Some("Probe"));
        if !is_root || !reach[id] {
            continue;
        }
        let (line, detail) = match banned_call(node, &bans) {
            // Direct mutation in the probe-side function itself.
            Some(c) => (c.line, format!("calls mutating `{}` directly", c.name)),
            None => {
                let mut cur = id;
                while let Some(nx) = next[cur] {
                    cur = nx;
                }
                let token = banned_call(&g.nodes[cur], &bans)
                    .map(|c| c.name.clone())
                    .unwrap_or_default();
                (
                    g.first_hop_line(id, &next),
                    format!(
                        "reaches mutating `{}` via {}",
                        token,
                        g.chain_text(id, &next)
                    ),
                )
            }
        };
        out.push((
            node.file.clone(),
            Violation {
                line,
                rule: rule.id.clone(),
                message: format!(
                    "probe-side fn `{}` {} — probes must stay passive",
                    node.name, detail
                ),
            },
        ));
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn build_from(files: &[(&str, &str)], deps: &DepMap) -> CallGraph {
        let parsed: Vec<(String, Lexed, ItemTree)> = files
            .iter()
            .map(|(rel, src)| {
                let lexed = lex(src);
                let tree = parse(&lexed);
                (rel.to_string(), lexed, tree)
            })
            .collect();
        let sources: Vec<SourceFile<'_>> = parsed
            .iter()
            .map(|(rel, lexed, tree)| SourceFile { rel, lexed, tree })
            .collect();
        build(&sources, deps)
    }

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        build_from(files, &DepMap::default())
    }

    fn node<'a>(g: &'a CallGraph, name: &str) -> (usize, &'a FnNode) {
        g.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.name == name)
            .expect("node exists")
    }

    fn callees(g: &CallGraph, name: &str) -> Vec<String> {
        let (id, _) = node(g, name);
        g.edges(id)
            .iter()
            .map(|&(t, _)| g.nodes[t].name.clone())
            .collect()
    }

    #[test]
    fn method_vs_free_call_sites_are_distinguished() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn free_target() {}\n\
             impl T { fn method_target(&self) {} }\n\
             fn caller(t: &T) { free_target(); t.method_target(); }\n",
        )]);
        let (_, caller) = node(&g, "caller");
        assert_eq!(
            caller.calls,
            vec![
                CallSite {
                    line: 3,
                    name: "free_target".into(),
                    kind: CallKind::Free
                },
                CallSite {
                    line: 3,
                    name: "method_target".into(),
                    kind: CallKind::Method
                },
            ]
        );
        assert_eq!(callees(&g, "caller"), ["free_target", "method_target"]);
    }

    #[test]
    fn free_calls_do_not_cross_crates_without_an_import() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn caller() { helper(); }"),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        assert!(callees(&g, "caller").is_empty(), "no use, no edge");
    }

    #[test]
    fn use_alias_following_creates_cross_crate_edges() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use b::io::helper;\nfn caller() { helper(); }",
            ),
            ("crates/b/src/io.rs", "pub fn helper() {}"),
        ]);
        assert_eq!(callees(&g, "caller"), ["helper"]);
    }

    #[test]
    fn qualified_path_calls_resolve_without_imports() {
        // `b::helper(..)` needs no `use`, and `Type::assoc(..)` resolves
        // through the (owner, name) index.
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { b::helper(); Widget::make(); }",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() {}\nimpl Widget { pub fn make() {} }",
            ),
        ]);
        let mut cs = callees(&g, "caller");
        cs.sort();
        assert_eq!(cs, ["helper", "make"]);
    }

    #[test]
    fn renamed_import_still_resolves_to_the_target_crate() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use b as io;\nfn caller() { io::helper(); }",
            ),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        // `io` is not a workspace package, but the alias table maps it to
        // crate `b` — only possible because DepMap knows b. Without a
        // DepMap there are no package names, so set one up.
        let mut deps = DepMap::default();
        deps.pkg_of_dir.insert("a".into(), "a".into());
        deps.pkg_of_dir.insert("b".into(), "b".into());
        deps.closure
            .insert("a".into(), std::iter::once("b".to_string()).collect());
        deps.closure.insert("b".into(), BTreeSet::new());
        let g2 = build_from(
            &[
                (
                    "crates/a/src/lib.rs",
                    "use b as io;\nfn caller() { io::helper(); }",
                ),
                ("crates/b/src/lib.rs", "pub fn helper() {}"),
            ],
            &deps,
        );
        assert_eq!(callees(&g2, "caller"), ["helper"]);
        drop(g);
    }

    #[test]
    fn turbofish_calls_are_seen() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn target() -> u8 { 0 }\nfn caller() { target::<u8>(); }",
        )]);
        assert_eq!(callees(&g, "caller"), ["target"]);
    }

    #[test]
    fn test_nodes_never_participate_in_reachability() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn root() { helper(); }\n\
             fn helper() {}\n\
             #[cfg(test)]\nmod t { fn helper2() { sim.request(x); } }\n",
        )]);
        let rule = RuleConfig::new("exec-substrate-transitive");
        let v = exec_substrate_transitive(&rule, &g, &|_| true);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn laundered_acquisition_is_reported_with_chain() {
        let g = graph(&[
            (
                "crates/engine/src/run.rs",
                "use helpers::spill;\nfn run_query() { spill(); }",
            ),
            (
                "crates/helpers/src/lib.rs",
                "pub fn spill() { io_inner(); }\npub fn io_inner() { sim.request(disk); }",
            ),
        ]);
        let rule = RuleConfig::new("exec-substrate-transitive");
        let v = exec_substrate_transitive(&rule, &g, &|f| f.starts_with("crates/engine"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].0, "crates/engine/src/run.rs");
        assert_eq!(v[0].1.line, 2);
        assert!(v[0].1.message.contains("`request`"), "{}", v[0].1.message);
        assert!(v[0].1.message.contains("io_inner"), "{}", v[0].1.message);
    }

    #[test]
    fn trusted_substrate_chains_are_sanctioned() {
        let g = graph(&[
            (
                "crates/engine/src/run.rs",
                "use cluster::exec::run_phase;\nfn run_query() { run_phase(); }",
            ),
            (
                "crates/cluster/src/exec.rs",
                "pub fn run_phase() { sim.request(disk); }",
            ),
        ]);
        let mut rule = RuleConfig::new("exec-substrate-transitive");
        rule.trusted = vec!["crates/cluster".to_string()];
        let v = exec_substrate_transitive(&rule, &g, &|f| f.starts_with("crates/engine"));
        assert!(v.is_empty(), "substrate path must be allowed: {v:?}");
    }

    #[test]
    fn probe_passivity_flags_direct_and_laundered_mutation() {
        let g = graph(&[(
            "crates/obs/src/fold.rs",
            "fn fold(sim: &mut Sim) { sim.schedule_at(t, e); }\n\
             fn fold2() { tick(); }\n\
             fn tick() { sim.schedule_in(d, e); }\n\
             fn clean(ev: &ProbeEvent) { let _ = ev.depth; }\n",
        )]);
        let rule = RuleConfig::new("probe-passivity");
        let v = probe_passivity(&rule, &g, &|f| f.starts_with("crates/obs"));
        assert_eq!(v.len(), 3, "{v:?}");
        let msgs: String = v.iter().map(|(_, v)| v.message.as_str()).collect();
        assert!(msgs.contains("`fold`") && msgs.contains("`fold2`") && msgs.contains("`tick`"));
        assert!(!msgs.contains("`clean`"));
    }

    #[test]
    fn probe_impls_outside_scope_are_roots() {
        let g = graph(&[(
            "crates/other/src/lib.rs",
            "impl Probe for Spy { fn on_event(&mut self, ev: &E) { self.poke(); } }\n\
             impl Spy { fn poke(&self) { sim.request_as(r, s, c, e); } }\n",
        )]);
        let rule = RuleConfig::new("probe-passivity");
        let v = probe_passivity(&rule, &g, &|_| false);
        // `poke` is not a root (not in scope, not a Probe method), so
        // exactly the handler fires, with the chain in its message.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].1.message.contains("`on_event`"));
        assert!(v[0].1.message.contains("request_as"));
    }

    #[test]
    fn dep_closure_prunes_method_name_collisions() {
        let mut deps = DepMap::default();
        deps.pkg_of_dir.insert("a".into(), "a".into());
        deps.pkg_of_dir.insert("b".into(), "b".into());
        deps.closure.insert("a".into(), BTreeSet::new()); // a deps: none
        deps.closure
            .insert("b".into(), std::iter::once("a".to_string()).collect());
        let g = build_from(
            &[
                (
                    "crates/a/src/lib.rs",
                    "impl X { fn poke(&self) {} }\nfn caller(x: &X) { x.poke(); }",
                ),
                ("crates/b/src/lib.rs", "impl Y { fn poke(&self) {} }"),
            ],
            &deps,
        );
        let (id, _) = node(&g, "caller");
        let targets: Vec<&str> = g
            .edges(id)
            .iter()
            .map(|&(t, _)| g.nodes[t].file.as_str())
            .collect();
        // a does not depend on b, so `.poke()` resolves only to a's method.
        assert_eq!(targets, ["crates/a/src/lib.rs"]);
    }

    #[test]
    fn manifest_parsing_builds_transitive_closures() {
        let (pkg, deps) = manifest_deps(
            "[package]\nname = \"elephants-core\"\n\n[dependencies]\n\
             simkit = { workspace = true }\nrand.workspace = true\n\
             [dependencies.extra]\npath = \"x\"\n",
        );
        assert_eq!(pkg.as_deref(), Some("elephants_core"));
        assert_eq!(deps, ["simkit", "rand", "extra"]);
    }
}
