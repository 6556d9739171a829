//! Dead-dependency and hidden-API checks over the workspace.
//!
//! Every `[dependencies]` / `[dev-dependencies]` entry of a
//! `crates/*/Cargo.toml` must be used by that crate: its lib name
//! (`-` → `_`) must appear as an identifier in a `.rs` file under the
//! crate's `src/`, `tests/` or `examples/`, or under one of the paths
//! its `[[test]]` / `[[example]]` / `[[bin]]` targets name; a
//! `[features]` entry forwarding to the dependency also counts as a
//! use. A `[dependencies]` entry must moreover be used by non-test code:
//! a crate's `src/` files up to their first top-level `#[cfg(test)]`, or
//! the paths its `[[bin]]` / `[[example]]` targets name; a dependency
//! only tests use belongs under `[dev-dependencies]`, where it stays out
//! of the crate's dependents' builds. And every `[workspace.dependencies]` entry must be declared by
//! at least one member, and every `shims/*` directory must be the path
//! of such an entry (`members = ["shims/*"]` would otherwise keep
//! building a leftover shim). A declared-but-unused crate only costs
//! build time, so nothing else would notice it drifting back in.
//!
//! No `#[doc(hidden)]` attribute may appear in the non-test part of a
//! `crates/*/src` file: a test oracle or a test-only helper goes under
//! `#[cfg(test)]`, where a release build leaves it out, instead of
//! shipping as public API that the docs hide.

use std::fs;
use std::path::{Path, PathBuf};

/// The parts of a `Cargo.toml` this check reads.
#[derive(Default)]
struct Manifest {
    /// Dependency names from the dependency sections.
    deps: Vec<String>,
    /// The names under `[dependencies]` alone.
    runtime_deps: Vec<String>,
    /// `[workspace.dependencies]` names (root manifest only).
    workspace_deps: Vec<String>,
    /// `path = "..."` values of the `[workspace.dependencies]` entries.
    workspace_paths: Vec<PathBuf>,
    /// Right-hand sides of every `[features]` entry.
    features: String,
    /// `path = "..."` values of the explicit targets.
    target_paths: Vec<PathBuf>,
    /// The `[[bin]]` / `[[example]]` subset of `target_paths`.
    runtime_target_paths: Vec<PathBuf>,
}

/// A line-based reader for the small TOML subset the manifests use:
/// `[section]` / `[[target]]` headers and one `key = value` per line.
fn read_manifest(path: &Path) -> Manifest {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut m = Manifest::default();
    let mut section = String::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let name = key.strip_suffix(".workspace").unwrap_or(key).to_string();
        match section.as_str() {
            "dependencies" => {
                m.runtime_deps.push(name.clone());
                m.deps.push(name);
            }
            "dev-dependencies" | "build-dependencies" => m.deps.push(name),
            "workspace.dependencies" => {
                m.workspace_deps.push(name);
                let path = value
                    .split_once("path")
                    .and_then(|(_, v)| v.split('"').nth(1));
                m.workspace_paths.extend(path.map(PathBuf::from));
            }
            "features" => m.features.push_str(value),
            "test" | "example" | "bin" | "bench" if key == "path" => {
                let path = PathBuf::from(value.trim().trim_matches('"'));
                if matches!(section.as_str(), "example" | "bin") {
                    m.runtime_target_paths.push(path.clone());
                }
                m.target_paths.push(path);
            }
            _ => {}
        }
    }
    m
}

/// Every `.rs` file under `path` (or `path` itself when it is a file).
fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = fs::read_dir(path) else {
        return;
    };
    for entry in entries {
        rust_files(&entry.expect("readable directory entry").path(), out);
    }
}

/// True when `ident` occurs in `text` with no identifier character on
/// either side.
fn mentions_ident(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Manifests of the workspace members, `crates/*` first.
fn member_manifests(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in ["crates", "shims"] {
        let mut members: Vec<PathBuf> = fs::read_dir(root.join(dir))
            .expect("member directory")
            .map(|e| e.expect("readable member").path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        members.sort();
        out.extend(members);
    }
    out
}

#[test]
fn every_crate_dependency_is_used() {
    let root = workspace_root();
    let mut unused = Vec::new();
    let mut checked = 0;
    for manifest_path in member_manifests(&root) {
        let crate_dir = manifest_path.parent().expect("crate dir");
        if !crate_dir.starts_with(root.join("crates")) {
            continue;
        }
        let manifest = read_manifest(&manifest_path);
        let mut files = Vec::new();
        for dir in ["src", "tests", "examples"] {
            rust_files(&crate_dir.join(dir), &mut files);
        }
        for target in &manifest.target_paths {
            rust_files(&crate_dir.join(target), &mut files);
        }
        let sources: Vec<String> = files
            .iter()
            .map(|f| fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display())))
            .collect();
        for dep in &manifest.deps {
            checked += 1;
            let lib = dep.replace('-', "_");
            let forwarded = manifest.features.contains(&format!("\"{dep}/"))
                || manifest.features.contains(&format!("\"dep:{dep}\""));
            if !forwarded && !sources.iter().any(|s| mentions_ident(s, &lib)) {
                unused.push(format!("{}: {dep}", manifest_path.display()));
            }
        }
    }
    assert!(checked > 0, "no dependencies found under crates/");
    assert!(
        unused.is_empty(),
        "declared but never used (delete the entry): {unused:#?}"
    );
}

/// `text` up to its first top-level `#[cfg(test)]` line: the part of a
/// source file a non-test build compiles.
fn non_test_part(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_end() == "#[cfg(test)]" {
            break;
        }
        at += line.len();
    }
    &text[..at]
}

#[test]
fn every_runtime_dependency_is_used_outside_tests() {
    let root = workspace_root();
    let mut test_only = Vec::new();
    let mut checked = 0;
    for manifest_path in member_manifests(&root) {
        let crate_dir = manifest_path.parent().expect("crate dir");
        if !crate_dir.starts_with(root.join("crates")) {
            continue;
        }
        let manifest = read_manifest(&manifest_path);
        let mut files = Vec::new();
        rust_files(&crate_dir.join("src"), &mut files);
        let mut sources: Vec<String> = files
            .iter()
            .map(|f| fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display())))
            .map(|text| non_test_part(&text).to_string())
            .collect();
        let mut targets = Vec::new();
        for target in &manifest.runtime_target_paths {
            rust_files(&crate_dir.join(target), &mut targets);
        }
        sources.extend(
            targets
                .iter()
                .map(|f| fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display()))),
        );
        for dep in &manifest.runtime_deps {
            checked += 1;
            let lib = dep.replace('-', "_");
            let forwarded = manifest.features.contains(&format!("\"{dep}/"))
                || manifest.features.contains(&format!("\"dep:{dep}\""));
            if !forwarded && !sources.iter().any(|s| mentions_ident(s, &lib)) {
                test_only.push(format!("{}: {dep}", manifest_path.display()));
            }
        }
    }
    assert!(checked > 0, "no [dependencies] found under crates/");
    assert!(
        test_only.is_empty(),
        "[dependencies] entries no non-test code uses (move them to [dev-dependencies]): {test_only:#?}"
    );
}

#[test]
fn no_hidden_item_outside_tests() {
    let root = workspace_root();
    let mut hidden = Vec::new();
    let mut scanned = 0;
    for manifest_path in member_manifests(&root) {
        let crate_dir = manifest_path.parent().expect("crate dir");
        if !crate_dir.starts_with(root.join("crates")) {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&crate_dir.join("src"), &mut files);
        for file in files {
            scanned += 1;
            let text =
                fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            for (i, line) in non_test_part(&text).lines().enumerate() {
                let line = line.trim_start();
                if line.starts_with('#') && line.contains("doc(hidden)") {
                    let rel = file.strip_prefix(&root).expect("under root");
                    hidden.push(format!("{}:{}", rel.display(), i + 1));
                }
            }
        }
    }
    assert!(scanned > 0, "no sources found under crates/*/src");
    assert!(
        hidden.is_empty(),
        "#[doc(hidden)] outside #[cfg(test)] (put the item under #[cfg(test)] or make it \
         supported API): {hidden:#?}"
    );
}

#[test]
fn every_workspace_dependency_is_declared_by_a_member() {
    let root = workspace_root();
    let declared: Vec<String> = member_manifests(&root)
        .iter()
        .flat_map(|p| read_manifest(p).deps)
        .collect();
    let workspace = read_manifest(&root.join("Cargo.toml")).workspace_deps;
    assert!(!workspace.is_empty(), "no [workspace.dependencies] found");
    let orphans: Vec<&String> = workspace
        .iter()
        .filter(|dep| !declared.contains(dep))
        .collect();
    assert!(
        orphans.is_empty(),
        "[workspace.dependencies] entries no member declares: {orphans:?}"
    );
}

#[test]
fn every_shim_is_a_workspace_dependency() {
    let root = workspace_root();
    let named = read_manifest(&root.join("Cargo.toml")).workspace_paths;
    assert!(
        named.contains(&PathBuf::from("shims/proptest")),
        "{named:?}"
    );
    let mut leftovers: Vec<PathBuf> = fs::read_dir(root.join("shims"))
        .expect("shims directory")
        .map(|e| e.expect("readable shim").path())
        .filter(|dir| dir.is_dir())
        .map(|dir| dir.strip_prefix(&root).expect("under root").to_path_buf())
        .filter(|rel| !named.contains(rel))
        .collect();
    leftovers.sort();
    assert!(
        leftovers.is_empty(),
        "shims no [workspace.dependencies] path names (delete them): {leftovers:?}"
    );
}

#[test]
fn reader_finds_declared_dependencies_and_uses() {
    let manifest = read_manifest(&workspace_root().join("crates/dohperf/Cargo.toml"));
    assert!(manifest.deps.iter().any(|d| d == "dohperf-telemetry"));
    assert!(manifest.deps.iter().any(|d| d == "proptest"));
    assert!(manifest.features.contains("\"dohperf-telemetry/"));
    assert!(manifest
        .target_paths
        .contains(&PathBuf::from("../../tests/integration_manifest.rs")));
    assert!(!manifest
        .runtime_target_paths
        .contains(&PathBuf::from("../../tests/integration_manifest.rs")));
    assert!(!manifest.runtime_deps.iter().any(|d| d == "proptest"));
    let code = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[cfg(test)]\n}\n";
    assert_eq!(non_test_part(code), "pub fn f() {}\n");
    assert_eq!(
        non_test_part("    #[cfg(test)]\nfn g() {}"),
        "    #[cfg(test)]\nfn g() {}"
    );
    assert!(mentions_ident("use dohperf_dns::name;", "dohperf_dns"));
    assert!(!mentions_ident("use dohperf_dnsx::name;", "dohperf_dns"));
    assert!(!mentions_ident("let operand = 1;", "rand"));
}
