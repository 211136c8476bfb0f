//! Lightweight Unix-style path handling shared by all backends.
//!
//! Backends key their namespaces on normalized absolute strings
//! (`/a/b/c`), which keeps `MemFs` and the simulated file system free of
//! platform path semantics; `LocalFs` maps these onto a real root.

use crate::error::{PlfsError, Result};
use std::borrow::Cow;

/// Normalize a path: collapse `//`, resolve `.` segments, require absolute.
/// `..` is rejected rather than resolved — PLFS never emits it and
/// resolving it silently would mask container-layout bugs. Paths that
/// arrive from *outside* (VFS entry points, backends fed user strings)
/// go through this fallible form so a hostile path is an error, not an
/// abort.
pub(crate) fn try_normalize(path: &str) -> Result<String> {
    let mut out = String::with_capacity(path.len() + 1);
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                return Err(PlfsError::InvalidArg(format!(
                    "'..' not supported in PLFS paths: {path}"
                )))
            }
            s => {
                out.push('/');
                out.push_str(s);
            }
        }
    }
    if out.is_empty() {
        out.push('/');
    }
    Ok(out)
}

/// [`try_normalize`] that hands back its input when there is nothing to
/// do: a path that is already absolute with no empty, `.` or `..`
/// segment and no trailing `/` — every path PLFS generates itself — is
/// returned `Borrowed`, with no allocation; anything else gets
/// [`try_normalize`]'s owned result or its error. For per-op use on a
/// backend's data path.
pub(crate) fn try_normalize_cow(path: &str) -> Result<Cow<'_, str>> {
    let normal = path == "/"
        || path
            .strip_prefix('/')
            .is_some_and(|rest| rest.split('/').all(|seg| !matches!(seg, "" | "." | "..")));
    if normal {
        Ok(Cow::Borrowed(path))
    } else {
        try_normalize(path).map(Cow::Owned)
    }
}

/// Whether normalized `path` names something strictly inside normalized
/// `dir` (every path other than `/` is inside `/`).
pub(crate) fn is_inside(path: &str, dir: &str) -> bool {
    match dir {
        "/" => path != "/",
        _ => path
            .strip_prefix(dir)
            .is_some_and(|rest| rest.starts_with('/')),
    }
}

/// Infallible [`try_normalize`] for internally-generated paths, whose
/// segments the container layer controls end to end.
pub(crate) fn normalize(path: &str) -> String {
    match try_normalize(path) {
        Ok(p) => p,
        #[expect(clippy::panic, reason = "internal paths never contain '..'; a hit here is a container-layout bug worth aborting on")]
        Err(_) => panic!("'..' not supported in PLFS paths: {path}"),
    }
}

/// Join a base path and a child name.
pub fn join(base: &str, name: &str) -> String {
    if base == "/" {
        format!("/{name}")
    } else {
        format!("{base}/{name}")
    }
}

/// Parent directory of a normalized path (`/` is its own parent).
pub fn parent(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => path[..i].to_string(),
    }
}

/// Final component of a normalized path (empty for `/`).
pub(crate) fn basename(path: &str) -> &str {
    match path.rfind('/') {
        Some(i) => &path[i + 1..],
        None => path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses() {
        assert_eq!(normalize("/a//b/./c/"), "/a/b/c");
        assert_eq!(normalize("a/b"), "/a/b");
        assert_eq!(normalize("/"), "/");
        assert_eq!(normalize(""), "/");
    }

    #[test]
    #[should_panic(expected = "'..' not supported")]
    fn normalize_rejects_dotdot() {
        normalize("/a/../b");
    }

    #[test]
    fn borrowed_normalize_is_try_normalize_without_the_allocation() {
        for p in ["/", "/a", "/a/b/c", "/ns0/.plfs_shadow/f/subdir.3"] {
            assert!(
                matches!(try_normalize_cow(p), Ok(Cow::Borrowed(q)) if q == p),
                "{p:?} is normal and must come back borrowed"
            );
        }
        for p in [
            "", "a/b", "/a//b/", "/a/./b", "/a/../b", "/", "//", "/a/", ".", "..", "/..", "/a/b",
        ] {
            assert_eq!(
                try_normalize_cow(p).map(Cow::into_owned),
                try_normalize(p),
                "{p:?}"
            );
        }
    }

    #[test]
    fn is_inside_is_strict_and_whole_segment() {
        assert!(is_inside("/d/x", "/d"));
        assert!(is_inside("/d/x/y", "/d"));
        assert!(is_inside("/d", "/"));
        assert!(!is_inside("/d", "/d"));
        assert!(!is_inside("/dx", "/d"));
        assert!(!is_inside("/", "/"));
        assert!(!is_inside("/d", "/d/x"));
    }

    #[test]
    fn join_handles_root() {
        assert_eq!(join("/", "x"), "/x");
        assert_eq!(join("/a", "x"), "/a/x");
    }

    #[test]
    fn parent_and_basename() {
        assert_eq!(parent("/a/b/c"), "/a/b");
        assert_eq!(parent("/a"), "/");
        assert_eq!(parent("/"), "/");
        assert_eq!(basename("/a/b/c"), "c");
        assert_eq!(basename("/"), "");
    }

    #[test]
    fn join_then_parent_roundtrip() {
        let p = join("/data/run1", "ckpt");
        assert_eq!(parent(&p), "/data/run1");
        assert_eq!(basename(&p), "ckpt");
    }
}
