//! Federated metadata management (§V of the paper, Figure 6).
//!
//! Production parallel file systems in 2012 served each directory from a
//! single metadata server; PanFS could run several MDS but only as rigidly
//! separate mounted *realms*. PLFS glues those realms together: a
//! [`Federation`] is an ordered list of namespace roots (each representing
//! a different MDS domain) plus two independent static-hashing policies:
//!
//! * **container spreading** — the canonical container directory for a
//!   logical file is placed in `hash(logical path) % n` (attacks the
//!   create-storm of *application-generated* N-N workloads);
//! * **subdir spreading** — `subdir.i` of a container is placed in
//!   `hash(logical path, i) % n`, with a *metalink* in the canonical
//!   container pointing at the shadow location (attacks the physical N-N
//!   workload PLFS itself creates from a logical N-1 workload).
//!
//! The hashing is static (contrast GIGA+'s dynamic splitting, cited in the
//! paper): checkpoint workloads are large and uniform, so a fixed spread
//! balances well without any runtime coordination.

use crate::path::normalize;

/// Placement policy across metadata namespaces.
///
/// # Examples
///
/// ```
/// use plfs::Federation;
///
/// // Ten metadata namespaces (the paper's "PLFS-10"), spreading both
/// // containers and subdirs.
/// let fed = Federation::new(
///     (0..10).map(|i| format!("/vol{i}")).collect(),
///     32,
///     true,
///     true,
/// );
/// let ns = fed.container_namespace("/out/ckpt.0001");
/// assert!(ns < 10);
/// // Placement is deterministic: every process computes the same home.
/// assert_eq!(ns, fed.container_namespace("/out/ckpt.0001"));
/// ```
#[derive(Debug, Clone)]
pub struct Federation {
    namespaces: Vec<String>,
    subdirs_per_container: usize,
    spread_containers: bool,
    spread_subdirs: bool,
}

impl Federation {
    /// A federation over `namespaces` (each a backend path acting as the
    /// mount point of one MDS domain).
    ///
    /// # Panics
    /// Panics if `namespaces` is empty or `subdirs_per_container` is zero.
    pub fn new(
        namespaces: Vec<String>,
        subdirs_per_container: usize,
        spread_containers: bool,
        spread_subdirs: bool,
    ) -> Self {
        assert!(!namespaces.is_empty(), "need at least one namespace");
        assert!(subdirs_per_container > 0, "need at least one subdir");
        let namespaces = namespaces.iter().map(|n| normalize(n)).collect();
        Federation {
            namespaces,
            subdirs_per_container,
            spread_containers,
            spread_subdirs,
        }
    }

    /// The common case of one namespace (no federation): everything lives
    /// under `root`.
    pub fn single(root: &str, subdirs_per_container: usize) -> Self {
        Federation::new(vec![root.to_string()], subdirs_per_container, false, false)
    }

    /// Number of metadata namespaces (the paper's "PLFS-X" X).
    pub(crate) fn namespace_count(&self) -> usize {
        self.namespaces.len()
    }

    /// The namespace roots, in placement order.
    pub fn namespaces(&self) -> &[String] {
        &self.namespaces
    }

    /// How many `subdir.<i>` entries each container spreads writers over.
    pub fn subdirs_per_container(&self) -> usize {
        self.subdirs_per_container
    }

    /// Namespace index hosting the canonical container of `logical`.
    pub fn container_namespace(&self, logical: &str) -> usize {
        if self.spread_containers {
            (stable_hash(logical.as_bytes()) % self.namespaces.len() as u64) as usize
        } else {
            0
        }
    }

    /// Physical path of the canonical container directory for `logical`.
    pub fn canonical_container_path(&self, logical: &str) -> String {
        self.namespace_path(self.container_namespace(logical), logical)
    }

    /// Physical path of `logical` in namespace `ns`.
    pub(crate) fn namespace_path(&self, ns: usize, logical: &str) -> String {
        let root = &self.namespaces[ns];
        if root == "/" {
            logical.to_string()
        } else {
            format!("{root}{logical}")
        }
    }

    /// Namespace index hosting subdir `i` of `logical`'s container.
    pub fn subdir_namespace(&self, logical: &str, i: usize) -> usize {
        if self.spread_subdirs {
            let mut key = logical.as_bytes().to_vec();
            key.extend_from_slice(&(i as u64).to_le_bytes());
            (stable_hash(&key) % self.namespaces.len() as u64) as usize
        } else {
            self.container_namespace(logical)
        }
    }
}

/// FNV-1a — must match placement between independent processes, so it is
/// pinned here rather than delegated to `std::hash`.
fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_federation_puts_everything_in_root() {
        let f = Federation::single("/ns", 4);
        assert_eq!(f.namespace_count(), 1);
        assert_eq!(f.container_namespace("/a"), 0);
        assert_eq!(f.canonical_container_path("/a/b"), "/ns/a/b");
    }

    #[test]
    fn root_namespace_needs_no_prefix() {
        let f = Federation::single("/", 2);
        assert_eq!(f.canonical_container_path("/x"), "/x");
    }

    #[test]
    fn container_spreading_uses_multiple_namespaces() {
        let f = Federation::new((0..4).map(|i| format!("/vol{i}")).collect(), 4, true, false);
        let used: std::collections::BTreeSet<usize> = (0..100)
            .map(|i| f.container_namespace(&format!("/dir/file{i}")))
            .collect();
        assert!(used.len() >= 3, "poor container spread: {used:?}");
    }

    #[test]
    fn subdir_spreading_is_per_subdir() {
        let f = Federation::new(
            (0..4).map(|i| format!("/vol{i}")).collect(),
            16,
            false,
            true,
        );
        let used: std::collections::BTreeSet<usize> =
            (0..16).map(|i| f.subdir_namespace("/ckpt", i)).collect();
        assert!(used.len() >= 3, "poor subdir spread: {used:?}");
    }

    #[test]
    fn placement_is_deterministic() {
        let mk = || {
            Federation::new(
                (0..10).map(|i| format!("/vol{i}")).collect(),
                32,
                true,
                true,
            )
        };
        let (a, b) = (mk(), mk());
        for i in 0..32 {
            assert_eq!(a.subdir_namespace("/f", i), b.subdir_namespace("/f", i));
        }
        assert_eq!(a.container_namespace("/f"), b.container_namespace("/f"));
    }

    #[test]
    fn spread_balances_roughly_evenly() {
        // 20 MDS, 1000 containers: no namespace should be starved or
        // overloaded beyond 2x the mean — static hashing balance claim.
        let f = Federation::new(
            (0..20).map(|i| format!("/vol{i}")).collect(),
            1,
            true,
            false,
        );
        let mut counts = [0usize; 20];
        for i in 0..1000 {
            counts[f.container_namespace(&format!("/out/ckpt.{i}"))] += 1;
        }
        for (ns, &c) in counts.iter().enumerate() {
            assert!(c > 10 && c < 100, "namespace {ns} got {c}/1000");
        }
    }

    #[test]
    #[should_panic(expected = "at least one namespace")]
    fn empty_federation_rejected() {
        Federation::new(vec![], 1, false, false);
    }
}
