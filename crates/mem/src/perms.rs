//! Page permissions (Guarantee 0).

use crate::idmap::IdMap;

use crate::addr::PageAddr;

/// Access permission for one page, from the accelerator's point of view.
///
/// Crossing Guard obtains these per-transaction (paper §3.1, as in Border
/// Control) and uses them to enforce Guarantee 0: an accelerator must never
/// read a page it cannot read (0a) nor obtain or supply writable/dirty data
/// for a page it cannot write (0b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PagePerm {
    /// No access at all.
    None,
    /// Read-only access.
    Read,
    /// Full read-write access.
    #[default]
    ReadWrite,
}

impl PagePerm {
    /// Whether a read (GetS) is allowed.
    pub const fn allows_read(self) -> bool {
        matches!(self, PagePerm::Read | PagePerm::ReadWrite)
    }

    /// Whether a write (GetM, dirty data) is allowed.
    pub const fn allows_write(self) -> bool {
        matches!(self, PagePerm::ReadWrite)
    }
}

/// The page-permission table Crossing Guard consults.
///
/// Pages not explicitly set have the table's default permission. In a real
/// system this information comes from the IOMMU/page tables; here the test
/// harness programs it directly.
///
/// ```rust
/// use xg_mem::{PageAddr, PagePerm, PermissionTable};
/// let mut t = PermissionTable::with_default(PagePerm::ReadWrite);
/// t.set(PageAddr::new(3), PagePerm::Read);
/// assert!(t.get(PageAddr::new(3)).allows_read());
/// assert!(!t.get(PageAddr::new(3)).allows_write());
/// assert!(t.get(PageAddr::new(4)).allows_write());
/// ```
#[derive(Debug, Default)]
pub struct PermissionTable {
    pages: IdMap<PageAddr, PagePerm>,
    default: PagePerm,
}

// By hand for a field-wise `clone_from` (see `SetAssocCache`): a guard
// restored from a checkpoint carries its permissions along and should not
// reallocate them.
impl Clone for PermissionTable {
    fn clone(&self) -> Self {
        PermissionTable {
            pages: self.pages.clone(),
            default: self.default,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let PermissionTable { pages, default } = source;
        self.pages.clone_from(pages);
        self.default = *default;
    }
}

impl PermissionTable {
    /// A table where every page is read-write (the stress-test assumption,
    /// paper §4.1).
    pub fn new() -> Self {
        Self::default()
    }

    /// A table whose unset pages have permission `default`.
    pub fn with_default(default: PagePerm) -> Self {
        PermissionTable {
            pages: IdMap::default(),
            default,
        }
    }

    /// Sets the permission for one page.
    pub fn set(&mut self, page: PageAddr, perm: PagePerm) {
        self.pages.insert(page, perm);
    }

    /// Reads the permission for one page.
    pub fn get(&self, page: PageAddr) -> PagePerm {
        self.pages.get(&page).copied().unwrap_or(self.default)
    }

    /// Number of explicitly-set pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no page has an explicit permission.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_predicates() {
        assert!(!PagePerm::None.allows_read());
        assert!(!PagePerm::None.allows_write());
        assert!(PagePerm::Read.allows_read());
        assert!(!PagePerm::Read.allows_write());
        assert!(PagePerm::ReadWrite.allows_read());
        assert!(PagePerm::ReadWrite.allows_write());
    }

    #[test]
    fn table_defaults_and_overrides() {
        let mut t = PermissionTable::with_default(PagePerm::None);
        assert_eq!(t.get(PageAddr::new(0)), PagePerm::None);
        t.set(PageAddr::new(0), PagePerm::ReadWrite);
        t.set(PageAddr::new(1), PagePerm::Read);
        assert_eq!(t.get(PageAddr::new(0)), PagePerm::ReadWrite);
        assert_eq!(t.get(PageAddr::new(1)), PagePerm::Read);
        assert_eq!(t.get(PageAddr::new(2)), PagePerm::None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn default_table_is_permissive() {
        let t = PermissionTable::new();
        assert!(t.get(PageAddr::new(99)).allows_write());
        assert!(t.is_empty());
    }
}
