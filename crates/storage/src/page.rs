//! Page ids and the page size: the unit of IO, buffering, and energy
//! accounting.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Default page size (64 KiB — large pages suit scan-heavy DSS work).
pub const PAGE_SIZE: usize = 64 * 1024;

/// Identity of a page: a file (table/partition) and an index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// Owning file id.
    pub file: u32,
    /// Page index within the file.
    pub index: u32,
}

impl PageId {
    /// A page id.
    pub const fn new(file: u32, index: u32) -> Self {
        PageId { file, index }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_ordering_is_file_major() {
        let a = PageId::new(0, 999);
        let b = PageId::new(1, 0);
        assert!(a < b);
        assert_eq!(format!("{}", PageId::new(3, 14)), "3:14");
    }
}
