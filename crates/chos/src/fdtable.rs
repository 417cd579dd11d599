//! POSIX-style file descriptor tables.
//!
//! Both the host kernel (per process) and F-Stack (its own user-space fd
//! namespace, returned by `ff_socket`) need lowest-free-fd allocation with
//! O(1) lookup; this generic table serves both.

use crate::errno::Errno;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A file descriptor number.
pub type Fd = i32;

/// A descriptor table mapping small non-negative integers to entries of
/// type `T`, reusing the lowest free number first (POSIX semantics).
///
/// # Example
///
/// ```
/// use chos::fdtable::FdTable;
///
/// let mut t: FdTable<&str> = FdTable::with_capacity(16);
/// let a = t.alloc("socket-a").unwrap();
/// let b = t.alloc("socket-b").unwrap();
/// assert_eq!((a, b), (0, 1));
/// t.free(a).unwrap();
/// assert_eq!(t.alloc("socket-c").unwrap(), 0); // lowest free first
/// assert_eq!(t.get(b), Some(&"socket-b"));
/// ```
#[derive(Debug, Clone)]
pub struct FdTable<T> {
    slots: Vec<Option<T>>,
    /// The freed numbers below `slots.len()`, lowest on top: a heap in a
    /// vector, so steady open/close churn allocates nothing.
    free: BinaryHeap<Reverse<Fd>>,
    limit: usize,
}

impl<T> FdTable<T> {
    /// Creates a table that can hold at most `limit` open descriptors.
    pub fn with_capacity(limit: usize) -> Self {
        FdTable {
            slots: Vec::new(),
            free: BinaryHeap::new(),
            limit,
        }
    }

    /// Allocates the lowest free descriptor for `entry`.
    ///
    /// # Errors
    ///
    /// [`Errno::EMFILE`] when the table is full.
    pub fn alloc(&mut self, entry: T) -> Result<Fd, Errno> {
        if let Some(Reverse(fd)) = self.free.pop() {
            self.slots[fd as usize] = Some(entry);
            return Ok(fd);
        }
        if self.is_full() {
            return Err(Errno::EMFILE);
        }
        let fd = self.slots.len() as Fd;
        self.slots.push(Some(entry));
        Ok(fd)
    }

    /// Releases `fd`, returning its entry.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] if `fd` is not open.
    pub fn free(&mut self, fd: Fd) -> Result<T, Errno> {
        let slot = self.slots.get_mut(fd.max(0) as usize).ok_or(Errno::EBADF)?;
        let entry = slot.take().ok_or(Errno::EBADF)?;
        self.free.push(Reverse(fd));
        Ok(entry)
    }

    /// Looks up `fd`.
    pub fn get(&self, fd: Fd) -> Option<&T> {
        if fd < 0 {
            return None;
        }
        self.slots.get(fd as usize).and_then(Option::as_ref)
    }

    /// Mutable lookup of `fd`.
    pub fn get_mut(&mut self, fd: Fd) -> Option<&mut T> {
        if fd < 0 {
            return None;
        }
        self.slots.get_mut(fd as usize).and_then(Option::as_mut)
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` when [`FdTable::alloc`] would fail with `EMFILE`.
    pub fn is_full(&self) -> bool {
        self.free.is_empty() && self.slots.len() >= self.limit
    }

    /// `true` if no descriptor is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(fd, entry)` pairs in ascending fd order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i as Fd, e)))
    }

    /// Iterates over `(fd, entry)` pairs in ascending fd order, mutably —
    /// the poll loop's allocation-free walk over open sockets.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Fd, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|e| (i as Fd, e)))
    }

    /// Descriptor numbers currently open, ascending.
    pub fn fds(&self) -> Vec<Fd> {
        self.iter().map(|(fd, _)| fd).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_free_first() {
        let mut t: FdTable<u32> = FdTable::with_capacity(8);
        let fds: Vec<Fd> = (0..4).map(|i| t.alloc(i).unwrap()).collect();
        assert_eq!(fds, vec![0, 1, 2, 3]);
        t.free(1).unwrap();
        t.free(0).unwrap();
        assert_eq!(t.alloc(10).unwrap(), 0);
        assert_eq!(t.alloc(11).unwrap(), 1);
        assert_eq!(t.alloc(12).unwrap(), 4);
    }

    #[test]
    fn limit_yields_emfile() {
        let mut t: FdTable<()> = FdTable::with_capacity(2);
        t.alloc(()).unwrap();
        t.alloc(()).unwrap();
        assert_eq!(t.alloc(()).unwrap_err(), Errno::EMFILE);
        t.free(0).unwrap();
        assert!(t.alloc(()).is_ok());
    }

    #[test]
    fn bad_fds_are_ebadf_or_none() {
        let mut t: FdTable<u32> = FdTable::with_capacity(4);
        assert_eq!(t.free(0).unwrap_err(), Errno::EBADF);
        assert_eq!(t.free(-1).unwrap_err(), Errno::EBADF);
        assert_eq!(t.get(-1), None);
        assert_eq!(t.get(7), None);
        assert_eq!(t.get_mut(7), None);
        let fd = t.alloc(5).unwrap();
        t.free(fd).unwrap();
        assert_eq!(t.free(fd).unwrap_err(), Errno::EBADF, "double close");
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t: FdTable<u32> = FdTable::with_capacity(4);
        let fd = t.alloc(1).unwrap();
        *t.get_mut(fd).unwrap() = 99;
        assert_eq!(t.get(fd), Some(&99));
    }

    #[test]
    fn iteration_and_len() {
        let mut t: FdTable<char> = FdTable::with_capacity(8);
        for c in ['a', 'b', 'c'] {
            t.alloc(c).unwrap();
        }
        t.free(1).unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.fds(), vec![0, 2]);
        let collected: Vec<_> = t.iter().map(|(fd, &c)| (fd, c)).collect();
        assert_eq!(collected, vec![(0, 'a'), (2, 'c')]);
    }
}
