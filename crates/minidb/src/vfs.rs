//! The injectable I/O boundary under the write-ahead log: a durable
//! append-only file ([`DurableFile`]), the file-system surface the log
//! needs ([`Vfs`]), and its three implementations: a real directory
//! ([`StdVfs`]), an in-memory model of crash semantics ([`MemVfs`]), and
//! deterministic fault injection over it ([`FaultyVfs`]).

use crate::error::{DbError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// An append-only durable file handle. Appends buffer in the OS (or the
/// in-memory model); [`DurableFile::sync`] is the durability barrier.
pub trait DurableFile: Send {
    /// Append bytes at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Durability barrier (fsync). Data appended before a successful
    /// `sync` survives a crash; later data may not.
    fn sync(&mut self) -> Result<()>;
}

/// Minimal file-system surface the durability layer needs. Implemented
/// by [`StdVfs`] (a real directory), [`MemVfs`] (in-memory, models
/// crashes), and [`FaultyVfs`] (injects failures for tests).
///
/// A name points to a file and a handle holds the file it opened, as on
/// a POSIX file system: after a rename over its name, a handle still
/// writes to the replaced file, which no name reaches any more and a
/// crash discards. A call that fails leaves its effect unknown: an
/// append may have landed part of its bytes, a failed fsync made nothing
/// durable that was not durable before, and a rename may have landed
/// before it reported its error.
pub trait Vfs: Send + Sync {
    /// Whole-file read; `Ok(None)` when the file does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;
    /// Create (truncating the file `name` points to, if any) and open
    /// for append.
    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>>;
    /// Open an existing file for append.
    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>>;
    /// Atomically point `to` at the file `from` names and remove `from`;
    /// once this returns, the new name survives a crash.
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Truncate a file to `len` bytes.
    fn set_len(&self, name: &str, len: u64) -> Result<()>;
}

fn vfs_err(op: &str, name: &str, e: std::io::Error) -> DbError {
    DbError::Io(format!("{op} {name}: {e}"))
}

/// Lock file inside a durable directory; see [`StdVfs::new`].
pub const LOCK_FILE: &str = "LOCK";

/// Real-directory [`Vfs`] backed by `std::fs`.
pub struct StdVfs {
    dir: PathBuf,
    /// Exclusive lock on [`LOCK_FILE`], held for the life of the VFS.
    _lock: std::fs::File,
}

impl StdVfs {
    /// Open (creating if needed) `dir` as a durable directory and take
    /// its exclusive lock. Recovery truncates a torn WAL tail and the
    /// writer appends with its own LSNs, so two live openers would
    /// corrupt each other's log; a second open — from this process or
    /// another — fails with [`DbError::Locked`] until the first
    /// `StdVfs` is dropped. The OS releases the lock when the process
    /// dies, so a crash leaves no stale lock behind.
    pub fn new(dir: impl Into<PathBuf>) -> Result<StdVfs> {
        let dir = dir.into();
        let shown = dir.display().to_string();
        std::fs::create_dir_all(&dir).map_err(|e| vfs_err("create_dir_all", &shown, e))?;
        let lock = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))
            .map_err(|e| vfs_err("open", LOCK_FILE, e))?;
        match lock.try_lock() {
            Ok(()) => Ok(StdVfs { dir, _lock: lock }),
            Err(std::fs::TryLockError::WouldBlock) => Err(DbError::Locked(shown)),
            Err(std::fs::TryLockError::Error(e)) => Err(vfs_err("lock", LOCK_FILE, e)),
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

struct StdFile(std::fs::File, String);

impl DurableFile for StdFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.0.write_all(data).map_err(|e| vfs_err("append", &self.1, e))
    }

    fn sync(&mut self) -> Result<()> {
        self.0.sync_data().map_err(|e| vfs_err("fsync", &self.1, e))
    }
}

impl Vfs for StdVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(vfs_err("read", name, e)),
        }
    }

    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        let f = std::fs::File::create(self.path(name)).map_err(|e| vfs_err("create", name, e))?;
        Ok(Box::new(StdFile(f, name.to_string())))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        let f = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))
            .map_err(|e| vfs_err("open_append", name, e))?;
        Ok(Box::new(StdFile(f, name.to_string())))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| vfs_err("rename", from, e))?;
        let shown = self.dir.display().to_string();
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| vfs_err("fsync", &shown, e))
    }

    fn set_len(&self, name: &str, len: u64) -> Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| vfs_err("open", name, e))?;
        f.set_len(len).map_err(|e| vfs_err("set_len", name, e))
    }
}

/// One in-memory file: the inode names point to and handles hold.
#[derive(Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed durable: everything up to the last `sync`.
    synced_len: usize,
}

type Inode = Arc<Mutex<MemFile>>;

/// In-memory [`Vfs`] that models crash semantics. Names point to inodes
/// and a handle holds its inode, so a rename over a name leaves the
/// handles open on the replaced file writing to it, unlinked. Every file
/// tracks how much of it has been fsynced, and [`MemVfs::crashed_copy`]
/// yields the state a machine would see after power loss: each named
/// file cut to its synced length, and no unlinked file. A rename, a
/// `create`'s truncation and a `set_len` are durable once they return.
#[derive(Clone, Default)]
pub struct MemVfs {
    names: Arc<Mutex<HashMap<String, Inode>>>,
}

impl MemVfs {
    /// Empty in-memory file system.
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    /// The file system as it would look after a crash right now: each
    /// named file truncated to its last synced length, in a copy that
    /// shares nothing with this one.
    pub fn crashed_copy(&self) -> MemVfs {
        let names = self.names.lock();
        let copied = names
            .iter()
            .map(|(name, inode)| {
                let f = inode.lock();
                let data = f.data[..f.synced_len].to_vec();
                (name.clone(), Arc::new(Mutex::new(MemFile { synced_len: data.len(), data })))
            })
            .collect();
        MemVfs { names: Arc::new(Mutex::new(copied)) }
    }

    /// Current full contents of `name` (including unsynced bytes).
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        self.names.lock().get(name).map(|f| f.lock().data.clone())
    }

    /// Point `name` at a new file holding `data`, fully synced. Test hook
    /// for injecting truncations and bit flips.
    pub fn overwrite(&self, name: &str, data: Vec<u8>) {
        let synced_len = data.len();
        let inode = Arc::new(Mutex::new(MemFile { data, synced_len }));
        self.names.lock().insert(name.to_string(), inode);
    }

    /// The inode `name` points to; `op` names the call that failed if none.
    fn inode(&self, op: &str, name: &str) -> Result<Inode> {
        let names = self.names.lock();
        names
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::Io(format!("{op} {name}: no such file")))
    }
}

struct MemHandle(Inode);

impl DurableFile for MemHandle {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.0.lock().data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut f = self.0.lock();
        f.synced_len = f.data.len();
        Ok(())
    }
}

impl Vfs for MemVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.file(name))
    }

    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        let inode = self.names.lock().entry(name.to_string()).or_default().clone();
        *inode.lock() = MemFile::default();
        Ok(Box::new(MemHandle(inode)))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        Ok(Box::new(MemHandle(self.inode("open_append", name)?)))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut names = self.names.lock();
        let inode = names
            .remove(from)
            .ok_or_else(|| DbError::Io(format!("rename {from}: no such file")))?;
        names.insert(to.to_string(), inode);
        Ok(())
    }

    fn set_len(&self, name: &str, len: u64) -> Result<()> {
        let inode = self.inode("set_len", name)?;
        let mut f = inode.lock();
        f.data.truncate(len as usize);
        f.synced_len = f.synced_len.min(f.data.len());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault injection.

/// A kind of write-side call, the unit [`FaultyVfs`] counts calls and
/// arms faults by. Reads are never counted or failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// [`Vfs::create`].
    Create,
    /// [`Vfs::open_append`].
    OpenAppend,
    /// [`DurableFile::append`].
    Append,
    /// [`DurableFile::sync`].
    Sync,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::set_len`].
    SetLen,
}

impl Call {
    /// Every kind of call.
    pub const ALL: [Call; 6] =
        [Call::Create, Call::OpenAppend, Call::Append, Call::Sync, Call::Rename, Call::SetLen];
}

/// The failure [`FaultyVfs`] injects into one call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// An append lands the first half of its bytes, then errors.
    ShortAppend,
    /// An append lands nothing and errors.
    FailedAppend,
    /// An fsync errors and makes nothing durable.
    FailedSync,
    /// A rename errors before it lands: both names stay as they were.
    RenameLost,
    /// A rename lands, then errors, as when the directory fsync after
    /// it fails.
    RenameLanded,
    /// A `create` errors, creating or truncating nothing.
    FailedCreate,
    /// An `open_append` errors.
    FailedOpenAppend,
    /// A `set_len` errors, truncating nothing.
    FailedSetLen,
}

impl Fault {
    /// Every fault.
    pub const ALL: [Fault; 8] = [
        Fault::ShortAppend,
        Fault::FailedAppend,
        Fault::FailedSync,
        Fault::RenameLost,
        Fault::RenameLanded,
        Fault::FailedCreate,
        Fault::FailedOpenAppend,
        Fault::FailedSetLen,
    ];

    /// The kind of call this fault fails.
    pub fn call(self) -> Call {
        match self {
            Fault::ShortAppend | Fault::FailedAppend => Call::Append,
            Fault::FailedSync => Call::Sync,
            Fault::RenameLost | Fault::RenameLanded => Call::Rename,
            Fault::FailedCreate => Call::Create,
            Fault::FailedOpenAppend => Call::OpenAppend,
            Fault::FailedSetLen => Call::SetLen,
        }
    }
}

/// What the file system does after an injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lasting {
    /// Only the faulted call fails; the next one works, as on a disk
    /// that recovers from a transient error.
    Transient,
    /// The file system stays down: every later write-side call fails, as
    /// on a crashed machine.
    Fatal,
}

#[derive(Default)]
struct FaultState {
    /// Write-side calls made so far, indexed by [`Call`].
    calls: [u64; Call::ALL.len()],
    /// The armed fault, the count of its kind of call at which it fires,
    /// and what happens after.
    armed: Option<(Fault, u64, Lasting)>,
    /// The file the first injected fault hit, once one has.
    fired: Option<String>,
    /// Set once a fatal fault fired; every later write-side call fails.
    down: bool,
}

impl FaultState {
    /// Count a `call` on `name`. Errors if the file system is down;
    /// returns the armed fault if this call is the one it fires on.
    fn enter(&mut self, call: Call, name: &str) -> Result<Option<Fault>> {
        if self.down {
            return Err(DbError::Io(format!("{name}: injected: file system is down")));
        }
        let n = &mut self.calls[call as usize];
        *n += 1;
        match self.armed {
            Some((fault, at, lasting)) if fault.call() == call && *n == at => {
                self.armed = None;
                self.fired.get_or_insert_with(|| name.to_string());
                self.down = lasting == Lasting::Fatal;
                Ok(Some(fault))
            }
            _ => Ok(None),
        }
    }
}

/// The error an injected `fault` on `name` returns.
fn injected(fault: Fault, name: &str) -> DbError {
    DbError::Io(format!("{name}: injected {fault:?}"))
}

/// [`Vfs`] wrapper over a [`MemVfs`] that injects deterministic faults:
/// one [`Fault`] armed at the Nth call of its kind ([`FaultyVfs::fail`]),
/// transient or fatal. It counts write-side calls per [`Call`] kind. Reads pass through, even when the file system is down,
/// so tests can inspect and recover the state.
#[derive(Clone)]
pub struct FaultyVfs {
    inner: MemVfs,
    state: Arc<Mutex<FaultState>>,
}

impl FaultyVfs {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: MemVfs) -> FaultyVfs {
        FaultyVfs { inner, state: Arc::new(Mutex::new(FaultState::default())) }
    }

    /// Arm `fault` to fire on the `nth` (1-based) call of its kind from
    /// now on, replacing any fault armed before.
    pub fn fail(self, fault: Fault, nth: u64, lasting: Lasting) -> FaultyVfs {
        assert!(nth > 0, "fail is 1-based");
        let mut st = self.state.lock();
        let at = st.calls[fault.call() as usize] + nth;
        st.armed = Some((fault, at, lasting));
        drop(st);
        self
    }

    /// Write-side calls of kind `call` made so far, failed ones included.
    pub fn calls(&self, call: Call) -> u64 {
        self.state.lock().calls[call as usize]
    }

    /// The name of the file the first injected fault hit, once one has; a rename's is its target.
    pub fn fired(&self) -> Option<String> {
        self.state.lock().fired.clone()
    }

    /// The wrapped in-memory file system (for `crashed_copy` etc.).
    pub fn inner(&self) -> &MemVfs {
        &self.inner
    }

    /// `inner`'s handle wrapped to honor the shared fault state.
    fn wrap(&self, name: &str, inner: Box<dyn DurableFile>) -> Box<dyn DurableFile> {
        Box::new(FaultyFile { inner, name: name.to_string(), state: self.state.clone() })
    }
}

/// A [`DurableFile`] that honors the shared [`FaultyVfs`] fault state.
struct FaultyFile {
    inner: Box<dyn DurableFile>,
    /// The name it was opened under, for errors and [`FaultyVfs::fired`].
    name: String,
    state: Arc<Mutex<FaultState>>,
}

impl DurableFile for FaultyFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let fault = self.state.lock().enter(Call::Append, &self.name)?;
        match fault {
            Some(Fault::ShortAppend) => {
                self.inner.append(&data[..data.len() / 2])?;
                Err(injected(Fault::ShortAppend, &self.name))
            }
            Some(fault) => Err(injected(fault, &self.name)),
            None => self.inner.append(data),
        }
    }

    fn sync(&mut self) -> Result<()> {
        if let Some(fault) = self.state.lock().enter(Call::Sync, &self.name)? {
            return Err(injected(fault, &self.name));
        }
        self.inner.sync()
    }
}

impl Vfs for FaultyVfs {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn create(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        if let Some(fault) = self.state.lock().enter(Call::Create, name)? {
            return Err(injected(fault, name));
        }
        Ok(self.wrap(name, self.inner.create(name)?))
    }

    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>> {
        if let Some(fault) = self.state.lock().enter(Call::OpenAppend, name)? {
            return Err(injected(fault, name));
        }
        Ok(self.wrap(name, self.inner.open_append(name)?))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        match self.state.lock().enter(Call::Rename, to)? {
            Some(Fault::RenameLanded) => {
                self.inner.rename(from, to)?;
                Err(injected(Fault::RenameLanded, to))
            }
            Some(fault) => Err(injected(fault, to)),
            None => self.inner.rename(from, to),
        }
    }

    fn set_len(&self, name: &str, len: u64) -> Result<()> {
        if let Some(fault) = self.state.lock().enter(Call::SetLen, name)? {
            return Err(injected(fault, name));
        }
        self.inner.set_len(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_models_fsync_loss() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("a").unwrap();
        f.append(b"one").unwrap();
        f.sync().unwrap();
        f.append(b"two").unwrap();
        let crashed = vfs.crashed_copy();
        assert_eq!(crashed.file("a").unwrap(), b"one");
        assert_eq!(vfs.file("a").unwrap(), b"onetwo");
    }

    #[test]
    fn mem_vfs_handles_follow_inodes() {
        let vfs = MemVfs::new();
        let mut old = vfs.create("log").unwrap();
        old.append(b"old").unwrap();
        old.sync().unwrap();
        let mut new = vfs.create("tmp").unwrap();
        new.append(b"new").unwrap();
        new.sync().unwrap();
        vfs.rename("tmp", "log").unwrap();
        // The old handle writes to the replaced file, which no name
        // reaches: neither the live file system nor a crash sees it.
        old.append(b"lost").unwrap();
        old.sync().unwrap();
        assert_eq!(vfs.file("log").unwrap(), b"new");
        assert_eq!(vfs.file("tmp"), None);
        assert_eq!(vfs.crashed_copy().file("log").unwrap(), b"new");
        // The renamed file's handle still reaches it under its new name.
        new.append(b"er").unwrap();
        assert_eq!(vfs.file("log").unwrap(), b"newer");
        // `create` over a name truncates the file that name points to,
        // so its open handles see the truncation too.
        let mut again = vfs.create("log").unwrap();
        again.append(b"x").unwrap();
        new.append(b"y").unwrap();
        assert_eq!(vfs.file("log").unwrap(), b"xy");
        assert_eq!(vfs.crashed_copy().file("log").unwrap(), b"");
    }

    #[test]
    fn faulty_vfs_failed_sync_makes_nothing_durable() {
        let vfs = FaultyVfs::new(MemVfs::new()).fail(Fault::FailedSync, 2, Lasting::Fatal);
        let mut f = vfs.create("b").unwrap();
        f.append(b"1").unwrap();
        f.sync().unwrap();
        f.append(b"2").unwrap();
        assert!(f.sync().is_err());
        // Failed sync: the bytes never became durable.
        assert_eq!(vfs.inner().crashed_copy().file("b").unwrap(), b"1");
        assert!(vfs.create("c").is_err(), "a fatal fault leaves the file system down");
    }

    #[test]
    fn faulty_vfs_counts_calls_and_fails_once_or_for_good() {
        for lasting in [Lasting::Transient, Lasting::Fatal] {
            let vfs = FaultyVfs::new(MemVfs::new());
            let mut f = vfs.create("a").unwrap();
            f.append(b"abcd").unwrap();
            let vfs = vfs.fail(Fault::ShortAppend, 2, lasting);
            f.append(b"ef").unwrap();
            let err = f.append(b"ghij").unwrap_err().to_string();
            assert!(err.contains("a: injected ShortAppend"), "{err}");
            assert_eq!(vfs.inner().file("a").unwrap(), b"abcdefgh");
            assert_eq!(vfs.fired().as_deref(), Some("a"));
            assert_eq!(f.append(b"k").is_ok(), lasting == Lasting::Transient, "{lasting:?}");
            assert_eq!(vfs.calls(Call::Append), 3 + (lasting == Lasting::Transient) as u64);
            assert_eq!(vfs.calls(Call::Create), 1);
        }

        // A rename that lands, then errors, has moved the name.
        let vfs = FaultyVfs::new(MemVfs::new()).fail(Fault::RenameLanded, 1, Lasting::Transient);
        drop(vfs.create("tmp").unwrap());
        assert!(vfs.rename("tmp", "log").is_err());
        assert_eq!((vfs.inner().file("tmp"), vfs.inner().file("log")), (None, Some(vec![])));
        // One that fails before it lands has not.
        let vfs = vfs.fail(Fault::RenameLost, 1, Lasting::Transient);
        drop(vfs.create("tmp").unwrap());
        assert!(vfs.rename("tmp", "log2").is_err());
        assert!(vfs.inner().file("log2").is_none() && vfs.inner().file("tmp").is_some());
        vfs.rename("tmp", "log2").unwrap();
        assert_eq!(vfs.fired().as_deref(), Some("log"), "the first fault's target");
        assert_eq!(vfs.calls(Call::Rename), 3);
    }
}
