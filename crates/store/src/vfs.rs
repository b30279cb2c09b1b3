//! The virtual file system under the store: every byte the store reads or
//! writes goes through a [`Vfs`], so durability bugs are testable.
//!
//! Two implementations:
//!
//! * [`RealVfs`] — plain `std::fs`, buffered appends, the production path.
//! * [`FaultVfs`] — a deterministic fault injector in the spirit of
//!   `cb-netsim::faults`: whether an operation faults is a pure function of
//!   `(seed, path, op, byte offset)`, so a failing run replays exactly.
//!   It injects short writes, fsync failures and disk-full errors, and —
//!   the crash-point machinery — it can *crash* at the Nth mutating
//!   operation: the in-flight write lands only partially (a torn frame),
//!   every later operation fails, and [`FaultVfs::apply_crash`] then
//!   rewrites the directory to what a real power cut would have left:
//!   unsynced file tails are dropped, renames whose parent directory
//!   was never fsynced are rolled back, and files and directories whose
//!   parent was never fsynced after they were created disappear.
//!
//! The crash model is what makes the store's durability discipline
//! *checkable* rather than asserted: forget to fsync a segment before
//! advancing `CURRENT`, or to fsync the parent directory after an atomic
//! rename or after creating a file or directory, and the crash-point
//! sweeps in `tests/store_chaos.rs` lose an acknowledged record and fail.

use cb_sim::SeedFork;
use cb_telemetry::CounterHandle;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A writable file handle dispensed by a [`Vfs`].
///
/// Writes are sequential appends from the store's point of view; `sync` is
/// the durability barrier (data written before a successful `sync` survives
/// a crash, data after it may not).
pub trait VfsFile: fmt::Debug + Send + Sync {
    /// Append `bytes` at the current end of the file.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Push buffered bytes to the OS (no durability guarantee).
    fn flush(&mut self) -> io::Result<()>;
    /// Flush and fsync — the durable-write barrier.
    fn sync(&mut self) -> io::Result<()>;
}

/// The file-system surface the store is written against. Object-safe so a
/// store can hold an `Arc<dyn Vfs>` chosen at open time.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Create `path` (and parents) as a directory if missing.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Remove a directory tree.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Remove one file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// File and directory names directly under `path` (unsorted).
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Read exactly `len` bytes of `path` starting at byte `offset`.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Create-or-replace `path` with `bytes` (not atomic, not durable —
    /// callers rename + fsync for that).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Exclusively create `path` for appending (fails if it exists).
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open an existing `path` for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically rename `from` to `to` (replacing `to`). Durable only
    /// after [`Vfs::sync_dir`] on the parent.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncate `path` to `len` bytes and fsync it.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Fsync the file at `path` (open + sync_data).
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Fsync the directory at `path`, making renames and creations inside
    /// it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Length of the file at `path`.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Whether anything exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Whether `path` is a directory.
    fn is_dir(&self, path: &Path) -> bool;
}

/// The production [`Vfs`]: plain `std::fs` with buffered append handles.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl RealVfs {
    /// A shared handle to the singleton real file system.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(RealVfs)
    }
}

/// [`RealVfs`]'s file handle: a `BufWriter` over the raw descriptor, so
/// per-frame appends do not pay a syscall each.
#[derive(Debug)]
struct RealFile(BufWriter<File>);

impl VfsFile for RealFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.flush()?;
        self.0.get_ref().sync_data()
    }
}

impl Vfs for RealVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            if let Some(name) = entry?.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        Ok(out)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(Box::new(RealFile(BufWriter::new(file))))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(RealFile(BufWriter::new(file))))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_data()
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directory fsync is a unix-ism; opening a directory read-only and
        // syncing it is the portable-enough std spelling.
        match File::open(path) {
            Ok(d) => d.sync_data(),
            // Platforms that refuse to open directories get best-effort.
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
            Err(e) => Err(e),
        }
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }
}

/// A [`Vfs`] wrapper that counts every fsync issued through it: file and
/// handle fsyncs, directory fsyncs and truncates (which fsync the kept
/// prefix). The store wraps whatever VFS it is opened with, so
/// `store.fsync.calls` covers the blob pack, its index, the segments, the
/// generation pointers and every directory — not just the ones a call
/// site remembered to count.
#[derive(Debug)]
pub(crate) struct CountingVfs {
    inner: Arc<dyn Vfs>,
    fsyncs: CounterHandle,
}

impl CountingVfs {
    /// Wrap `inner`, counting its fsyncs into `fsyncs`.
    pub(crate) fn wrap(inner: Arc<dyn Vfs>, fsyncs: CounterHandle) -> Arc<dyn Vfs> {
        Arc::new(CountingVfs { inner, fsyncs })
    }
}

/// A [`CountingVfs`] file handle: counts its `sync` calls.
#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    fsyncs: CounterHandle,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn sync(&mut self) -> io::Result<()> {
        self.fsyncs.incr();
        self.inner.sync()
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.inner.read_at(path, offset, len)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(path, bytes)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.create_new(path)?;
        Ok(Box::new(CountingFile {
            inner,
            fsyncs: self.fsyncs.clone(),
        }))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(CountingFile {
            inner,
            fsyncs: self.fsyncs.clone(),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.fsyncs.incr();
        self.inner.truncate(path, len)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.fsyncs.incr();
        self.inner.fsync(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.fsyncs.incr();
        self.inner.sync_dir(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        self.inner.is_dir(path)
    }
}

/// The I/O operations [`FaultVfs`] can fault, in the injection key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A data write (file append or whole-file write).
    Write,
    /// An fsync of a file.
    Fsync,
    /// An atomic rename.
    Rename,
    /// A truncate.
    Truncate,
    /// A directory fsync.
    SyncDir,
    /// A file or directory removal.
    Remove,
}

impl IoOp {
    fn label(self) -> &'static str {
        match self {
            IoOp::Write => "write",
            IoOp::Fsync => "fsync",
            IoOp::Rename => "rename",
            IoOp::Truncate => "truncate",
            IoOp::SyncDir => "sync-dir",
            IoOp::Remove => "remove",
        }
    }
}

/// The transient (non-crash) I/O fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// A write lands only a deterministic prefix of its bytes, then errors.
    ShortWrite,
    /// Fsync fails; the data stays volatile.
    FsyncFail,
    /// The device is full: nothing lands, `ENOSPC`-style error.
    DiskFull,
}

impl IoFaultKind {
    /// Every kind, in a stable order.
    pub const ALL: [IoFaultKind; 3] = [
        IoFaultKind::ShortWrite,
        IoFaultKind::FsyncFail,
        IoFaultKind::DiskFull,
    ];
}

/// A deterministic I/O fault plan, mirroring `cb-netsim::FaultPlan`.
#[derive(Debug, Clone)]
pub struct IoFaultPlan {
    /// Seed for every injection draw.
    pub seed: u64,
    /// Fraction of eligible operations that fault, in `[0, 1]`.
    pub rate: f64,
    /// Which transient kinds the plan draws from.
    pub kinds: Vec<IoFaultKind>,
    /// Crash at the Nth mutating operation (1-based). `None` never crashes.
    pub crash_at: Option<u64>,
}

impl IoFaultPlan {
    /// A plan that never faults (pure op counting / crash-state tracking).
    pub fn counting(seed: u64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            rate: 0.0,
            kinds: IoFaultKind::ALL.to_vec(),
            crash_at: None,
        }
    }

    /// A plan that crashes at mutating op `n` (1-based) and never injects
    /// transient faults.
    pub fn crash_at(seed: u64, n: u64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            rate: 0.0,
            kinds: IoFaultKind::ALL.to_vec(),
            crash_at: Some(n),
        }
    }

    /// A plan injecting transient faults at `rate` and never crashing.
    pub fn transient(seed: u64, rate: f64) -> IoFaultPlan {
        assert!((0.0..=1.0).contains(&rate), "fault rate in [0, 1]");
        IoFaultPlan {
            seed,
            rate,
            kinds: IoFaultKind::ALL.to_vec(),
            crash_at: None,
        }
    }
}

/// Per-file durability tracking: how long the file is, and how much of it
/// has been made durable by an fsync.
#[derive(Debug, Clone, Copy)]
struct FileState {
    len: u64,
    synced_len: u64,
}

/// A rename whose parent directory has not been fsynced yet: on crash it
/// rolls back (`to` restored to what it held, `from` restored with the
/// renamed bytes).
#[derive(Debug)]
struct PendingRename {
    parent: PathBuf,
    from: PathBuf,
    to: PathBuf,
    /// What `to` held before the rename clobbered it (None: nothing).
    replaced: Option<Vec<u8>>,
}

/// Create `path` and any missing ancestors. Returns the directories whose
/// fsync makes the new entries durable (none when `path` already existed):
/// a new directory survives a power cut only once its parent is synced.
pub(crate) fn create_dirs(vfs: &dyn Vfs, path: &Path) -> io::Result<Vec<PathBuf>> {
    let parents: Vec<PathBuf> = missing_dirs(path, |p| vfs.is_dir(p))
        .map(parent_dir)
        .collect();
    if !parents.is_empty() {
        vfs.create_dir_all(path)?;
    }
    Ok(parents)
}

/// A file or directory created since its parent directory was last
/// fsynced: on crash it disappears (a directory with everything in it).
#[derive(Debug)]
struct PendingEntry {
    parent: PathBuf,
    path: PathBuf,
}

#[derive(Debug, Default)]
struct FaultState {
    ops: u64,
    crashed: bool,
    files: HashMap<PathBuf, FileState>,
    pending_renames: Vec<PendingRename>,
    pending_entries: Vec<PendingEntry>,
}

/// `path` and each of its ancestors that is not a directory yet,
/// innermost first: what `create_dir_all(path)` would create.
fn missing_dirs(path: &Path, is_dir: impl Fn(&Path) -> bool) -> impl Iterator<Item = &Path> {
    path.ancestors()
        .take_while(move |p| !p.as_os_str().is_empty() && !is_dir(p))
}

/// The directory whose fsync makes `path`'s entry durable.
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// The deterministic fault-injecting [`Vfs`]. Wraps [`RealVfs`] and keeps a
/// shadow model of durability (synced lengths, dir-pending renames) so a
/// simulated crash can be *applied* to the real directory afterwards.
///
/// Every path-dependent draw keys on the path relative to the directory
/// under test, so a plan replays the same faults and the same crash state
/// whatever that directory is called.
#[derive(Debug)]
pub struct FaultVfs {
    real: RealVfs,
    root: PathBuf,
    plan: IoFaultPlan,
    state: Mutex<FaultState>,
}

/// The error kind every operation returns once the simulated crash point
/// has been reached.
pub const CRASHED: io::ErrorKind = io::ErrorKind::Other;

fn crash_error() -> io::Error {
    io::Error::new(CRASHED, "simulated crash: file system is gone")
}

impl FaultVfs {
    /// A fault VFS over the real file system with `plan`, for the
    /// directory tree under `root`.
    pub fn new(root: &Path, plan: IoFaultPlan) -> Arc<FaultVfs> {
        Arc::new(FaultVfs {
            real: RealVfs,
            root: root.to_path_buf(),
            plan,
            state: Mutex::new(FaultState::default()),
        })
    }

    /// `path` as the draws key it: relative to the root.
    fn key<'p>(&self, path: &'p Path) -> std::path::Display<'p> {
        path.strip_prefix(&self.root).unwrap_or(path).display()
    }

    /// Mutating operations observed so far (the crash-point space: a sweep
    /// probes a reference run with [`IoFaultPlan::counting`], reads this,
    /// then replays with `crash_at` in `1..=ops`).
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("fault state").ops
    }

    /// Whether the simulated crash point has been hit.
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("fault state").crashed
    }

    /// Rewrite the on-disk state to what a power cut at the crash point
    /// would have left: pending renames roll back (newest first), then
    /// pending entries disappear (newest first), then every file loses a
    /// deterministic amount of its unsynced tail.
    /// Call after the crashed run has dropped its store; reopen the
    /// directory with a fresh VFS afterwards.
    pub fn apply_crash(&self) -> io::Result<()> {
        let mut st = self.state.lock().expect("fault state");
        // Reborrow through the guard once so the loop's `pending_renames`
        // drain and the `files` updates are disjoint field borrows.
        let st = &mut *st;
        let fork = SeedFork::new(self.plan.seed);
        // Renames first: a rolled-back rename re-exposes `from`, whose
        // unsynced tail is then truncated like any other file.
        for pending in st.pending_renames.drain(..).rev() {
            let bytes = std::fs::read(&pending.to)?;
            std::fs::write(&pending.from, &bytes)?;
            match &pending.replaced {
                Some(old) => std::fs::write(&pending.to, old)?,
                None => std::fs::remove_file(&pending.to)?,
            }
            if let Some(fs) = st.files.remove(&pending.to) {
                st.files.insert(pending.from.clone(), fs);
            }
        }
        // Then entries: a rolled-back rename may have re-exposed a `from`
        // whose own creation was never made durable.
        for pending in st.pending_entries.drain(..).rev() {
            if pending.path.is_dir() {
                std::fs::remove_dir_all(&pending.path)?;
            } else if pending.path.exists() {
                std::fs::remove_file(&pending.path)?;
            }
        }
        for (path, fs) in st.files.iter_mut() {
            if !path.exists() {
                continue; // removed (or renamed away) before the crash
            }
            let len = std::fs::metadata(path)?.len().min(fs.len);
            let synced = fs.synced_len.min(len);
            if len > synced {
                let span = len - synced;
                let keep =
                    synced + fork.seed(&format!("crash:{}:{len}", self.key(path))) % (span + 1);
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(keep)?;
                file.sync_data()?;
                fs.len = keep;
                fs.synced_len = keep;
            }
        }
        Ok(())
    }

    /// Count one mutating op; decide crash and transient faults. Returns
    /// `Ok(None)` for "proceed normally", `Ok(Some(kind))` for a transient
    /// fault the caller must materialize, `Err` once crashed (including
    /// the op that *hits* the crash point, which the caller partially
    /// applies first via the returned flag).
    fn gate(&self, op: IoOp, path: &Path, offset: u64) -> Result<Gate, io::Error> {
        let mut st = self.state.lock().expect("fault state");
        if st.crashed {
            return Err(crash_error());
        }
        st.ops += 1;
        if self.plan.crash_at == Some(st.ops) {
            st.crashed = true;
            return Ok(Gate::Crash);
        }
        if self.plan.rate > 0.0 && !self.plan.kinds.is_empty() {
            let fork = SeedFork::new(self.plan.seed);
            let key = format!("{}:{}:{offset}", op.label(), self.key(path));
            let faulty = (fork.seed(&key) % 10_000) as f64 / 10_000.0 < self.plan.rate;
            if faulty {
                let kind = self.plan.kinds
                    [(fork.seed(&format!("{key}#kind")) as usize) % self.plan.kinds.len()];
                if applicable(kind, op) {
                    return Ok(Gate::Transient(kind));
                }
            }
        }
        Ok(Gate::Clean)
    }

    /// Deterministic partial length for a torn write of `len` bytes.
    fn torn_len(&self, path: &Path, offset: u64, len: usize) -> usize {
        let fork = SeedFork::new(self.plan.seed);
        (fork.seed(&format!("torn:{}:{offset}", self.key(path))) % (len as u64 + 1)) as usize
    }

    fn track_existing(&self, path: &Path) {
        let mut st = self.state.lock().expect("fault state");
        if !st.files.contains_key(path) {
            let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            // Pre-existing bytes are assumed durable.
            st.files.insert(
                path.to_path_buf(),
                FileState {
                    len,
                    synced_len: len,
                },
            );
        }
    }

    fn note_write(&self, path: &Path, wrote: u64) {
        let mut st = self.state.lock().expect("fault state");
        let fs = st.files.entry(path.to_path_buf()).or_insert(FileState {
            len: 0,
            synced_len: 0,
        });
        fs.len += wrote;
    }

    /// Record that `path` was just created: its entry is volatile until
    /// its parent directory is fsynced.
    fn note_created(&self, path: &Path) {
        let mut st = self.state.lock().expect("fault state");
        st.pending_entries.push(PendingEntry {
            parent: parent_dir(path),
            path: path.to_path_buf(),
        });
    }

    fn note_replace(&self, path: &Path, len: u64) {
        let mut st = self.state.lock().expect("fault state");
        st.files
            .insert(path.to_path_buf(), FileState { len, synced_len: 0 });
    }

    fn note_sync(&self, path: &Path) {
        let mut st = self.state.lock().expect("fault state");
        if let Some(fs) = st.files.get_mut(path) {
            fs.synced_len = fs.len;
        } else {
            let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            st.files.insert(
                path.to_path_buf(),
                FileState {
                    len,
                    synced_len: len,
                },
            );
        }
    }
}

/// What [`FaultVfs::gate`] decided for one op.
enum Gate {
    Clean,
    Transient(IoFaultKind),
    Crash,
}

/// Whether a transient fault kind can apply to an op.
fn applicable(kind: IoFaultKind, op: IoOp) -> bool {
    match kind {
        IoFaultKind::ShortWrite | IoFaultKind::DiskFull => op == IoOp::Write,
        IoFaultKind::FsyncFail => matches!(op, IoOp::Fsync | IoOp::SyncDir),
    }
}

fn transient_error(kind: IoFaultKind) -> io::Error {
    match kind {
        IoFaultKind::ShortWrite => io::Error::new(io::ErrorKind::WriteZero, "injected short write"),
        IoFaultKind::FsyncFail => io::Error::other("injected fsync failure"),
        IoFaultKind::DiskFull => io::Error::new(io::ErrorKind::StorageFull, "injected disk full"),
    }
}

/// [`FaultVfs`]'s unbuffered file handle: every write goes straight to the
/// fault gate so offsets (and crash points) are exact.
#[derive(Debug)]
struct FaultFile {
    vfs: Arc<FaultVfs>,
    path: PathBuf,
    file: File,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let offset = {
            let st = self.vfs.state.lock().expect("fault state");
            st.files.get(&self.path).map(|f| f.len).unwrap_or(0)
        };
        match self.vfs.gate(IoOp::Write, &self.path, offset)? {
            Gate::Clean => {
                self.file.write_all(bytes)?;
                self.vfs.note_write(&self.path, bytes.len() as u64);
                Ok(())
            }
            Gate::Transient(IoFaultKind::ShortWrite) | Gate::Crash => {
                let keep = self.vfs.torn_len(&self.path, offset, bytes.len());
                self.file.write_all(&bytes[..keep])?;
                self.vfs.note_write(&self.path, keep as u64);
                if self.vfs.crashed() {
                    Err(crash_error())
                } else {
                    Err(transient_error(IoFaultKind::ShortWrite))
                }
            }
            Gate::Transient(kind) => Err(transient_error(kind)),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.vfs.crashed() {
            return Err(crash_error());
        }
        Ok(()) // unbuffered: writes are already at the OS
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.vfs.gate(IoOp::Fsync, &self.path, 0)? {
            Gate::Clean => {
                self.file.sync_data()?;
                self.vfs.note_sync(&self.path);
                Ok(())
            }
            Gate::Transient(kind) => Err(transient_error(kind)),
            Gate::Crash => Err(crash_error()),
        }
    }
}

/// `Vfs` for `Arc<FaultVfs>` so call sites can keep a typed handle (for
/// [`FaultVfs::ops`] / [`FaultVfs::apply_crash`]) and still hand the store
/// an `Arc<dyn Vfs>` clone.
impl Vfs for Arc<FaultVfs> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.crashed() {
            return Err(crash_error());
        }
        // Every missing ancestor becomes a new entry, outermost first.
        let missing: Vec<&Path> = missing_dirs(path, Path::is_dir).collect();
        self.real.create_dir_all(path)?;
        for dir in missing.into_iter().rev() {
            self.note_created(dir);
        }
        Ok(())
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.gate(IoOp::Remove, path, 0)? {
            Gate::Crash => Err(crash_error()),
            _ => {
                let mut st = self.state.lock().expect("fault state");
                st.files.retain(|p, _| !p.starts_with(path));
                st.pending_renames.retain(|r| !r.to.starts_with(path));
                st.pending_entries.retain(|e| !e.path.starts_with(path));
                drop(st);
                self.real.remove_dir_all(path)
            }
        }
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.gate(IoOp::Remove, path, 0)? {
            Gate::Crash => Err(crash_error()),
            _ => {
                let mut st = self.state.lock().expect("fault state");
                st.files.remove(path);
                st.pending_renames.retain(|r| r.to != path);
                st.pending_entries.retain(|e| e.path != path);
                drop(st);
                self.real.remove_file(path)
            }
        }
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        if self.crashed() {
            return Err(crash_error());
        }
        self.real.read_dir_names(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.crashed() {
            return Err(crash_error());
        }
        self.track_existing(path);
        self.real.read(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        if self.crashed() {
            return Err(crash_error());
        }
        self.track_existing(path);
        self.real.read_at(path, offset, len)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let gate = self.gate(IoOp::Write, path, 0)?;
        let created = !path.exists();
        match gate {
            Gate::Clean => {
                self.real.write(path, bytes)?;
                self.note_replace(path, bytes.len() as u64);
                if created {
                    self.note_created(path);
                }
                Ok(())
            }
            Gate::Transient(IoFaultKind::ShortWrite) | Gate::Crash => {
                let keep = self.torn_len(path, 0, bytes.len());
                self.real.write(path, &bytes[..keep])?;
                self.note_replace(path, keep as u64);
                if created {
                    self.note_created(path);
                }
                if self.crashed() {
                    Err(crash_error())
                } else {
                    Err(transient_error(IoFaultKind::ShortWrite))
                }
            }
            Gate::Transient(kind) => Err(transient_error(kind)),
        }
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.crashed() {
            return Err(crash_error());
        }
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        self.note_replace(path, 0);
        self.note_created(path);
        Ok(Box::new(FaultFile {
            vfs: Arc::clone(self),
            path: path.to_path_buf(),
            file,
        }))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.crashed() {
            return Err(crash_error());
        }
        self.track_existing(path);
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(FaultFile {
            vfs: Arc::clone(self),
            path: path.to_path_buf(),
            file,
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.gate(IoOp::Rename, from, 0)? {
            Gate::Crash => Err(crash_error()),
            _ => {
                let replaced = std::fs::read(to).ok();
                self.real.rename(from, to)?;
                let mut st = self.state.lock().expect("fault state");
                let fs = st.files.remove(from).unwrap_or(FileState {
                    len: 0,
                    synced_len: 0,
                });
                st.files.insert(to.to_path_buf(), fs);
                st.pending_renames.push(PendingRename {
                    parent: parent_dir(to),
                    from: from.to_path_buf(),
                    to: to.to_path_buf(),
                    replaced,
                });
                Ok(())
            }
        }
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.gate(IoOp::Truncate, path, len)? {
            Gate::Crash => Err(crash_error()),
            _ => {
                self.real.truncate(path, len)?;
                let mut st = self.state.lock().expect("fault state");
                let fs = st.files.entry(path.to_path_buf()).or_insert(FileState {
                    len,
                    synced_len: len,
                });
                fs.len = len;
                fs.synced_len = fs.synced_len.min(len);
                // truncate() fsyncs, so the kept prefix is durable.
                fs.synced_len = len.min(fs.len);
                Ok(())
            }
        }
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        match self.gate(IoOp::Fsync, path, 0)? {
            Gate::Clean => {
                self.real.fsync(path)?;
                self.note_sync(path);
                Ok(())
            }
            Gate::Transient(kind) => Err(transient_error(kind)),
            Gate::Crash => Err(crash_error()),
        }
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.gate(IoOp::SyncDir, path, 0)? {
            Gate::Clean => {
                self.real.sync_dir(path)?;
                let mut st = self.state.lock().expect("fault state");
                st.pending_renames.retain(|r| r.parent != path);
                st.pending_entries.retain(|e| e.parent != path);
                Ok(())
            }
            Gate::Transient(kind) => Err(transient_error(kind)),
            Gate::Crash => Err(crash_error()),
        }
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        if self.crashed() {
            return Err(crash_error());
        }
        self.track_existing(path);
        self.real.len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.real.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        self.real.is_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cb-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counting_plan_is_transparent_and_counts_ops() {
        let dir = scratch("count");
        let vfs = FaultVfs::new(&dir, IoFaultPlan::counting(1));
        let p = dir.join("a");
        let mut f = vfs.create_new(&p).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&p, &dir.join("b")).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.ops(), 4, "write, fsync, rename, sync-dir");
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), b"hello");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_point_tears_the_inflight_write_and_halts() {
        let dir = scratch("crash");
        let vfs = FaultVfs::new(&dir, IoFaultPlan::crash_at(7, 3));
        let p = dir.join("log");
        let mut f = vfs.create_new(&p).unwrap();
        vfs.sync_dir(&dir).unwrap(); // op 1: the entry is durable
        f.write_all(b"first").unwrap(); // op 2
        let err = f.write_all(b"second-frame").unwrap_err(); // op 3: crash
        assert_eq!(err.kind(), CRASHED);
        assert!(vfs.crashed());
        assert_eq!(
            f.sync().unwrap_err().kind(),
            CRASHED,
            "everything fails after the crash"
        );
        drop(f);
        vfs.apply_crash().unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // Nothing was synced, so the surviving prefix is deterministic but
        // may be anything up to the torn write.
        assert!(bytes.len() <= "firstsecond-frame".len());
        assert!(b"firstsecond-frame".starts_with(&bytes[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synced_data_survives_apply_crash() {
        let dir = scratch("synced");
        let vfs = FaultVfs::new(&dir, IoFaultPlan::crash_at(3, 4));
        let p = dir.join("log");
        let mut f = vfs.create_new(&p).unwrap();
        vfs.sync_dir(&dir).unwrap(); // op 1: the entry is durable
        f.write_all(b"durable").unwrap(); // op 2
        f.sync().unwrap(); // op 3
        assert_eq!(f.write_all(b"volatile").unwrap_err().kind(), CRASHED); // op 4
        drop(f);
        vfs.apply_crash().unwrap();
        let bytes = std::fs::read(&p).unwrap();
        assert!(
            bytes.starts_with(b"durable"),
            "synced prefix kept: {bytes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_rename_rolls_back_on_crash() {
        let dir = scratch("rename");
        let vfs = FaultVfs::new(&dir, IoFaultPlan::crash_at(5, 4));
        std::fs::write(dir.join("CURRENT"), b"old").unwrap();
        let tmp = dir.join("CURRENT.tmp");
        vfs.write(&tmp, b"new").unwrap(); // op 1
        vfs.fsync(&tmp).unwrap(); // op 2
        vfs.rename(&tmp, &dir.join("CURRENT")).unwrap(); // op 3 (pending)
                                                         // op 4 would be sync_dir; crash instead.
        assert_eq!(vfs.fsync(&dir.join("CURRENT")).unwrap_err().kind(), CRASHED);
        vfs.apply_crash().unwrap();
        assert_eq!(
            std::fs::read(dir.join("CURRENT")).unwrap(),
            b"old",
            "rename rolled back"
        );
        assert!(
            !tmp.exists(),
            "tmp restored by the rollback, then gone: its entry was never made durable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_creates_disappear_on_crash() {
        let dir = scratch("create");
        let vfs = FaultVfs::new(&dir, IoFaultPlan::crash_at(5, 3));
        let gen = dir.join("gen-1");
        vfs.create_dir_all(&gen.join("nested")).unwrap();
        let mut seg = vfs.create_new(&gen.join("seg")).unwrap();
        seg.write_all(b"frame").unwrap(); // op 1
        seg.sync().unwrap(); // op 2: the bytes are durable, the entries are not
        let mut log = vfs.create_new(&dir.join("log")).unwrap();
        assert_eq!(log.write_all(b"x").unwrap_err().kind(), CRASHED); // op 3
        drop((seg, log));
        vfs.apply_crash().unwrap();
        assert!(
            !gen.exists(),
            "a directory created without a parent fsync is gone"
        );
        assert!(!dir.join("log").exists(), "so is a file");
        assert!(dir.exists(), "pre-existing entries are durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_synced_creates_survive_crash() {
        let dir = scratch("create-durable");
        let vfs = FaultVfs::new(&dir, IoFaultPlan::crash_at(5, 5));
        let gen = dir.join("gen-1");
        vfs.create_dir_all(&gen).unwrap();
        let mut seg = vfs.create_new(&gen.join("seg")).unwrap();
        seg.write_all(b"frame").unwrap(); // 1
        seg.sync().unwrap(); // 2
        vfs.sync_dir(&gen).unwrap(); // 3: `seg` is durable in `gen`
        vfs.sync_dir(&dir).unwrap(); // 4: `gen` is durable in `dir`
        assert_eq!(seg.write_all(b"tail").unwrap_err().kind(), CRASHED); // 5
        drop(seg);
        vfs.apply_crash().unwrap();
        let bytes = std::fs::read(gen.join("seg")).unwrap();
        assert!(
            bytes.starts_with(b"frame"),
            "synced entry and bytes kept: {bytes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_synced_rename_survives_crash() {
        let dir = scratch("rename-durable");
        let vfs = FaultVfs::new(&dir, IoFaultPlan::crash_at(5, 5));
        std::fs::write(dir.join("CURRENT"), b"old").unwrap();
        let tmp = dir.join("CURRENT.tmp");
        vfs.write(&tmp, b"new").unwrap(); // 1
        vfs.fsync(&tmp).unwrap(); // 2
        vfs.rename(&tmp, &dir.join("CURRENT")).unwrap(); // 3
        vfs.sync_dir(&dir).unwrap(); // 4: rename now durable
        assert_eq!(vfs.fsync(&dir.join("CURRENT")).unwrap_err().kind(), CRASHED); // 5
        vfs.apply_crash().unwrap();
        assert_eq!(std::fs::read(dir.join("CURRENT")).unwrap(), b"new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_are_deterministic_and_recoverable() {
        let dir = scratch("transient");
        let outcomes: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let vfs = FaultVfs::new(&dir, IoFaultPlan::transient(42, 0.5));
                (0..40)
                    .map(|i| vfs.write(&dir.join(format!("f{i}")), b"payload").is_ok())
                    .collect()
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1], "same plan, same faults");
        assert!(
            outcomes[0].iter().any(|ok| *ok),
            "some ops succeed at rate 0.5"
        );
        assert!(
            outcomes[0].iter().any(|ok| !*ok),
            "some ops fault at rate 0.5"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
