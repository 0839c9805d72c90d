//! Content-addressed stores for trained attack models.
//!
//! A [`ModelStore`] maps a [`CorpusFingerprint`] to the
//! [`TrainedAttack`] trained on that corpus, so any sweep cell whose corpus
//! has already been trained — earlier in the same run, by another shard, or
//! in a previous process — skips training entirely. Three backends:
//!
//! * [`MemoryModelStore`] — per-process, shares models across cells of one
//!   sweep;
//! * [`DiskModelStore`] — a directory of `<fingerprint>.blob` files (via
//!   [`TrainedAttack::to_blob`]), shared across processes and runs. Writes
//!   are atomic (temp file + rename), so concurrent shards may point at the
//!   same directory.
//! * [`RemoteModelStore`] — the same blob namespace over HTTP
//!   (`GET`/`PUT /models/{fingerprint}`, served by the `deepsplit-serve`
//!   crate), so a fleet of shard workers on *different machines* warms one
//!   shared cache. An optional local directory write-through caches every
//!   model that passes through, keeping repeat loads off the network.
//!
//! A blob holds every weight as its raw `f32` bits, so a cache hit
//! reproduces the exact scores a fresh training run would have produced,
//! wherever the bytes came from. It also records the blob format and
//! [`crate::PIPELINE_VERSION`]: a blob of another version, a torn or padded
//! one, and a `<fingerprint>.json` entry of the older JSON stores all read
//! as a miss, so the cell re-trains.

use crate::fingerprint::CorpusFingerprint;
use crate::httpc;
use crate::sync::lock_or_recover;
use crate::train::TrainedAttack;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Atomically publishes `contents` as `dir/file_name`: writes a temp file
/// whose name is unique across processes (pid) and threads (global
/// sequence), then renames into place — readers never observe a partial
/// write, and concurrent writers of the same name race harmlessly (last
/// rename wins).
///
/// # Errors
///
/// Returns the first failing write or rename. Callers that need to keep
/// going (or to attach more context, like the engine's artifact writer)
/// propagate this; callers for whom a broken directory should end the run
/// use [`atomic_publish`].
pub fn try_atomic_publish(
    dir: &Path,
    file_name: &str,
    contents: impl AsRef<[u8]>,
) -> std::io::Result<()> {
    static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
    let tmp = dir.join(format!(
        "{file_name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, dir.join(file_name))
}

/// [`try_atomic_publish`] for load-bearing writes.
///
/// # Panics
///
/// Panics when the write or rename fails; publishing is load-bearing for
/// the model stores, so a broken directory should stop the run.
pub fn atomic_publish(dir: &Path, file_name: &str, contents: impl AsRef<[u8]>) {
    try_atomic_publish(dir, file_name, contents)
        .unwrap_or_else(|e| panic!("publish {}: {e}", dir.join(file_name).display()));
}

/// The HTTP resource a model lives under — shared by [`RemoteModelStore`]
/// and the `deepsplit-serve` router, so client and server can never drift.
pub(crate) fn model_resource(key: &CorpusFingerprint) -> String {
    format!("/models/{}", key.to_hex())
}

/// Hit/miss/save counters of a store, for cache-effectiveness assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StoreCounters {
    /// Successful loads.
    pub hits: usize,
    /// Failed loads.
    pub misses: usize,
    /// Models written.
    pub saves: usize,
}

/// A content-addressed model cache. Implementations are thread-safe: sweep
/// workers share one store behind `&dyn ModelStore`.
///
/// The `*_blob` methods move the model's blob ([`TrainedAttack::to_blob`])
/// instead of the decoded model: the currency of the blob API, where a
/// server relaying models should not decode and re-encode one per request.
/// A blob holds every weight's bits (see the module docs), so the two views
/// of an entry can never disagree.
pub trait ModelStore: Sync {
    /// The model stored under `key`, if any. Counts a hit or a miss.
    fn load(&self, key: &CorpusFingerprint) -> Option<TrainedAttack>;

    /// Stores `model` under `key`, replacing any previous entry.
    fn save(&self, key: &CorpusFingerprint, model: &TrainedAttack);

    /// The blob of the model under `key`, if any. Counts a hit or a miss
    /// like [`ModelStore::load`]. Backends that keep blobs override this to
    /// hand back the stored bytes without decoding them.
    fn load_blob(&self, key: &CorpusFingerprint) -> Option<Vec<u8>> {
        self.load(key).map(|model| model.to_blob())
    }

    /// Stores an already-validated model under `key` from both its decoded
    /// and encoded forms; `blob` must be `model`'s blob. Counts a save.
    /// Backends that keep blobs override this to publish the bytes verbatim
    /// instead of encoding `model` again.
    fn save_blob(&self, key: &CorpusFingerprint, blob: &[u8], model: &TrainedAttack) {
        let _ = blob;
        self.save(key, model);
    }

    /// Counters accumulated since construction.
    fn counters(&self) -> StoreCounters;
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    saves: AtomicUsize,
}

impl Counters {
    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            saves: self.saves.load(Ordering::Relaxed),
        }
    }
}

/// In-memory store: amortises training across cells of one process.
#[derive(Debug, Default)]
pub struct MemoryModelStore {
    models: Mutex<HashMap<CorpusFingerprint, TrainedAttack>>,
    counters: Counters,
}

impl MemoryModelStore {
    /// An empty store.
    pub fn new() -> MemoryModelStore {
        MemoryModelStore::default()
    }

    /// Number of models currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        lock_or_recover(&self.models).len()
    }

    /// Whether the store holds no models.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ModelStore for MemoryModelStore {
    fn load(&self, key: &CorpusFingerprint) -> Option<TrainedAttack> {
        let found = lock_or_recover(&self.models).get(key).cloned();
        self.counters.record(found.is_some());
        found
    }

    fn save(&self, key: &CorpusFingerprint, model: &TrainedAttack) {
        lock_or_recover(&self.models).insert(*key, model.clone());
        self.counters.saves.fetch_add(1, Ordering::Relaxed);
    }

    fn counters(&self) -> StoreCounters {
        self.counters.snapshot()
    }
}

/// On-disk store: a directory of `<fingerprint>.blob` models shared across
/// processes, shards and runs.
#[derive(Debug)]
pub struct DiskModelStore {
    dir: PathBuf,
    counters: Counters,
}

impl DiskModelStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Returns the error from `create_dir_all` when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskModelStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskModelStore {
            dir,
            counters: Counters::default(),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name_of(key: &CorpusFingerprint) -> String {
        format!("{}.blob", key.to_hex())
    }

    fn path_of(&self, key: &CorpusFingerprint) -> PathBuf {
        self.dir.join(Self::file_name_of(key))
    }
}

impl ModelStore for DiskModelStore {
    /// A missing, unreadable or undecodable file is a miss — a corrupt or
    /// stale entry falls back to re-training rather than aborting the
    /// sweep.
    fn load(&self, key: &CorpusFingerprint) -> Option<TrainedAttack> {
        let found = std::fs::read(self.path_of(key))
            .ok()
            .and_then(|blob| TrainedAttack::from_blob(&blob).ok());
        self.counters.record(found.is_some());
        found
    }

    /// # Panics
    ///
    /// Panics as [`atomic_publish`] does — a broken cache directory should
    /// stop the run rather than silently re-train every cell.
    fn save(&self, key: &CorpusFingerprint, model: &TrainedAttack) {
        atomic_publish(&self.dir, &Self::file_name_of(key), model.to_blob());
        self.counters.saves.fetch_add(1, Ordering::Relaxed);
    }

    /// The stored bytes, checked ([`TrainedAttack::check_blob`]) but not
    /// decoded: this is the endpoint a whole fleet hammers. A file of
    /// another format or pipeline version, or a torn or padded one, is a
    /// miss.
    fn load_blob(&self, key: &CorpusFingerprint) -> Option<Vec<u8>> {
        let found = std::fs::read(self.path_of(key))
            .ok()
            .filter(|blob| TrainedAttack::check_blob(blob).is_ok());
        self.counters.record(found.is_some());
        found
    }

    /// Publishes the received bytes verbatim.
    fn save_blob(&self, key: &CorpusFingerprint, blob: &[u8], _model: &TrainedAttack) {
        atomic_publish(&self.dir, &Self::file_name_of(key), blob);
        self.counters.saves.fetch_add(1, Ordering::Relaxed);
    }

    fn counters(&self) -> StoreCounters {
        self.counters.snapshot()
    }
}

/// How long a [`RemoteModelStore`] waits on any single network read/write.
/// A model blob is at most a few MB (about 1.5 MB for the vector-only
/// model); a healthy LAN round-trip is far below this, so hitting the limit
/// means the server is gone, not slow.
const REMOTE_TIMEOUT: Duration = Duration::from_secs(60);

/// Remote store: the blob API of a `deepsplit-serve` model server
/// (`GET`/`PUT /models/{fingerprint}`), with an optional local write-through
/// directory so each worker pays the network at most once per model.
///
/// Failure philosophy mirrors the other backends: a load that cannot be
/// satisfied (missing, network error, corrupt bytes) is a *miss* — the cell
/// re-trains rather than the sweep aborting — while a failed *save* panics,
/// because silently dropping freshly trained models would turn the shared
/// cache into a lie for every other worker.
#[derive(Debug)]
pub struct RemoteModelStore {
    base: String,
    cache_dir: Option<PathBuf>,
    counters: Counters,
}

impl RemoteModelStore {
    /// Connects to the model server at `url` (e.g. `http://10.0.0.5:8077`),
    /// failing fast if it is unreachable or unhealthy. With `cache_dir`,
    /// every model loaded or saved is also written through to that local
    /// directory (created if needed, same layout as [`DiskModelStore`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the cache directory cannot be created or the
    /// server's `/healthz` does not answer `200` — a worker pointed at a
    /// wrong URL should refuse to start, not silently re-train everything.
    pub fn open(
        url: impl Into<String>,
        cache_dir: Option<PathBuf>,
    ) -> std::io::Result<RemoteModelStore> {
        let mut base = url.into();
        while base.ends_with('/') {
            base.pop();
        }
        if let Some(dir) = &cache_dir {
            std::fs::create_dir_all(dir)?;
        }
        match httpc::get(&format!("{base}/healthz"), REMOTE_TIMEOUT) {
            Ok(r) if r.is_success() => {}
            Ok(r) => {
                return Err(std::io::Error::other(format!(
                    "model server at {base} is unhealthy: HTTP {}",
                    r.status
                )))
            }
            Err(e) => {
                return Err(std::io::Error::other(format!(
                    "model server at {base} is unreachable: {e}"
                )))
            }
        }
        Ok(RemoteModelStore {
            base,
            cache_dir,
            counters: Counters::default(),
        })
    }

    /// The server this store talks to, without a trailing slash.
    pub fn base_url(&self) -> &str {
        &self.base
    }

    fn blob_url(&self, key: &CorpusFingerprint) -> String {
        format!("{}{}", self.base, model_resource(key))
    }

    fn cache_path(&self, key: &CorpusFingerprint) -> Option<PathBuf> {
        self.cache_dir
            .as_ref()
            .map(|dir| dir.join(DiskModelStore::file_name_of(key)))
    }

    fn write_through(&self, key: &CorpusFingerprint, blob: &[u8]) {
        if let Some(dir) = &self.cache_dir {
            atomic_publish(dir, &DiskModelStore::file_name_of(key), blob);
        }
    }
}

impl ModelStore for RemoteModelStore {
    fn load(&self, key: &CorpusFingerprint) -> Option<TrainedAttack> {
        // Local write-through cache first: repeat loads never touch the
        // wire. A stale or corrupt cached blob falls through to the server.
        if let Some(path) = self.cache_path(key) {
            if let Some(model) = std::fs::read(path)
                .ok()
                .and_then(|blob| TrainedAttack::from_blob(&blob).ok())
            {
                self.counters.record(true);
                return Some(model);
            }
        }
        let url = self.blob_url(key);
        let found = match httpc::get(&url, REMOTE_TIMEOUT) {
            Ok(r) if r.status == 404 => None,
            Ok(r) if r.is_success() => {
                let model = TrainedAttack::from_blob(&r.body).ok();
                if model.is_some() {
                    self.write_through(key, &r.body);
                }
                model
            }
            Ok(r) => {
                eprintln!("model store: GET {url} answered HTTP {}", r.status);
                None
            }
            Err(e) => {
                eprintln!("model store: GET {url} failed: {e}");
                None
            }
        };
        self.counters.record(found.is_some());
        found
    }

    /// # Panics
    ///
    /// Panics when the server refuses the upload — see the type-level
    /// failure philosophy.
    fn save(&self, key: &CorpusFingerprint, model: &TrainedAttack) {
        let blob = model.to_blob();
        let url = self.blob_url(key);
        match httpc::put(&url, &blob, REMOTE_TIMEOUT) {
            Ok(r) if r.is_success() => {}
            Ok(r) => panic!("model store: PUT {url} answered HTTP {}", r.status),
            Err(e) => panic!("model store: PUT {url} failed: {e}"),
        }
        self.write_through(key, &blob);
        self.counters.saves.fetch_add(1, Ordering::Relaxed);
    }

    fn counters(&self) -> StoreCounters {
        self.counters.snapshot()
    }
}

pub mod conformance {
    //! The [`ModelStore`] contract as an executable suite.
    //!
    //! Every backend's tests run [`check`] — memory and disk here in
    //! `deepsplit-core`, the remote backend in `deepsplit-serve` against an
    //! in-process server on an ephemeral port. A new backend that passes
    //! [`check`] can be handed to `train_or_load` and the sweep engine
    //! without re-deriving the semantics from the trait docs. Backends that
    //! keep blobs in files also run [`check_unreadable`].

    use super::{ModelStore, StoreCounters};
    use crate::config::AttackConfig;
    use crate::fingerprint::CorpusFingerprint;
    use crate::model::{AttackModel, LossKind, ModelKind};
    use crate::train::{TrainedAttack, BLOB_FORMAT};
    use crate::vector_features::Normalizer;
    use crate::PIPELINE_VERSION;

    /// A tiny untrained model whose weights differ per `seed` — enough to
    /// tell two stored entries apart by their blobs.
    pub fn model(seed: u64) -> TrainedAttack {
        TrainedAttack {
            model: AttackModel::new(ModelKind::VecOnly, LossKind::SoftmaxRegression, 0, seed),
            normalizer: Normalizer::fit(std::iter::empty()),
            config: AttackConfig::fast(),
        }
    }

    /// A deterministic key, distinct per `n`.
    pub fn key(n: u64) -> CorpusFingerprint {
        CorpusFingerprint([n, !n])
    }

    /// A `<fingerprint>.json` entry as the older JSON stores wrote it: the
    /// model's config and normaliser under the same field names (the
    /// weights, which no build reads any more, are left out).
    fn legacy_json(model: &TrainedAttack) -> Vec<u8> {
        let normalizer = serde_json::to_string(&model.normalizer).expect("serialise normaliser");
        let config = serde_json::to_string(&model.config).expect("serialise config");
        format!(r#"{{"normalizer":{normalizer},"config":{config}}}"#).into_bytes()
    }

    /// Entries a store must read as a miss, each with the file it would sit
    /// in under `key`: a blob with another magic number, truncated, with
    /// trailing bytes, of another format version, of another
    /// [`PIPELINE_VERSION`], and the `<fingerprint>.json` of the older JSON
    /// stores. Each case has its own key, `key(100)` and up.
    pub fn unreadable_entries() -> Vec<(&'static str, CorpusFingerprint, String, Vec<u8>)> {
        let blob = model(7).to_blob();
        let patched = |at: usize, bytes: [u8; 4]| {
            let mut b = blob.clone();
            b[at..at + 4].copy_from_slice(&bytes);
            b
        };
        let mut magic = blob.clone();
        magic[0] ^= 0xff;
        let mut trailing = blob.clone();
        trailing.push(0);
        let cases = [
            ("wrong magic", magic, "blob"),
            ("truncated", blob[..blob.len() - 1].to_vec(), "blob"),
            ("trailing bytes", trailing, "blob"),
            (
                "other format version",
                patched(8, (BLOB_FORMAT + 1).to_le_bytes()),
                "blob",
            ),
            (
                "other pipeline version",
                patched(12, (PIPELINE_VERSION + 1).to_le_bytes()),
                "blob",
            ),
            ("legacy JSON entry", legacy_json(&model(7)), "json"),
        ];
        cases
            .into_iter()
            .zip(100..)
            .map(|((case, bytes, extension), n)| {
                let k = key(n);
                (case, k, format!("{}.{extension}", k.to_hex()), bytes)
            })
            .collect()
    }

    /// Asserts the [`ModelStore`] contract: save/load round-trip,
    /// hit/miss/save counter semantics, and overwrite-replaces. `store` must
    /// not already hold any [`key`] entries (a fresh backend instance).
    ///
    /// # Panics
    ///
    /// Panics (test-style assertions) on any contract violation.
    pub fn check(store: &dyn ModelStore) {
        let before = store.counters();
        assert!(
            store.load(&key(1)).is_none(),
            "a store without the key must miss"
        );

        // Round trip is bit-exact.
        let first = model(1);
        store.save(&key(1), &first);
        let back = store.load(&key(1)).expect("saved model must load");
        assert!(
            back.to_blob() == first.to_blob(),
            "round trip must reproduce the exact bytes"
        );

        // Overwrite replaces the previous entry.
        let second = model(2);
        assert!(
            first.to_blob() != second.to_blob(),
            "distinct seeds must produce distinguishable models"
        );
        store.save(&key(1), &second);
        let back = store.load(&key(1)).expect("overwritten model must load");
        assert!(
            back.to_blob() == second.to_blob(),
            "save must replace, not preserve, the previous entry"
        );

        // Keys are independent.
        store.save(&key(2), &first);
        let other = store.load(&key(2)).expect("second key must load");
        assert!(other.to_blob() == first.to_blob());
        let untouched = store.load(&key(1)).expect("first key must survive");
        assert!(
            untouched.to_blob() == second.to_blob(),
            "writing one key must not disturb another"
        );
        assert!(
            store.load(&key(3)).is_none(),
            "an unwritten key must still miss"
        );

        // The blob view is the same entry in its stored bytes, with the
        // same hit/miss/save accounting.
        let blob = store
            .load_blob(&key(1))
            .expect("blob view of a stored key must load");
        assert!(
            blob == second.to_blob(),
            "load_blob must return the blob of the stored model"
        );
        assert!(
            store.load_blob(&key(3)).is_none(),
            "the blob view of an unwritten key must miss"
        );
        let third = model(3);
        store.save_blob(&key(2), &third.to_blob(), &third);
        let replaced = store.load(&key(2)).expect("save_blob result must load");
        assert!(
            replaced.to_blob() == third.to_blob(),
            "save_blob must replace like save"
        );

        // Counter arithmetic: 6 hits, 3 misses, 4 saves beyond the baseline.
        let after = store.counters();
        assert_eq!(
            after,
            StoreCounters {
                hits: before.hits + 6,
                misses: before.misses + 3,
                saves: before.saves + 4,
            },
            "counters must track exactly the loads and saves performed"
        );
    }

    /// Asserts that every entry of [`unreadable_entries`] reads as a
    /// counted miss, through both views. `plant(file, bytes)` puts a raw
    /// entry where the backend keeps its files.
    ///
    /// # Panics
    ///
    /// Panics (test-style assertions) when such an entry loads, or is not
    /// counted as a miss.
    pub fn check_unreadable(store: &dyn ModelStore, plant: &dyn Fn(&str, &[u8])) {
        let before = store.counters();
        let entries = unreadable_entries();
        for (case, key, file, bytes) in &entries {
            plant(file, bytes);
            assert!(store.load(key).is_none(), "{case}: must not load");
            assert!(store.load_blob(key).is_none(), "{case}: no blob view");
        }
        assert_eq!(
            store.counters(),
            StoreCounters {
                misses: before.misses + 2 * entries.len(),
                ..before
            },
            "every unreadable entry must count as a miss"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::conformance::{key, model};
    use super::*;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("deepsplit-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_passes_conformance() {
        let store = MemoryModelStore::new();
        conformance::check(&store);
        assert_eq!(store.len(), 2, "conformance writes two distinct keys");
        assert!(!store.is_empty());
    }

    #[test]
    fn disk_store_passes_conformance() -> std::io::Result<()> {
        let dir = temp_store_dir("conformance");
        let store = DiskModelStore::open(&dir)?;
        conformance::check(&store);
        conformance::check_unreadable(&store, &|file, bytes| {
            std::fs::write(dir.join(file), bytes).expect("plant an entry");
        });
        std::fs::remove_dir_all(&dir)
    }

    #[test]
    fn disk_store_round_trips_across_instances() -> std::io::Result<()> {
        let dir = temp_store_dir("reopen");
        let store = DiskModelStore::open(&dir)?;
        assert!(store.load(&key(7)).is_none(), "fresh directory must miss");
        let saved = model(7);
        store.save(&key(7), &saved);

        // A second instance (fresh process, conceptually) sees the entry.
        let reopened = DiskModelStore::open(&dir)?;
        let back = reopened
            .load(&key(7))
            .expect("entry persisted by the first instance must load");
        assert!(back.to_blob() == saved.to_blob());
        assert_eq!(
            reopened.counters(),
            StoreCounters {
                hits: 1,
                misses: 0,
                saves: 0
            },
            "a reopened store starts counting from zero"
        );
        std::fs::remove_dir_all(&dir)
    }

    #[test]
    fn corrupt_disk_entry_counts_as_miss() -> std::io::Result<()> {
        // Through the public API only: a corrupt entry must behave exactly
        // like an absent one — `load` returns `None` AND the miss counter
        // advances, so cache-effectiveness ledgers stay truthful.
        let dir = temp_store_dir("corrupt");
        let store = DiskModelStore::open(&dir)?;
        std::fs::write(dir.join(format!("{}.blob", key(9).to_hex())), "{not a blob")?;
        assert!(
            store.load(&key(9)).is_none(),
            "corrupt entry must degrade to a miss, not a crash"
        );
        assert_eq!(
            store.counters(),
            StoreCounters {
                hits: 0,
                misses: 1,
                saves: 0
            },
            "the degraded load must be counted as a miss"
        );
        // Overwriting the corrupt entry heals it.
        store.save(&key(9), &model(9));
        let healed = store
            .load(&key(9))
            .expect("overwriting a corrupt entry must heal it");
        assert!(healed.to_blob() == model(9).to_blob());
        std::fs::remove_dir_all(&dir)
    }

    #[test]
    fn remote_store_refuses_unreachable_server() {
        // Port 1 on localhost: connection refused, so `open` must fail fast
        // instead of handing back a store that misses forever.
        let err = RemoteModelStore::open("http://127.0.0.1:1", None)
            .expect_err("open against a dead server must fail");
        assert!(
            err.to_string().contains("unreachable"),
            "error must say what is wrong: {err}"
        );
    }

    #[test]
    fn model_resource_matches_disk_layout() {
        let k = key(3);
        assert_eq!(model_resource(&k), format!("/models/{}", k.to_hex()));
        assert_eq!(
            DiskModelStore::file_name_of(&k),
            format!("{}.blob", k.to_hex()),
            "remote resource and disk file name must agree on the hex form"
        );
    }
}
