// Package journal is the orchestrator's durable write-ahead log: the
// stand-in for the paper's AWS SQS/RDS durability layer that lets the
// Xtract service die mid-job and restart without stranding work. Every
// job state transition — submission (with the full serializable plan),
// family intake, step completion (fresh or cache-replayed), retry,
// dead-letter, cancellation, and terminal state — is appended as one
// CRC-framed JSON record. Appends are group-committed: concurrent
// writers coalesce into a single write+fsync batch, so durability costs
// are amortized across the pump's natural bursts. On restart, replay
// rebuilds an in-memory State from the newest valid snapshot plus the
// segment tail, tolerating torn tails and corrupt records (scan stops at
// the first damaged frame), and the core service resumes every
// non-terminal job from it.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/clock"
	"xtract/internal/fastjson"
	"xtract/internal/store"
)

// Record type tags, one per job state transition.
const (
	RecJobSubmitted     = "job_submitted"
	RecFamilyEnqueued   = "family_enqueued"
	RecStepCompleted    = "step_completed"
	RecStepRetried      = "step_retried"
	RecStepDeadLettered = "step_dead_lettered"
	RecFamilyFailed     = "family_failed"
	RecJobCancelled     = "job_cancelled"
	RecJobTerminal      = "job_terminal"
	// Cluster ownership records: a job's lease is acquired/renewed/
	// released by a serve node, with a clock-injected TTL and a
	// monotonically increasing fencing epoch.
	RecLeaseAcquired = "lease_acquired"
	RecLeaseRenewed  = "lease_renewed"
	RecLeaseReleased = "lease_released"
)

// RepoSpec is the serializable form of one repository in a job plan: the
// grouping function is recorded by name so a restarted process can
// resolve it against its own library.
type RepoSpec struct {
	Site           string   `json:"site"`
	Roots          []string `json:"roots"`
	Grouper        string   `json:"grouper"`
	CrawlWorkers   int      `json:"crawl_workers,omitempty"`
	MaxFamilySize  int      `json:"max_family_size,omitempty"`
	NoMinTransfers bool     `json:"no_min_transfers,omitempty"`
}

// JobSpec is the full serializable job plan carried on a job_submitted
// record — everything recovery needs to re-run the job under its
// original ID.
type JobSpec struct {
	Repos   []RepoSpec `json:"repos"`
	NoCache bool       `json:"no_cache,omitempty"`
	// Tenant owns the job; absent on logs written before the tenancy
	// layer, which replay as the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// CacheKey is the content-addressed identity of a completed step's
// result-cache entry (the extractor name lives on the record itself).
// Recovery seeds the result cache from these so a resumed job replays
// completed steps instead of re-invoking extractors — family packaging
// is randomized run to run, so reconciliation must be content-addressed,
// not family-ID-addressed.
type CacheKey struct {
	ContentHash string `json:"content_hash"`
	Version     string `json:"version"`
}

// Record is one journal entry. Seq is assigned by Append and is strictly
// sequential; replay uses the continuity to detect damage.
type Record struct {
	Seq   uint64    `json:"seq"`
	Type  string    `json:"type"`
	JobID string    `json:"job_id"`
	At    time.Time `json:"at"`

	// job_submitted
	Spec *JobSpec `json:"spec,omitempty"`
	// family_enqueued / family_failed / step records
	FamilyID string `json:"family_id,omitempty"`
	Groups   int    `json:"groups,omitempty"`
	// step_completed / step_retried / step_dead_lettered
	GroupID   string          `json:"group_id,omitempty"`
	Extractor string          `json:"extractor,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	CacheKey  *CacheKey       `json:"cache_key,omitempty"`
	Metadata  json.RawMessage `json:"metadata,omitempty"`
	// Metadata is a step's dictionary as the FaaS worker encoded it; the
	// pump hands the bytes over and they are written and folded into live
	// state as they are, so they must never change afterwards.
	// MetadataObj is for a caller that holds a map instead: the flush
	// leader encodes it, off the caller's path, and the map must not be
	// mutated after Append. At most one of the two is set.
	MetadataObj map[string]interface{} `json:"-"`
	// step_retried / step_dead_lettered / family_failed
	Attempt int    `json:"attempt,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// job_terminal
	State string `json:"state,omitempty"`
	Err   string `json:"err,omitempty"`
	// lease_acquired / lease_renewed / lease_released
	Node  string `json:"node,omitempty"`
	Epoch int64  `json:"epoch,omitempty"`
	TTLMS int64  `json:"ttl_ms,omitempty"`
}

// Errors returned by the writer.
var (
	// ErrClosed is returned by Append after Close.
	ErrClosed = errors.New("journal: closed")
	// ErrKilled is returned by Append after Kill — the test hook that
	// emulates a SIGKILL by dropping the un-fsynced tail.
	ErrKilled = errors.New("journal: killed")
)

// castagnoli is the CRC32C table (the polynomial storage systems use for
// on-disk framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame layout: 4-byte little-endian payload length, 4-byte little-endian
// CRC32C of the payload, then the JSON payload.
const frameHeader = 8

// maxRecordBytes bounds a segment's frames: the writer frames no larger
// record, so replay takes a larger length prefix for damage. A snapshot
// is one frame of any size, bounded by the file it was read from.
const maxRecordBytes = 16 << 20

// appendRecordJSON appends rec's JSON encoding to b: the hot-path
// encoder the group-commit leader uses instead of reflection-driven
// encoding/json (journaling runs on the pump's critical CPU budget). It
// must stay decode-equivalent to the Record struct tags — a property
// test pins that. Rare sub-objects (the submission Spec) still go
// through encoding/json.
func appendRecordJSON(b []byte, rec *Record) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, rec.Seq, 10)
	b = append(b, `,"type":`...)
	b = fastjson.AppendString(b, rec.Type)
	b = append(b, `,"job_id":`...)
	b = fastjson.AppendString(b, rec.JobID)
	b = append(b, `,"at":"`...)
	b = rec.At.AppendFormat(b, time.RFC3339Nano)
	b = append(b, '"')
	if rec.Spec != nil {
		var err error
		if b, err = appendMarshaled(b, `,"spec":`, rec.Spec); err != nil {
			return b, err
		}
	}
	b = appendStringField(b, `,"family_id":`, rec.FamilyID)
	b = appendIntField(b, `,"groups":`, int64(rec.Groups))
	b = appendStringField(b, `,"group_id":`, rec.GroupID)
	b = appendStringField(b, `,"extractor":`, rec.Extractor)
	b = appendTrueField(b, `,"cached":true`, rec.Cached)
	b = appendCacheKey(b, rec.CacheKey)
	b = appendMetadata(b, rec)
	b = appendIntField(b, `,"attempt":`, int64(rec.Attempt))
	b = appendStringField(b, `,"reason":`, rec.Reason)
	b = appendStringField(b, `,"state":`, rec.State)
	b = appendStringField(b, `,"err":`, rec.Err)
	b = appendStringField(b, `,"node":`, rec.Node)
	b = appendIntField(b, `,"epoch":`, rec.Epoch)
	b = appendIntField(b, `,"ttl_ms":`, rec.TTLMS)
	return append(b, '}'), nil
}

// appendStringField, appendIntField and appendTrueField append an
// omitempty field, shared by the record and snapshot encoders: nothing
// for the zero value.
func appendStringField(b []byte, name, v string) []byte {
	if v == "" {
		return b
	}
	return fastjson.AppendString(append(b, name...), v)
}

func appendIntField(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, name...), v, 10)
}

func appendTrueField(b []byte, field string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, field...)
}

// appendCacheKey appends a step's "cache_key" field when it has one.
func appendCacheKey(b []byte, k *CacheKey) []byte {
	if k == nil {
		return b
	}
	b = append(b, `,"cache_key":{"content_hash":`...)
	b = fastjson.AppendString(b, k.ContentHash)
	b = append(b, `,"version":`...)
	b = fastjson.AppendString(b, k.Version)
	return append(b, '}')
}

// appendMarshaled appends a rare sub-object's field through encoding/json.
func appendMarshaled(b []byte, name string, v any) ([]byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(append(b, name...), blob...), nil
}

// appendMetadata appends rec's "metadata" field: the worker's bytes as
// they are, or the deferred encode of MetadataObj — the accept path stored
// the live map and the flush leader materializes it here. An unencodable
// value drops the field silently, parity with the old accept-side
// `if blob, err := json.Marshal(md); err == nil` behavior.
func appendMetadata(b []byte, rec *Record) []byte {
	const prefix = `,"metadata":`
	if len(rec.Metadata) != 0 {
		b = append(b, prefix...)
		return append(b, rec.Metadata...)
	}
	if rec.MetadataObj == nil {
		return b
	}
	mark := len(b)
	nb, err := fastjson.AppendValue(append(b, prefix...), rec.MetadataObj)
	if err != nil {
		return b[:mark]
	}
	// Materialize the raw form on the record too: the leader folds the
	// encoded batch into live state, and state consumers (compaction
	// snapshots, JobSnapshot) read the Metadata bytes. Must be a copy — b
	// is the leader's reused encode buffer.
	rec.Metadata = append(json.RawMessage(nil), nb[mark+len(prefix):]...)
	return nb
}

// errRecordTooLarge is the encode error of a record whose frame replay
// would reject.
var errRecordTooLarge = fmt.Errorf("record over the %d-byte frame bound", maxRecordBytes)

// appendRecordFrame encodes rec in place after a reserved frame header,
// then back-fills the length and CRC — one framed record, zero
// intermediate allocations. A payload over maxRecordBytes, which replay
// takes for damage, is never framed: a step completion is framed again
// without its metadata (recovery re-extracts that step, as it does one
// journaled as null), and any other record is an encode error.
func appendRecordFrame(b []byte, rec *Record) ([]byte, error) {
	start := len(b)
	b, err := appendRecordJSON(append(b, 0, 0, 0, 0, 0, 0, 0, 0), rec)
	if err == nil && len(b)-start-frameHeader > maxRecordBytes {
		if rec.Type == RecStepCompleted && len(rec.Metadata) != 0 {
			rec.Metadata, rec.MetadataObj = nil, nil
			return appendRecordFrame(b[:start], rec)
		}
		err = errRecordTooLarge
	}
	if err != nil {
		return b[:start], err
	}
	return sealFrame(b, start), nil
}

// sealFrame back-fills the header reserved at b[start:] with the length
// and CRC of the payload after it.
func sealFrame(b []byte, start int) []byte {
	payload := b[start+frameHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// readFrame decodes the frame at data[off:], returning the payload and
// the offset just past it. ok is false at any damage: short header, a
// length over limit, short payload, or CRC mismatch.
func readFrame(data []byte, off, limit int) (payload []byte, next int, ok bool) {
	if off+frameHeader > len(data) {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > limit || off+frameHeader+n > len(data) {
		return nil, off, false
	}
	payload = data[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, off, false
	}
	return payload, off + frameHeader + n, true
}

// File is one open segment: sequential writes plus durability.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Dir abstracts the journal's backing directory so the log can live on
// local disk (OSDir) or on any store.Store (StoreDir). store.Store has
// no append primitive, so StoreDir files buffer in memory and rewrite
// the whole object per Sync — acceptable because segments are
// size-bounded by rotation.
type Dir interface {
	List() ([]string, error)
	Read(name string) ([]byte, error)
	Create(name string) (File, error)
	Remove(name string) error
}

// --- local-disk Dir ---

type osDir struct{ path string }

// OSDir opens (creating if needed) a local directory as journal backing.
func OSDir(path string) (Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return osDir{path: path}, nil
}

func (d osDir) List() ([]string, error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (d osDir) Read(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.path, name))
}

func (d osDir) Create(name string) (File, error) {
	f, err := os.Create(filepath.Join(d.path, name))
	if err != nil {
		return nil, err
	}
	// Make the directory entry itself durable (best effort: some file
	// systems reject directory fsync).
	if dh, derr := os.Open(d.path); derr == nil {
		_ = dh.Sync()
		_ = dh.Close()
	}
	return f, nil
}

func (d osDir) Remove(name string) error {
	return os.Remove(filepath.Join(d.path, name))
}

// --- store.Store Dir ---

type storeDir struct {
	st     store.Store
	prefix string
}

// StoreDir mounts a journal directory at prefix on any store.Store.
func StoreDir(st store.Store, prefix string) Dir {
	return &storeDir{st: st, prefix: store.Clean(prefix)}
}

func (d *storeDir) List() ([]string, error) {
	infos, err := d.st.List(d.prefix)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, fi := range infos {
		if !fi.IsDir {
			names = append(names, fi.Name)
		}
	}
	return names, nil
}

func (d *storeDir) Read(name string) ([]byte, error) {
	return d.st.Read(d.prefix + "/" + name)
}

func (d *storeDir) Remove(name string) error {
	return d.st.Delete(d.prefix + "/" + name)
}

type storeFile struct {
	st   store.Store
	path string
	buf  []byte
}

func (d *storeDir) Create(name string) (File, error) {
	f := &storeFile{st: d.st, path: d.prefix + "/" + name}
	// Materialize the empty object so List sees the segment immediately.
	if err := d.st.Write(f.path, nil); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *storeFile) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *storeFile) Sync() error  { return f.st.Write(f.path, f.buf) }
func (f *storeFile) Close() error { return f.Sync() }

// --- writer ---

// Options tunes a journal.
type Options struct {
	// Clock drives timestamps and fsync timing (default real time).
	Clock clock.Clock
	// SegmentBytes triggers rotation once a segment exceeds this size
	// (default 1 MiB).
	SegmentBytes int64
	// CompactSegments triggers snapshot+compaction once this many closed
	// segments accumulate (default 4; <0 disables auto-compaction).
	CompactSegments int
	// OnAppend, when set, observes every accepted record with its type
	// (the xtract_journal_appends_total hook).
	OnAppend func(recType string)
	// OnFsync, when set, observes each fsync batch duration.
	OnFsync func(d time.Duration)
}

// Journal is an open write-ahead log. Safe for concurrent Append.
type Journal struct {
	dir  Dir
	clk  clock.Clock
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	// state mirrors every flushed record (the group-commit leader folds
	// each durable batch); Compact snapshots it and recovery reads the
	// copy taken at Open. Only the active leader and Open touch it.
	state      *State
	recovered  *State
	info       ReplayInfo
	nextSeq    uint64
	durableSeq uint64
	// pending holds accepted-but-unflushed records in seq order; the
	// group-commit leader encodes and frames them with the mutex dropped,
	// keeping marshal and CRC work off the appenders' critical path.
	pending []Record
	// pendingSpare and encBuf are the flush leader's reusable buffers
	// (accept-path slice backing and encode scratch); only the active
	// leader (guarded by syncing) swaps them.
	pendingSpare []Record
	encBuf       []byte
	syncing      bool
	// ageArmed says flushAged is running.
	ageArmed bool
	killed   bool
	closed   bool
	err      error
	// killAt arms a deterministic crash at that many accepted records;
	// killedCh closes when the journal dies.
	killAt   int64
	killedCh chan struct{}

	cur        File
	curName    string
	curSize    int64
	closedSegs []string

	appends  int64
	fsyncs   int64
	compacts atomic.Int64 // bumped by compaction, which runs without the mutex
}

func segName(firstSeq uint64) string { return fmt.Sprintf("seg-%016d.wal", firstSeq) }
func snapName(lastSeq uint64) string { return fmt.Sprintf("snap-%016d.snap", lastSeq) }
func parseSeq(name, pre, suf string) (uint64, bool) {
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	var n uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, pre), suf), "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// Open replays any existing log in dir and returns a journal ready for
// appends. The replayed state (what recovery consumes) is available via
// Recovered; damage found during the scan is reported in Info.
func Open(dir Dir, opts Options) (*Journal, error) {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if opts.CompactSegments == 0 {
		opts.CompactSegments = 4
	}
	st, info, err := Replay(dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:        dir,
		clk:        opts.Clock,
		opts:       opts,
		state:      st,
		recovered:  st.clone(),
		info:       info,
		nextSeq:    st.LastSeq + 1,
		durableSeq: st.LastSeq,
		killedCh:   make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)
	// Pre-existing segments count toward the compaction trigger so a
	// restarted journal still bounds the next recovery's scan.
	names, err := dir.List()
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := parseSeq(n, "seg-", ".wal"); ok {
			j.closedSegs = append(j.closedSegs, n)
		}
	}
	return j, nil
}

// Recovered returns the state replayed at Open — a private copy; later
// appends do not mutate it.
func (j *Journal) Recovered() *State { return j.recovered }

// JobSnapshot returns a private copy of one job's live folded state —
// the durable view a cluster peer adopts a failed-over job from. The
// copy reflects records flushed so far; records still buffered in an
// open group-commit batch are not yet visible.
func (j *Journal) JobSnapshot(id string) (*JobState, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	js, ok := j.state.Jobs[id]
	if !ok {
		return nil, false
	}
	return js.clone(), true
}

// LiveJobs lists the IDs of all non-terminal jobs in the live folded
// state, sorted — the failover scan's work-list.
func (j *Journal) LiveJobs() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	ids := make([]string, 0, len(j.state.Jobs))
	for id, js := range j.state.Jobs {
		if !js.Terminal {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Observe installs (or replaces) the append/fsync hooks after Open — the
// journal is typically opened before the metrics registry exists.
func (j *Journal) Observe(onAppend func(recType string), onFsync func(d time.Duration)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.opts.OnAppend = onAppend
	j.opts.OnFsync = onFsync
}

// Info reports what the Open-time replay scan found.
func (j *Journal) Info() ReplayInfo { return j.info }

// Stats reports cumulative appends, fsync batches, and compactions.
func (j *Journal) Stats() (appends, fsyncs, compacts int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.fsyncs, j.compacts.Load()
}

// Ticket is an accepted record's claim on durability: a caller can start
// the work the record announces while its fsync is in flight, and hold
// back only what must not be seen before the record is safe.
type Ticket struct {
	j   *Journal
	seq uint64
	err error
}

// Records nobody waits on leave with the next waited batch, or on their
// own once maxUnwaited of them are buffered, or when one is still
// buffered a whole unwaitedAge check period after the check that first
// saw it — so within two periods of being accepted.
const (
	maxUnwaited = 256
	unwaitedAge = 5 * time.Millisecond
)

// Begin is the one accept path: it assigns rec its Seq, buffers it and
// returns at once; a crash before the flush loses the record. A closed,
// killed or failed journal refuses it, and the ticket says why.
func (j *Journal) Begin(rec Record) Ticket {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		return Ticket{err: ErrClosed}
	case j.killed:
		return Ticket{err: ErrKilled}
	case j.err != nil:
		return Ticket{err: j.err}
	}
	rec.Seq = j.nextSeq
	j.nextSeq++
	j.pending = append(j.pending, rec)
	j.appends++
	if j.killAt > 0 && j.appends >= j.killAt {
		j.killLocked()
		return Ticket{err: ErrKilled}
	}
	if j.opts.OnAppend != nil {
		j.opts.OnAppend(rec.Type)
	}
	t := Ticket{j: j, seq: rec.Seq}
	if len(j.pending) == maxUnwaited {
		go t.Wait() // the size bound: a stand-in waiter for a full buffer
	}
	if !j.ageArmed {
		j.ageArmed = true
		go j.flushAged(rec.Seq)
	}
	return t
}

// Wait blocks until the ticket's record is durable, or reports why it
// never will be. Waiting is what drives the group commit: there is a
// leader flushing for as long as a waited record is not on disk.
func (t Ticket) Wait() error {
	if t.j == nil {
		return t.err
	}
	t.j.mu.Lock()
	defer t.j.mu.Unlock()
	return t.j.waitLocked(t.seq)
}

// Append accepts rec and blocks until it is durable. Cancellation and
// terminal records go this way; a submission waits on its ticket later.
func (j *Journal) Append(rec Record) error { return j.Begin(rec).Wait() }

// AppendAsync accepts rec and nobody waits for it. Callers use it only for
// transitions recovery can reconstruct or afford to redo (step completions
// are re-derived from the result cache; retries simply happen again).
func (j *Journal) AppendAsync(rec Record) error { return j.Begin(rec).err }

// waitLocked returns once seq is durable or the journal is dead. The
// caller becomes the group-commit leader when there is none, and leads
// only until seq is durable: a waiter still uncovered then takes over, so
// no ticket resolves later than its own record's fsync.
func (j *Journal) waitLocked(seq uint64) error {
	for j.durableSeq < seq && j.err == nil && !j.killed {
		if j.syncing {
			j.cond.Wait()
			continue
		}
		j.syncing = true
		j.flushLocked(seq)
		j.syncing = false
		j.cond.Broadcast()
	}
	switch {
	case j.durableSeq >= seq:
		return nil
	case j.killed:
		return ErrKilled
	}
	return j.err
}

// flushAged is the age bound, started by the first record accepted while
// it is not running. Each period it checks the oldest record the previous
// check found buffered: still there, nobody waited for a whole period, and
// it becomes the waiter for everything accepted so far. With a steady
// supply of waiters it never flushes; on an empty buffer or a dead journal
// it exits.
func (j *Journal) flushAged(oldest uint64) {
	for armed := true; armed; {
		<-j.clk.After(unwaitedAge)
		j.mu.Lock()
		if j.durableSeq < oldest {
			_ = j.waitLocked(j.nextSeq - 1)
		}
		oldest = j.durableSeq + 1
		armed = oldest < j.nextSeq && j.err == nil && !j.killed
		j.ageArmed = armed
		j.mu.Unlock()
	}
}

// flushLocked is the group-commit leader loop: until the leader's own seq
// is durable, write and fsync everything buffered as one batch (dropping
// the mutex for the IO so followers keep queueing), then rotate/compact as
// needed. Records nobody waits on never start an fsync — the device stays
// free for the next waiter — but every batch takes them along. Callers
// hold j.mu with j.syncing set.
func (j *Journal) flushLocked(seq uint64) {
	for j.durableSeq < seq && len(j.pending) > 0 && j.err == nil && !j.killed {
		if j.cur == nil {
			if err := j.openSegmentLocked(); err != nil {
				j.err = err
				return
			}
		}
		batch := j.pending
		j.pending = j.pendingSpare[:0]
		j.pendingSpare = nil
		cur := j.cur
		room := j.opts.SegmentBytes - j.curSize
		frames := j.encBuf[:0]
		j.encBuf = nil
		j.mu.Unlock()
		frames, cut, werr := encodeBatch(frames, batch, room, j.clk.Now())
		if werr == nil {
			_, werr = cur.Write(frames)
		}
		var fsyncDur time.Duration
		if werr == nil {
			t0 := j.clk.Now()
			werr = cur.Sync()
			fsyncDur = j.clk.Since(t0)
		}
		j.mu.Lock()
		if werr != nil {
			j.err = werr
			return
		}
		// Fold the durable batch into the live state. Deferring the fold
		// (and the timestamping above) to the leader keeps the accept path
		// down to a mutex and a slice append — journaling rides the pump's
		// critical path, and every microsecond there is amplified by
		// downstream batching.
		for i := 0; i < cut; i++ {
			j.state.Apply(batch[i])
		}
		j.durableSeq = batch[cut-1].Seq
		j.curSize += int64(len(frames))
		if cap(frames) <= 1<<20 {
			j.encBuf = frames[:0]
		}
		j.requeueLocked(batch, cut)
		j.fsyncs++
		if j.opts.OnFsync != nil {
			j.opts.OnFsync(fsyncDur)
		}
		j.cond.Broadcast()
		if j.curSize >= j.opts.SegmentBytes {
			j.rotateLocked(false)
		}
	}
}

// encodeBatch frames batch's records onto frames until the current
// segment's room is used up: a huge batch must not become one huge
// segment, or rotation (and with it compaction) would stall until the
// writer pauses. Records without a time are stamped now. It returns the
// frames and cut, the number of records framed; requeueLocked puts the
// rest back at the front of the queue for the next segment.
func encodeBatch(frames []byte, batch []Record, room int64, now time.Time) ([]byte, int, error) {
	for i := range batch {
		if i > 0 && int64(len(frames)) >= room {
			return frames, i, nil
		}
		if batch[i].At.IsZero() {
			batch[i].At = now
		}
		var err error
		if frames, err = appendRecordFrame(frames, &batch[i]); err != nil {
			return frames, len(batch), fmt.Errorf("journal: encode %s: %w", batch[i].Type, err)
		}
	}
	return frames, len(batch), nil
}

// requeueLocked recycles a flushed batch. Records past cut (the segment
// boundary) rejoin the queue, shifted down in place, ahead of what
// followers appended while the lock was down (all higher in seq), and the
// followers' buffer becomes the new spare; a batch flushed whole is the
// spare itself.
func (j *Journal) requeueLocked(batch []Record, cut int) {
	if cut < len(batch) && !j.killed {
		late, n := j.pending, copy(batch, batch[cut:])
		clear(batch[n:])
		j.pending = append(batch[:n], late...)
		clear(late)
		j.pendingSpare = late[:0]
	} else if cut == len(batch) && cap(batch) <= 1<<14 {
		clear(batch)
		j.pendingSpare = batch[:0]
	}
}

// openSegmentLocked starts a fresh segment named after the first seq it
// will hold.
func (j *Journal) openSegmentLocked() error {
	name := segName(j.durableSeq + 1)
	// A stranded pre-existing segment (garbage past the replayed tail)
	// can share this name; Create truncates it, so it must leave the
	// closed list — compaction would otherwise delete the live segment.
	for i, seg := range j.closedSegs {
		if seg == name {
			j.closedSegs = append(j.closedSegs[:i], j.closedSegs[i+1:]...)
			break
		}
	}
	f, err := j.dir.Create(name)
	if err != nil {
		return err
	}
	j.cur, j.curName, j.curSize = f, name, 0
	return nil
}

// rotateLocked closes the current segment and, past the compaction
// threshold (or when forced), snapshots the live state and deletes the
// covered segments.
func (j *Journal) rotateLocked(force bool) {
	if j.cur != nil {
		_ = j.cur.Close()
		j.closedSegs = append(j.closedSegs, j.curName)
		j.cur, j.curName, j.curSize = nil, "", 0
	}
	if n := len(j.closedSegs); n > 0 && (force || j.opts.CompactSegments > 0 && n >= j.opts.CompactSegments) {
		j.compactLocked()
	}
}

// compactLocked writes a durable snapshot of the live state, then
// removes every closed segment it covers. A crash between the snapshot
// fsync and the removals only leaves garbage segments behind (replay
// skips their records by seq); a crash during the snapshot write leaves
// an invalid snapshot that replay ignores in favor of the segments. The
// mutex is dropped throughout, so appenders and readers carry on: only the
// leader (the caller, j.syncing set) mutates j.state and j.closedSegs.
func (j *Journal) compactLocked() {
	// The snapshot's horizon is the flushed-and-folded prefix: records
	// still pending for the next batch are not in the state yet, and
	// their segments stay behind the snapshot until a later compaction.
	last := j.durableSeq
	j.mu.Unlock()
	defer j.mu.Lock()
	frame, err := appendStateJSON(make([]byte, frameHeader), j.state)
	if err != nil {
		return
	}
	f, err := j.dir.Create(snapName(last))
	if err != nil {
		return
	}
	_, err = f.Write(sealFrame(frame, 0))
	if err == nil {
		err = f.Sync()
	}
	_ = f.Close()
	if err != nil {
		return
	}
	for _, seg := range j.closedSegs {
		_ = j.dir.Remove(seg)
	}
	j.closedSegs = nil
	// Retire older snapshots; the new one supersedes them.
	if names, err := j.dir.List(); err == nil {
		for _, n := range names {
			if seq, ok := parseSeq(n, "snap-", ".snap"); ok && seq < last {
				_ = j.dir.Remove(n)
			}
		}
	}
	j.compacts.Add(1)
}

// drainLocked flushes everything buffered and waits out the active leader
// (it holds the current segment file): on return that file may be closed,
// and nothing is pending unless the journal is dead.
func (j *Journal) drainLocked() {
	for j.syncing || (len(j.pending) > 0 && j.err == nil && !j.killed) {
		if j.syncing {
			j.cond.Wait()
		} else {
			_ = j.waitLocked(j.nextSeq - 1)
		}
	}
}

// Compact forces a rotation and snapshot now, regardless of thresholds.
func (j *Journal) Compact() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.drainLocked()
	if j.closed || j.killed || j.err != nil {
		return
	}
	j.syncing = true
	j.rotateLocked(true)
	j.syncing = false
	j.cond.Broadcast()
}

// Kill emulates a SIGKILL for crash tests: the buffered tail is dropped,
// waiters fail with ErrKilled and nothing more is accepted. A write
// already in flight may still land, as on a real disk.
func (j *Journal) Kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.killLocked()
}

// killLocked is the shared SIGKILL transition: drop the buffered tail,
// fail pending appenders, and signal Killed watchers. Idempotent.
func (j *Journal) killLocked() {
	if j.killed {
		return
	}
	j.killed = true
	j.pending = nil
	j.cond.Broadcast()
	close(j.killedCh)
}

// KillAtAppend arms a deterministic crash: when the n-th accepted record
// (counting every Append and AppendAsync since Open) enters the buffer,
// the journal dies on the spot — same effect as Kill, but exact. Chaos
// tests need the precision: a Kill driven from an OnAppend hook races the
// records accepted between the hook firing and the Kill landing, and the
// hook cannot call Kill itself (it runs under the journal lock).
func (j *Journal) KillAtAppend(n int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.killAt = n
}

// Killed returns a channel closed when the journal dies via Kill or an
// armed KillAtAppend — the cue for a crash test to tear the rest of the
// "process" down.
func (j *Journal) Killed() <-chan struct{} { return j.killedCh }

// Close flushes buffered records and closes the current segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.drainLocked()
	if j.closed {
		return nil
	}
	if j.cur != nil {
		_ = j.cur.Close()
		j.cur = nil
	}
	j.closed = true
	j.cond.Broadcast()
	return j.err
}
