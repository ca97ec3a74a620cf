package journal

import (
	"encoding/json"
	"slices"
	"sort"
	"time"

	"xtract/internal/fastjson"
	"xtract/internal/registry"
)

// stepKeySep joins (family, group, extractor) into a step map key. The
// unit separator cannot appear in sane paths or extractor names, so the
// join is unambiguous.
const stepKeySep = "\x1f"

// StepKey builds the State.Jobs[...].Steps map key for one step.
func StepKey(familyID, groupID, extractor string) string {
	return familyID + stepKeySep + groupID + stepKeySep + extractor
}

// StepDone records one journaled step completion: enough to seed the
// result cache (so recovery re-runs nothing) and to audit provenance.
type StepDone struct {
	FamilyID  string          `json:"family_id"`
	GroupID   string          `json:"group_id"`
	Extractor string          `json:"extractor"`
	Cached    bool            `json:"cached,omitempty"`
	CacheKey  *CacheKey       `json:"cache_key,omitempty"`
	Metadata  json.RawMessage `json:"metadata,omitempty"`
}

// JobState is the replayed view of one job. Terminal jobs keep only
// their outcome and its dead-letter report — step and family detail is
// pruned to bound snapshot size and replay memory.
type JobState struct {
	ID        string   `json:"id"`
	Spec      *JobSpec `json:"spec,omitempty"`
	Submitted string   `json:"submitted,omitempty"`
	Terminal  bool     `json:"terminal,omitempty"`
	Cancelled bool     `json:"cancelled,omitempty"`
	State     string   `json:"state,omitempty"`
	Err       string   `json:"err,omitempty"`
	// Families counts the job's family_enqueued records, a resumed run's too.
	Families FamilyCount `json:"families,omitempty"`
	// Steps maps StepKey(...) to the journaled completion, for the steps
	// recovery can seed: those with a cache key and an object body.
	Steps        map[string]StepDone `json:"steps,omitempty"`
	Retries      int                 `json:"retries,omitempty"`
	DeadLettered int                 `json:"dead_lettered,omitempty"`
	FailedFams   int                 `json:"failed_families,omitempty"`
	// DeadLetters is the job's dead-letter report as its step_dead_lettered
	// and family_failed records tell it, capped like the registry's. A
	// family enqueued again (a resumed job runs it again) starts with none.
	DeadLetters []registry.DeadLetter `json:"dead_letters,omitempty"`
	// Lease fields mirror the newest ownership record: which node held
	// the job, at what fencing epoch, and when that lease expires
	// (RFC3339Nano). A restarting node uses them to decide whether a
	// journaled job is still owned elsewhere.
	LeaseNode   string `json:"lease_node,omitempty"`
	LeaseEpoch  int64  `json:"lease_epoch,omitempty"`
	LeaseExpiry string `json:"lease_expiry,omitempty"`
}

// FamilyCount is JobState.Families. It reads a count, or the object of
// family IDs a snapshot held when the fold kept one, as its length.
type FamilyCount int

// UnmarshalJSON implements json.Unmarshaler.
func (n *FamilyCount) UnmarshalJSON(b []byte) error {
	var families map[string]json.RawMessage
	if json.Unmarshal(b, &families) != nil {
		return json.Unmarshal(b, (*int)(n))
	}
	*n = FamilyCount(len(families))
	return nil
}

// State is the fold of a journal: everything recovery needs to restore
// the registry and resume unfinished jobs. The writer maintains it
// incrementally on every append, which makes snapshots cheap and keeps
// replay(snapshot+tail) ≡ replay(full log) true by construction.
type State struct {
	LastSeq uint64               `json:"last_seq"`
	Jobs    map[string]*JobState `json:"jobs,omitempty"`
	// Unknown counts records referencing jobs whose submission record is
	// missing (lost to damage or pre-snapshot truncation bugs); they are
	// skipped, not fatal.
	Unknown int64 `json:"unknown,omitempty"`
}

// NewState returns an empty fold.
func NewState() *State {
	return &State{Jobs: make(map[string]*JobState)}
}

// JobIDs lists journaled jobs in a stable order.
func (s *State) JobIDs() []string {
	ids := make([]string, 0, len(s.Jobs))
	for id := range s.Jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Apply folds one record into the state. The writer calls it on every
// append; replay calls it on every decoded frame — the two paths share
// exactly this function, which is what the snapshot-equivalence property
// test pins down.
func (s *State) Apply(rec Record) {
	if rec.Seq > s.LastSeq {
		s.LastSeq = rec.Seq
	}
	if rec.Type == RecJobSubmitted {
		s.Jobs[rec.JobID] = &JobState{
			ID:        rec.JobID,
			Spec:      rec.Spec,
			Submitted: rec.At.Format("2006-01-02T15:04:05.999999999Z07:00"),
		}
		return
	}
	job, ok := s.Jobs[rec.JobID]
	if !ok {
		s.Unknown++
		return
	}
	switch rec.Type {
	case RecFamilyEnqueued:
		job.Families++
		if len(job.DeadLetters) > 0 {
			job.DeadLetters = slices.DeleteFunc(job.DeadLetters,
				func(dl registry.DeadLetter) bool { return dl.FamilyID == rec.FamilyID })
		}
	case RecStepCompleted:
		job.foldStep(&rec)
	case RecStepRetried:
		job.Retries++
	case RecStepDeadLettered:
		job.DeadLettered++
		job.addDeadLetter(registry.DeadLetter{Kind: "step", FamilyID: rec.FamilyID, GroupID: rec.GroupID,
			Extractor: rec.Extractor, Attempts: rec.Attempt, Reason: rec.Reason, At: rec.At})
	case RecFamilyFailed:
		job.FailedFams++
		job.addDeadLetter(registry.DeadLetter{Kind: "family", FamilyID: rec.FamilyID,
			Attempts: rec.Attempt, Reason: rec.Reason, At: rec.At})
	case RecJobCancelled:
		job.Terminal = true
		job.Cancelled = true
		job.State = "CANCELLED"
		job.Err = rec.Err
		job.prune()
	case RecJobTerminal:
		job.Terminal = true
		job.State = rec.State
		job.Err = rec.Err
		job.prune()
	case RecLeaseAcquired, RecLeaseRenewed:
		// An older lessee's stale record never rolls ownership back.
		if rec.Epoch >= job.LeaseEpoch {
			job.LeaseNode = rec.Node
			job.LeaseEpoch = rec.Epoch
			job.LeaseExpiry = rec.At.Add(time.Duration(rec.TTLMS) * time.Millisecond).
				Format(time.RFC3339Nano)
		}
	case RecLeaseReleased:
		if rec.Epoch >= job.LeaseEpoch {
			job.LeaseNode = ""
			job.LeaseEpoch = rec.Epoch
			job.LeaseExpiry = ""
		}
	}
}

// foldStep keeps a step completion only if recovery can seed it: a cache
// key and an object body, the set resumeJob reads. A no_cache job's steps
// would otherwise hold memory in proportion to its size, and every
// snapshot would carry them. A later completion of the same step replaces
// the entry, so one that cannot be seeded drops it.
func (j *JobState) foldStep(rec *Record) {
	if rec.CacheKey == nil || !fastjson.IsObject(rec.Metadata) {
		if len(j.Steps) > 0 {
			delete(j.Steps, StepKey(rec.FamilyID, rec.GroupID, rec.Extractor))
		}
		return
	}
	if j.Steps == nil {
		j.Steps = make(map[string]StepDone)
	}
	j.Steps[StepKey(rec.FamilyID, rec.GroupID, rec.Extractor)] = StepDone{
		FamilyID:  rec.FamilyID,
		GroupID:   rec.GroupID,
		Extractor: rec.Extractor,
		Cached:    rec.Cached,
		CacheKey:  rec.CacheKey,
		Metadata:  rec.Metadata,
	}
}

// addDeadLetter notes one quarantine, up to registry.MaxDeadLetters.
func (j *JobState) addDeadLetter(dl registry.DeadLetter) {
	if len(j.DeadLetters) < registry.MaxDeadLetters {
		j.DeadLetters = append(j.DeadLetters, dl)
	}
}

// prune drops per-step detail once a job is terminal: recovery restores
// the outcome and its dead-letter report only, and snapshots stay bounded
// by live work, not job history.
func (j *JobState) prune() {
	j.Families = 0
	j.Steps = nil
	j.LeaseNode = ""
	j.LeaseExpiry = ""
}

// ReplayInfo reports what a replay scan found, including damage the
// torn-tail tolerance skipped over.
type ReplayInfo struct {
	// Segments is how many segment files were scanned.
	Segments int `json:"segments"`
	// SnapshotUsed names the snapshot the scan started from ("" = none).
	SnapshotUsed string `json:"snapshot_used,omitempty"`
	// Records is how many records were applied (excluding the snapshot).
	Records int64 `json:"records"`
	// Skipped counts records at or below the snapshot horizon.
	Skipped int64 `json:"skipped,omitempty"`
	// TornTail is true when the final segment ended in a damaged frame —
	// the expected signature of a crash mid-batch.
	TornTail bool `json:"torn_tail,omitempty"`
	// CorruptSegments counts segments abandoned at a damaged frame.
	CorruptSegments int `json:"corrupt_segments,omitempty"`
	// SeqGap is true when record sequencing broke — a segment held
	// records that do not continue the fold (an earlier segment was
	// damaged or lost); such segments are abandoned, never applied out
	// of order.
	SeqGap bool `json:"seq_gap,omitempty"`

	snapshotSeq uint64
}

// Replay scans dir — newest valid snapshot first, then every segment in
// seq order — and folds the log into a State. Damage never fails the
// replay: a bad frame abandons its segment and the scan moves on to the
// next one. Sequence continuity is the global consistency guard — a
// record is applied only when it extends the fold by exactly one, so
// segments stranded past a hole are reported (SeqGap) but never folded
// out of order. This lets a journal that recovered past damage (new
// segments appended after a torn tail) replay its post-damage records.
func Replay(dir Dir) (*State, ReplayInfo, error) {
	var info ReplayInfo
	names, err := dir.List()
	if err != nil {
		return nil, info, err
	}
	var segs []string
	var snaps []string
	for _, n := range names {
		if _, ok := parseSeq(n, "seg-", ".wal"); ok {
			segs = append(segs, n)
		}
		if _, ok := parseSeq(n, "snap-", ".snap"); ok {
			snaps = append(snaps, n)
		}
	}
	// Segment and snapshot names embed zero-padded sequence numbers, so
	// lexical order is seq order.
	sort.Strings(segs)
	sort.Sort(sort.Reverse(sort.StringSlice(snaps)))

	st := newestSnapshot(dir, snaps, &info)
	for i, n := range segs {
		data, err := dir.Read(n)
		if err == nil {
			info.Segments++
		}
		// An unreadable segment counts like a damaged frame at offset 0.
		if err != nil || !st.applySegment(data, &info) {
			info.CorruptSegments++
			if i == len(segs)-1 {
				info.TornTail = true
			}
		}
	}
	return st, info, nil
}

// newestSnapshot returns the state of the newest snapshot among snaps
// (newest first) that reads back whole, or an empty state when none does,
// and notes which one it used in info.
func newestSnapshot(dir Dir, snaps []string, info *ReplayInfo) *State {
	for _, n := range snaps {
		data, err := dir.Read(n)
		if err != nil {
			continue
		}
		payload, _, ok := readFrame(data, 0, len(data))
		if !ok {
			continue
		}
		cand := NewState()
		if json.Unmarshal(payload, cand) != nil {
			continue
		}
		if cand.Jobs == nil {
			cand.Jobs = make(map[string]*JobState)
		}
		info.SnapshotUsed = n
		info.snapshotSeq = cand.LastSeq
		return cand
	}
	return NewState()
}

// applySegment folds one segment's records past the snapshot horizon into
// s, stopping at the first damaged frame or sequence hole. It reports
// false when it stopped at damage.
func (s *State) applySegment(data []byte, info *ReplayInfo) bool {
	for off := 0; off < len(data); {
		payload, next, ok := readFrame(data, off, maxRecordBytes)
		if !ok {
			return false
		}
		off = next
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		if rec.Seq <= info.snapshotSeq {
			info.Skipped++
			continue
		}
		if rec.Seq != s.LastSeq+1 {
			// A hole in the sequence: this segment does not continue the
			// fold (an earlier segment was damaged, lost, or this one holds
			// stale duplicates). Abandon it rather than fold an
			// inconsistent history.
			info.SeqGap = true
			return true
		}
		s.Apply(rec)
		info.Records++
	}
	return true
}
