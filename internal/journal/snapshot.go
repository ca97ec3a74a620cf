package journal

import (
	"maps"
	"slices"
	"strconv"

	"xtract/internal/fastjson"
)

// appendStateJSON appends s's JSON encoding to b: the snapshot encoder
// compaction uses instead of reflection-driven encoding/json. It writes
// the schema of the State struct tags, so a snapshot reads back the same
// whichever of the two wrote it (TestSnapshotEncoderMatchesEncodingJSON).
// Map entries come in map order, which decoding does not see, and step
// metadata is spliced in as the bytes it already is. Rare sub-objects (a
// job's Spec and dead-letter report) still go through encoding/json, as
// in appendRecordJSON.
func appendStateJSON(b []byte, s *State) ([]byte, error) {
	b = append(b, `{"last_seq":`...)
	b = strconv.AppendUint(b, s.LastSeq, 10)
	if len(s.Jobs) > 0 {
		b = append(b, `,"jobs":{`...)
		sep := false
		for id, js := range s.Jobs {
			b = appendKey(b, sep, id)
			sep = true
			var err error
			if b, err = appendJobJSON(b, js); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	b = appendIntField(b, `,"unknown":`, s.Unknown)
	return append(b, '}'), nil
}

// appendJobJSON appends one job's fold, in JobState's schema.
func appendJobJSON(b []byte, js *JobState) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = fastjson.AppendString(b, js.ID)
	var err error
	if js.Spec != nil {
		if b, err = appendMarshaled(b, `,"spec":`, js.Spec); err != nil {
			return b, err
		}
	}
	b = appendStringField(b, `,"submitted":`, js.Submitted)
	b = appendTrueField(b, `,"terminal":true`, js.Terminal)
	b = appendTrueField(b, `,"cancelled":true`, js.Cancelled)
	b = appendStringField(b, `,"state":`, js.State)
	b = appendStringField(b, `,"err":`, js.Err)
	b = appendIntField(b, `,"families":`, int64(js.Families))
	if len(js.Steps) > 0 {
		b = append(b, `,"steps":{`...)
		sep := false
		for key, sd := range js.Steps {
			b = appendStepJSON(appendKey(b, sep, key), &sd)
			sep = true
		}
		b = append(b, '}')
	}
	b = appendIntField(b, `,"retries":`, int64(js.Retries))
	b = appendIntField(b, `,"dead_lettered":`, int64(js.DeadLettered))
	b = appendIntField(b, `,"failed_families":`, int64(js.FailedFams))
	if len(js.DeadLetters) > 0 {
		if b, err = appendMarshaled(b, `,"dead_letters":`, js.DeadLetters); err != nil {
			return b, err
		}
	}
	b = appendStringField(b, `,"lease_node":`, js.LeaseNode)
	b = appendIntField(b, `,"lease_epoch":`, js.LeaseEpoch)
	b = appendStringField(b, `,"lease_expiry":`, js.LeaseExpiry)
	return append(b, '}'), nil
}

// appendStepJSON appends one folded step completion, in StepDone's schema.
func appendStepJSON(b []byte, sd *StepDone) []byte {
	b = append(b, `{"family_id":`...)
	b = fastjson.AppendString(b, sd.FamilyID)
	b = append(b, `,"group_id":`...)
	b = fastjson.AppendString(b, sd.GroupID)
	b = append(b, `,"extractor":`...)
	b = fastjson.AppendString(b, sd.Extractor)
	b = appendTrueField(b, `,"cached":true`, sd.Cached)
	b = appendCacheKey(b, sd.CacheKey)
	if len(sd.Metadata) != 0 {
		b = append(append(b, `,"metadata":`...), sd.Metadata...)
	}
	return append(b, '}')
}

// appendKey appends an object key, after a comma unless it is the first.
func appendKey(b []byte, sep bool, key string) []byte {
	if sep {
		b = append(b, ',')
	}
	return append(fastjson.AppendString(b, key), ':')
}

// clone copies the state deeply enough that nothing done to the copy
// reaches s.
func (s *State) clone() *State {
	out := &State{LastSeq: s.LastSeq, Unknown: s.Unknown, Jobs: make(map[string]*JobState, len(s.Jobs))}
	for id, js := range s.Jobs {
		out.Jobs[id] = js.clone()
	}
	return out
}

// clone copies one job's fold deeply enough that nothing done to the copy
// reaches js. Step metadata is immutable once journaled (fastjson.Raw),
// so the copy shares its bytes.
func (js *JobState) clone() *JobState {
	out := *js
	if js.Spec != nil {
		spec := *js.Spec
		spec.Repos = slices.Clone(spec.Repos)
		for i := range spec.Repos {
			spec.Repos[i].Roots = slices.Clone(spec.Repos[i].Roots)
		}
		out.Spec = &spec
	}
	out.Steps = maps.Clone(js.Steps)
	for k, sd := range out.Steps {
		if sd.CacheKey != nil {
			key := *sd.CacheKey
			sd.CacheKey = &key
			out.Steps[k] = sd
		}
	}
	out.DeadLetters = slices.Clone(js.DeadLetters)
	return &out
}
