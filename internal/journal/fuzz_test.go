package journal

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/store"
)

// validLog builds a well-formed single-segment log for the seed corpus.
func validLog(n int) []byte {
	var buf []byte
	for i := 1; i <= n; i++ {
		rec := Record{Seq: uint64(i), Type: RecStepRetried, JobID: "job-1", Attempt: i}
		if i == 1 {
			rec = Record{Seq: 1, Type: RecJobSubmitted, JobID: "job-1", Spec: &JobSpec{}}
		}
		buf, _ = appendRecordFrame(buf, &rec)
	}
	return buf
}

// FuzzJournalReplay feeds arbitrary bytes to the segment reader as a
// journal directory's only segment. Replay must never panic or error —
// damage is tolerated, not fatal — must be deterministic, and must leave
// the directory in a state a fresh writer can append to.
func FuzzJournalReplay(f *testing.F) {
	ok := validLog(5)
	f.Add(ok)
	f.Add(ok[:len(ok)-3])                    // torn tail
	f.Add(append([]byte{0, 1, 2, 3}, ok...)) // garbage prefix
	flipped := append([]byte(nil), ok...)
	flipped[len(flipped)/2] ^= 0x40 // bit-flipped CRC region
	f.Add(flipped)
	half := append([]byte(nil), ok...)
	f.Add(append(half[:len(half)/2], ok...)) // interleaved half-record
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := store.NewMemFS("journal", nil)
		if err := fs.Write("/wal/"+segName(1), data); err != nil {
			t.Skip()
		}
		dir := StoreDir(fs, "/wal")

		st1, info1, err := Replay(dir)
		if err != nil {
			t.Fatalf("replay errored on damage: %v", err)
		}
		st2, info2, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := json.Marshal(st1)
		b2, _ := json.Marshal(st2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("replay not deterministic:\n%s\n%s", b1, b2)
		}
		if info1.Records != info2.Records || info1.TornTail != info2.TornTail {
			t.Fatalf("replay info not deterministic: %+v vs %+v", info1, info2)
		}
		if st1.LastSeq > 0 && uint64(info1.Records) > st1.LastSeq {
			t.Fatalf("more records applied (%d) than LastSeq (%d)", info1.Records, st1.LastSeq)
		}

		// Whatever the damage, the journal must reopen and keep accepting
		// appends — recovery writes through the same log it replayed.
		j, err := Open(dir, Options{Clock: clock.NewFake(time.Unix(1700000000, 0))})
		if err != nil {
			t.Fatalf("open after damage: %v", err)
		}
		if err := j.Append(Record{Type: RecJobSubmitted, JobID: "job-f", Spec: &JobSpec{}}); err != nil {
			t.Fatalf("append after damage: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close after damage: %v", err)
		}
		st3, _, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st3.LastSeq != st1.LastSeq+1 {
			t.Fatalf("post-damage append not replayed: %d -> %d", st1.LastSeq, st3.LastSeq)
		}
	})
}
