package workload

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/coe"
)

// encodeTrace hand-assembles a binary trace from raw uvarint fields, so
// a test can write values Write itself would never produce.
func encodeTrace(name string, fields ...uint64) []byte {
	buf := []byte(traceMagic)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	for _, v := range fields {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// oneEntry encodes a single-entry trace: arrival offset, class, an
// empty tenant, and a one-stage chain.
func oneEntry(at, class, expert uint64) []byte {
	return encodeTrace("t", 1, at, class, 0, 1, expert)
}

// TestReadTraceOneEntryBaseline: the hand encoding is a valid trace, so
// the overflow tests below fail for the overflow alone.
func TestReadTraceOneEntryBaseline(t *testing.T) {
	got, err := ReadTrace(bytes.NewReader(oneEntry(uint64(time.Second), 2, 7)))
	if err != nil {
		t.Fatal(err)
	}
	want := &ArrivalTrace{Name: "t", Entries: []ArrivalEntry{{At: time.Second, Class: 2, Chain: []coe.ExpertID{7}}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestReadTraceClaimedCountAllocatesLazily: a 13-byte file that claims
// DrainCap entries and carries none must fail without reserving memory
// for the claim (~235 MB of ArrivalEntry when pre-sized from it).
func TestReadTraceClaimedCountAllocatesLazily(t *testing.T) {
	in := encodeTrace("", DrainCap)
	if len(in) != 13 {
		t.Fatalf("fixture is %d bytes, want 13", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadTrace accepted a trace missing every claimed entry")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("ReadTrace allocated %d bytes for a 13-byte input, want < 1 MiB", got)
	}
}

// TestReadTraceRejectsArrivalOverflow: an offset >= 2^63 would wrap to a
// negative At, which Write itself refuses to encode.
func TestReadTraceRejectsArrivalOverflow(t *testing.T) {
	if tr, err := ReadTrace(bytes.NewReader(oneEntry(1<<63, 0, 0))); err == nil {
		t.Errorf("ReadTrace accepted arrival offset 2^63 as %v", tr.Entries[0].At)
	}
}

// TestReadTraceRejectsClassOverflow: a class >= 2^63 would wrap to a
// negative int.
func TestReadTraceRejectsClassOverflow(t *testing.T) {
	if tr, err := ReadTrace(bytes.NewReader(oneEntry(0, 1<<63, 0))); err == nil {
		t.Errorf("ReadTrace accepted class 2^63 as %d", tr.Entries[0].Class)
	}
}

// TestReadTraceRejectsExpertOverflow: expert id 2^40 would truncate to
// ExpertID(0) and pass Replay's range check against any model.
func TestReadTraceRejectsExpertOverflow(t *testing.T) {
	if tr, err := ReadTrace(bytes.NewReader(oneEntry(0, 0, 1<<40))); err == nil {
		t.Errorf("ReadTrace accepted expert id 2^40 as %d", tr.Entries[0].Chain[0])
	}
}

// FuzzReadTrace: ReadTrace never panics, and any trace it accepts
// re-encodes with Write and decodes to an equal trace.
func FuzzReadTrace(f *testing.F) {
	board, err := BoardA().Build()
	if err != nil {
		f.Fatal(err)
	}
	seed := func(tr *ArrivalTrace) {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(&ArrivalTrace{Name: "empty"})
	for _, n := range []int{1, 8} {
		src, err := Poisson{Name: "fuzz", Board: board, Rate: 20, N: n, Seed: int64(n)}.NewSource()
		if err != nil {
			f.Fatal(err)
		}
		rec := Record(src)
		for {
			if _, ok := rec.Next(); !ok {
				break
			}
		}
		seed(rec.Trace())
	}
	seed(&ArrivalTrace{Name: "tenants", Entries: []ArrivalEntry{
		{At: time.Millisecond, Class: 1, Tenant: "a", Chain: []coe.ExpertID{0, 3}},
		{At: time.Hour, Class: 0, Tenant: "bb", Chain: []coe.ExpertID{381}},
	}})
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round trip differs:\n%+v\nvs\n%+v", tr, again)
		}
	})
}
