package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleLog() *Log {
	l := New()
	l.Add(Event{At: time.Second, Kind: KindArrival, Request: 1})
	l.Add(Event{At: 2 * time.Second, Kind: KindAssign, Actor: "gpu0", Request: 1, Expert: 7})
	l.Add(Event{At: 3 * time.Second, Kind: KindSwitch, Actor: "gpu0", Expert: 7, Dur: time.Second, Detail: "ssd"})
	l.Add(Event{At: 4 * time.Second, Kind: KindBatch, Actor: "gpu0", Expert: 7, N: 4, Dur: 20 * time.Millisecond})
	l.Add(Event{At: 5 * time.Second, Kind: KindComplete, Request: 1, Dur: 4 * time.Second})
	return l
}

func TestAddAndFilter(t *testing.T) {
	l := sampleLog()
	if l.Len() != 5 {
		t.Fatalf("len = %d, want 5", l.Len())
	}
	if got := l.Count(KindSwitch); got != 1 {
		t.Errorf("switch count = %d, want 1", got)
	}
	sw := l.Filter(KindSwitch)
	if len(sw) != 1 || sw[0].Expert != 7 || sw[0].Detail != "ssd" {
		t.Errorf("filtered switch event wrong: %+v", sw)
	}
	if l.Filter(Kind("nope")) != nil {
		t.Error("unknown kind should filter to nil")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 { // header + 5 events
		t.Fatalf("csv rows = %d, want 6", len(records))
	}
	if records[0][0] != "at_us" || records[3][1] != "switch" || records[3][7] != "ssd" {
		t.Errorf("csv content wrong: %v", records[3])
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 || events[2].Kind != KindSwitch || events[2].Dur != time.Second {
		t.Errorf("json roundtrip wrong: %+v", events)
	}
}

func TestSummary(t *testing.T) {
	s := sampleLog().Summary()
	for _, want := range []string{"5 events", "1 assigns", "1 switches", "1 batches", "1 completions"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
